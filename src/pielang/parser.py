"""Parser for `.pie` source files.

Grammar (fixed from the surface forms the corpus uses):

    program  := (decl ';')*                 -- final ';' optional
    decl     := 'Axiom' NAME ':' expr
              | 'def' NAME '(' params ')' ':' expr '{' expr '}'
              | 'Inductive' NAME ':' expr ':=' ('|' NAME ':' expr)*
    expr     := 'λ' NAME ':' expr '.' expr
              | 'Π' NAME ':' expr '.' expr
              | atom ('->' expr)?           -- arrow is right-associative
    atom     := '(' expr+ ')'               -- two or more: left-nested application
              | NAME | 'Set' | 'Prop' | 'Type' NUMBER?
              | '<' expr '>' 'match' expr 'with' '{' branch (';' branch)* ';'? '}'
    branch   := NAME '=>' expr
              | '(' NAME+ ')' '=>' expr     -- argument names in the pattern are ignored

`lam`, `Pi` and `→` are accepted for `λ`, `Π` and `->`; an identifier is any
other run of non-delimiter characters (so `⊃` is a name), and lines starting
with `--` are skipped. An arrow is a Π whose binder no source name spells:
each parse numbers its arrows x'1, x'2, ... in the order they close.
Tokens (named tuples of kind, value, line and columns) are made only as the
parser reads them, and an expression is read in one loop over an explicit
stack, so no nesting depth overflows Python's stack. The parser imports no
typing module: `typecheck.elaborate` makes a recursive def a fixpoint.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .diagnostics import fail
from .syntax import App, Lam, Match, Name, Pi, SourceSpan, Term, Universe, Var


@dataclass(frozen=True)
class AxiomDecl:
    name: Name
    type: Term
    span: SourceSpan | None = None


@dataclass(frozen=True)
class DefDecl:
    name: Name
    params: tuple[tuple[Name, Term], ...]
    result_type: Term
    body: Term
    span: SourceSpan | None = None


@dataclass(frozen=True)
class InductiveDeclSrc:
    name: Name
    arity: Term
    constructors: tuple[tuple[Name, Term], ...]
    span: SourceSpan | None = None


Decl = AxiomDecl | DefDecl | InductiveDeclSrc


@dataclass
class Program:
    decls: list[Decl]
    source_name: str = "<input>"


PRELUDE = "Axiom Void : Set; Axiom Null : Void;"


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

class Token(NamedTuple):
    kind: str  # punctuation itself, or 'name' / 'number' / keyword / 'eof'
    value: str
    line: int
    col: int  # of the first character, 1-based
    end: int  # column of the last character

    @property
    def span(self) -> SourceSpan:  # tuple.__new__ skips SourceSpan's Python __new__
        return tuple.__new__(SourceSpan, (self.line, self.col, self.line, self.end))


# Every character but whitespace starts a token, so the positions a search
# skips are exactly the whitespace (`\s` is `str.isspace`). Two-character
# punctuation comes first; a word holds no punctuation character.
_TOKEN = re.compile(r"->|=>|:=|[(){}<>;,.:|λΠ→=-]|[^\s(){}<>;,.:|=λΠ→-]+")

# The kind, and value, of every fixed text: punctuation, arrows and keywords.
_KINDS = {t: t for t in ("->", "=>", ":=", *"(){}<>;,.:|λΠ", "Axiom", "def", "Inductive", "match",
                         "with", "Set", "Prop", "Type", "lam", "Pi")} | {"→": "->"}

# a '-' not before '>', and a '=' neither before '>' nor in ':=', start no token
_STRAY = re.compile(r"[-=](?!>)")
_STRAY_MESSAGES = {"-": "stray '-' (expected '->')", "=": "stray '=' (expected '=>' or ':=')"}


def _tokens(source: str) -> Iterator[Token]:
    """The tokens of source, made as they are read. The first such stray '-' or
    '=' outside comment lines is reported first, to win over earlier errors."""
    at = 0  # search loops, not finditer: a scanner per short line costs more
    while (m := _STRAY.search(source, at)) is not None:
        at = m.end()
        line_start = source.rfind("\n", 0, at) + 1
        stray = m[0] == "-" or source[at - 2:at] != ":="
        if stray and not source[line_start:at + 1].lstrip().startswith("--"):  # a comment line
            line, col = source.count("\n", 0, at) + 1, at - line_start
            fail("Parse", _STRAY_MESSAGES[m[0]], SourceSpan(line, col, line, col))
    search, kinds, new = _TOKEN.search, _KINDS, tuple.__new__
    lines = source.split("\n")
    for lineno, line in enumerate(lines, start=1):
        if line.lstrip().startswith("--"):
            continue
        end = 0
        while (m := search(line, end)) is not None:
            text = m[0]
            start, end = m.span()
            if (kind := kinds.get(text)) is not None:
                text = kind  # '→' reads as '->'
            else:  # isdecimal, not isdigit: int() rejects '²', which is a name
                kind = "number" if text.isdecimal() else "name"
            yield new(Token, (kind, text, lineno, start + 1, end))  # skips Token's Python __new__
    end = len(lines[-1]) + 1
    yield Token("eof", "", len(lines), end, end)


def tokenize(source: str) -> list[Token]:
    return list(_tokens(source))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_BINDERS = {"λ": Lam, "lam": Lam, "Π": Pi, "Pi": Pi}
# the tokens after a binder's domain and after a match's carrier
_THEN = {":": (".",), "<": (">", "match")}


class _Parser:
    def __init__(self, tokens: Iterator[Token]):
        self.rest = tokens
        self.tok = next(self.rest)  # the next token, an attribute on the hot paths
        self.arrows = 0  # the tag of the last arrow binder

    def expect(self, kind: str) -> Token:
        tok = self.tok
        if tok.kind != kind:
            fail("Parse", f"expected '{kind}', found '{tok.value or tok.kind}'", tok.span)
        self.tok = next(self.rest, tok)  # eof, the last token, repeats
        return tok

    def name(self, seen=(), what: str = "") -> tuple[Name, SourceSpan]:
        """A name, which must not be one of seen, the names of earlier `what`s."""
        tok = self.expect("name")
        if (name := Name(tok.value)) in seen:
            fail("Parse", f"duplicate {what} {name}", tok.span)
        return name, tok.span

    def program(self, source_name: str) -> Program:
        decls: list[Decl] = []
        while self.tok.kind != "eof":
            decls.append(self.decl())
            if self.tok.kind == ";":
                self.expect(";")
            elif self.tok.kind != "eof":
                fail("Parse", "expected ';' between declarations", self.tok.span)
        return Program(decls, source_name)

    def decl(self) -> Decl:
        tok = self.tok
        if tok.kind not in ("Axiom", "def", "Inductive"):
            fail("Parse", f"expected a declaration, found '{tok.value or tok.kind}'", tok.span)
        self.expect(tok.kind)
        name, span = self.name()
        if tok.kind == "Axiom":
            self.expect(":")
            return AxiomDecl(name, self.expr(), span)
        if tok.kind == "def":
            self.expect("(")
            params: dict[Name, Term] = {}
            while self.tok.kind != ")":
                if params:
                    self.expect(",")
                pname, _ = self.name(params, "parameter")
                self.expect(":")
                params[pname] = self.expr()
            self.expect(")")
            self.expect(":")
            result_type = self.expr()
            self.expect("{")
            body = self.expr()
            self.expect("}")
            return DefDecl(name, tuple(params.items()), result_type, body, span)
        self.expect(":")  # an Inductive
        arity = self.expr()
        self.expect(":=")
        ctors: dict[Name, Term] = {}
        while self.tok.kind == "|":
            self.expect("|")
            cname, _ = self.name(ctors, "constructor")
            self.expect(":")
            ctors[cname] = self.expr()
        return InductiveDeclSrc(name, arity, tuple(ctors.items()), span)

    def expr(self) -> Term:
        """One expression, read in one loop over a stack of the constructs open
        around the next token, innermost last, so nesting takes no Python frames.
        A frame starts with the token its open part follows: '(' (or a part after
        it), a binder's ':' or '.', '->', or a match's '<', 'match' or '=>'.
        `term` is None while an expression is to be read, else the one just read."""
        stack: list[tuple] = []
        rest, new = self.rest, tuple.__new__  # new skips Name's Python __new__
        term = None
        while True:
            if term is None:
                tok = self.tok
                self.tok = next(rest, tok)
                kind = tok.kind
                if kind == "name":
                    term = Var(new(Name, (tok.value, 0)), tok.span)
                elif kind in ("(", "<"):
                    stack.append((kind, tok))
                elif kind in _BINDERS:
                    stack.append((":", tok, new(Name, (self.expect("name").value, 0))))
                    self.expect(":")
                elif kind in ("Set", "Prop"):
                    term = Universe(0, tok.span)
                elif kind == "Type":
                    level = 1
                    if self.tok.kind == "number":
                        number = self.expect("number")
                        # by default str() writes at most 4300 digits, and typing prints level + 1
                        if len(number.value) >= 4300:
                            fail("Parse", "universe level has too many digits", number.span)
                        level = int(number.value)
                    term = Universe(level, tok.span)
                else:
                    fail("Parse", f"expected an expression, found '{tok.value or kind}'", tok.span)
            elif self.tok.kind == "->":  # only an atom can end just before '->'
                stack.append(("->", self.expect("->"), term))
                term = None
            elif not stack:
                return term
            else:
                frame = stack.pop()
                kind, tok = frame[0], frame[1]
                if kind == "(":
                    if len(frame) == 3:  # the parts before this one, applied
                        term = App(frame[2], term, tok.span)
                    if self.tok.kind == ")":
                        self.expect(")")
                    else:
                        stack.append((kind, tok, term))
                        term = None
                elif kind == "->":  # arrows are numbered in the order they close
                    self.arrows += 1
                    term = Pi(new(Name, ("x", self.arrows)), frame[2], term, tok.span)
                elif kind == ".":
                    term = _BINDERS[tok.kind](frame[2], frame[3], term, tok.span)
                elif kind in _THEN:  # after a binder's domain or a match's carrier
                    for expected in _THEN[kind]:
                        self.expect(expected)
                    stack.append((_THEN[kind][-1], *frame[1:], term))
                    term = None
                else:  # after a match's scrutinee or one of its branches
                    if kind == "match":
                        self.expect("with")
                        self.expect("{")
                        frame = ("=>", tok, frame[2], term, {}, None)
                    else:
                        frame[4][frame[5]] = term
                    term = self.branch(stack, *frame[1:5])

    def branch(self, stack: list[tuple], start: Token, carrier: Term, scrutinee: Term,
               branches: dict[Name, Term]) -> Term | None:
        """The match, if '}' closes it; else None, once the next branch is open."""
        if self.tok.kind != "}" and branches:
            self.expect(";")
        if self.tok.kind == "}":
            self.expect("}")
            leading = []  # a carrier's leading Π binders mean λ binders, the same family
            while isinstance(carrier, Pi):
                leading.append(carrier)
                carrier = carrier.body
            for pi in reversed(leading):
                carrier = Lam(pi.binder, pi.domain, carrier, pi.span)
            return Match(carrier, scrutinee, tuple(branches.items()), start.span)
        if self.tok.kind == "(":
            self.expect("(")
            cname, cspan = self.name()
            while self.tok.kind == "name":  # argument names are ignored
                self.expect("name")
            self.expect(")")
        else:
            cname, cspan = self.name()
        if cname in branches:
            fail("Parse", f"duplicate branch for constructor {cname}", cspan)
        self.expect("=>")
        stack.append(("=>", start, carrier, scrutinee, branches, cname))
        return None


def parse_program(source: str, source_name: str = "<input>",
                  prelude: bool = True) -> Program:
    """Parse a whole `.pie` file. Raises CheckError with a Parse diagnostic
    on the first lexical or grammatical failure."""
    program = _Parser(_tokens(source)).program(source_name)
    if prelude:
        program.decls = [*_PRELUDE_DECLS, *program.decls]
    return program


# declarations are immutable, so all programs share them
_PRELUDE_DECLS = tuple(_Parser(_tokens(PRELUDE)).program("<prelude>").decls)


def parse_term(source: str) -> Term:
    """Parse a single expression (used by tests and tools)."""
    parser = _Parser(_tokens(source))
    term = parser.expr()
    parser.expect("eof")
    return term


def desugar_def(d: DefDecl) -> tuple[Term, Term]:
    """Turn a def into (declared Pi type, value): the parameters become Π
    binders of the type and λ binders of the value. A recursive def's value
    still mentions its own name; `elaborate` wraps it in a Fix."""
    declared: Term = d.result_type
    value: Term = d.body
    for pname, ptype in reversed(d.params):
        declared = Pi(pname, ptype, declared, d.span)
        value = Lam(pname, ptype, value, d.span)
    return declared, value
