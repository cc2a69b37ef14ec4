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

An arrow `A -> B` is a Π whose binder no source name spells: each parse
numbers its arrows x'1, x'2, ... in the order they close.
`lam` and `Pi` are accepted for `λ` and `Π`, `→` for `->`. Identifiers are
any other run of non-delimiter characters (so `⊃` is an ordinary name).
Lines starting with `--` are skipped. A token is a named tuple of its kind,
value, line and columns; the parser builds a token's `SourceSpan` only when
it attaches one to a term, a declaration or a diagnostic. The parser imports
no typing module: `typecheck.elaborate` makes a recursive def a fixpoint.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

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

_STRAY = {"-": "stray '-' (expected '->')", "=": "stray '=' (expected '=>' or ':=')"}


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append, search, kinds, new = tokens.append, _TOKEN.search, _KINDS, tuple.__new__
    lines = source.split("\n")
    for lineno, line in enumerate(lines, start=1):
        if line.lstrip().startswith("--"):
            continue
        # a search loop, not finditer: on CPython 3.11.7 finditer here left small
        # blocks behind that pinned memory arenas, so repeated checks of long
        # files kept growing the process
        pos = 0
        while (m := search(line, pos)) is not None:
            text = m[0]
            start, pos = m.span()
            if (kind := kinds.get(text)) is not None:
                text = kind  # '→' reads as '->'
            elif text in _STRAY:
                fail("Parse", _STRAY[text], SourceSpan(lineno, start + 1, lineno, pos))
            else:  # isdecimal, not isdigit: int() rejects '²', which is a name
                kind = "number" if text.isdecimal() else "name"
            append(new(Token, (kind, text, lineno, start + 1, pos)))  # skips Token's Python __new__
    end = len(lines[-1]) + 1
    append(Token("eof", "", len(lines), end, end))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token]):
        self.rest = iter(tokens)
        self.tok = next(self.rest)  # the next token, an attribute on the hot paths
        self.arrows = 0  # the tag of the last arrow binder

    def advance(self) -> Token:
        tok = self.tok
        self.tok = next(self.rest, tok)  # eof, the last token, repeats
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.tok
        if tok.kind != kind:
            shown = tok.value or tok.kind
            fail("Parse", f"expected '{kind}', found '{shown}'", tok.span)
        self.tok = next(self.rest, tok)
        return tok

    def name(self) -> tuple[Name, SourceSpan]:
        tok = self.expect("name")
        return Name(tok.value), tok.span

    # -- declarations --------------------------------------------------

    def program(self, source_name: str) -> Program:
        decls: list[Decl] = []
        while self.tok.kind != "eof":
            decls.append(self.decl())
            if self.tok.kind == ";":
                self.advance()
            elif self.tok.kind != "eof":
                fail("Parse", "expected ';' between declarations", self.tok.span)
        return Program(decls, source_name)

    def decl(self) -> Decl:
        tok = self.tok
        if tok.kind not in ("Axiom", "def", "Inductive"):
            shown = tok.value or tok.kind
            fail("Parse", f"expected a declaration, found '{shown}'", tok.span)
        self.advance()
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
                pname, pspan = self.name()
                if pname in params:
                    fail("Parse", f"duplicate parameter {pname}", pspan)
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
            self.advance()
            cname, cspan = self.name()
            if cname in ctors:
                fail("Parse", f"duplicate constructor {cname}", cspan)
            self.expect(":")
            ctors[cname] = self.expr()
        return InductiveDeclSrc(name, arity, tuple(ctors.items()), span)

    # -- expressions ---------------------------------------------------

    def expr(self) -> Term:
        tok = self.tok
        if tok.kind in ("λ", "lam", "Π", "Pi"):
            self.advance()
            binder = Name(self.expect("name").value)
            self.expect(":")
            domain = self.expr()
            self.expect(".")
            body = self.expr()
            node = Lam if tok.kind in ("λ", "lam") else Pi
            return node(binder, domain, body, span=tok.span)
        left = self.atom()
        if self.tok.kind == "->":
            arrow = self.advance()
            right = self.expr()
            self.arrows += 1
            return Pi(Name("x", self.arrows), left, right, span=arrow.span)
        return left

    def atom(self) -> Term:
        tok = self.tok
        if tok.kind == "(":
            self.advance()
            parts = [self.expr()]
            while self.tok.kind != ")":
                parts.append(self.expr())
            self.expect(")")
            term = parts[0]
            for arg in parts[1:]:
                term = App(term, arg, span=tok.span)
            return term
        if tok.kind == "name":
            self.advance()
            return Var(Name(tok.value), span=tok.span)
        if tok.kind in ("Set", "Prop"):
            self.advance()
            return Universe(0, span=tok.span)
        if tok.kind == "Type":
            self.advance()
            if self.tok.kind == "number":
                return Universe(int(self.advance().value), span=tok.span)
            return Universe(1, span=tok.span)
        if tok.kind == "<":
            return self.match_expr()
        shown = tok.value or tok.kind
        fail("Parse", f"expected an expression, found '{shown}'", tok.span)

    def match_expr(self) -> Term:
        start = self.expect("<")
        carrier = self.expr()
        self.expect(">")
        self.expect("match")
        scrutinee = self.expr()
        self.expect("with")
        self.expect("{")
        branches: dict[Name, Term] = {}
        while self.tok.kind != "}":
            if branches:
                self.expect(";")
                if self.tok.kind == "}":
                    break
            cname, cspan = self.branch_pattern()
            if cname in branches:
                fail("Parse", f"duplicate branch for constructor {cname}", cspan)
            self.expect("=>")
            branches[cname] = self.expr()
        self.expect("}")
        return Match(_carrier_to_abstraction(carrier), scrutinee, tuple(branches.items()),
                     span=start.span)

    def branch_pattern(self) -> tuple[Name, SourceSpan]:
        if self.tok.kind == "(":
            self.advance()
            cname, cspan = self.name()
            while self.tok.kind == "name":  # argument names are ignored
                self.advance()
            self.expect(")")
            return cname, cspan
        return self.name()


def _carrier_to_abstraction(carrier: Term) -> Term:
    """Carriers are sometimes written with Π instead of λ; both mean the
    same type family, so rewrite leading Π binders into λ."""
    if isinstance(carrier, Pi):
        return Lam(carrier.binder, carrier.domain,
                   _carrier_to_abstraction(carrier.body), span=carrier.span)
    return carrier


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def parse_program(source: str, source_name: str = "<input>",
                  prelude: bool = True) -> Program:
    """Parse a whole `.pie` file. Raises CheckError with a Parse diagnostic
    on the first lexical or grammatical failure."""
    program = _Parser(tokenize(source)).program(source_name)
    if prelude:
        program.decls = [*_PRELUDE_DECLS, *program.decls]
    return program


# declarations are immutable, so all programs share them
_PRELUDE_DECLS = tuple(_Parser(tokenize(PRELUDE)).program("<prelude>").decls)


def parse_term(source: str) -> Term:
    """Parse a single expression (used by tests and tools)."""
    parser = _Parser(tokenize(source))
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
        declared = Pi(pname, ptype, declared, span=d.span)
        value = Lam(pname, ptype, value, span=d.span)
    return declared, value
