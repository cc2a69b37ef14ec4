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
The scanner blanks comment lines, cuts the source into bounded windows and runs
one `findall` per window; it makes each token, a plain tuple of its kind, its
text, its window and its index there, only as the parser reads it, and the
token's line and columns, from its window alone, only when its span is read.
A term or declaration keeps the token it was read from as its span. An
expression is read in one loop over an explicit stack, so no nesting depth
overflows Python's stack. The parser imports no typing module:
`typecheck.elaborate` makes a recursive def a fixpoint.
"""
from __future__ import annotations

import re
from collections import namedtuple
from itertools import chain, count, repeat

from .diagnostics import Record, fail
from .syntax import (App, Lam, Match, Name, Pi, SourceSpan, Term, Universe, Var, _sealed, _TEXT,
                     _token_span)


# params and constructors are tuples of (name, type) pairs
@_sealed
class AxiomDecl:
    __slots__ = ("name", "type", "span")


@_sealed
class DefDecl:
    __slots__ = ("name", "params", "result_type", "body", "span")


@_sealed
class InductiveDeclSrc:
    __slots__ = ("name", "arity", "constructors", "span")


Decl = AxiomDecl | DefDecl | InductiveDeclSrc


class Program(Record):
    __slots__ = ("decls", "source_name")

    def __init__(self, decls: list[Decl], source_name: str = "<input>"):
        self.decls, self.source_name = decls, source_name


PRELUDE = "Axiom Void : Set; Axiom Null : Void;"


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# kind is punctuation itself, or 'name' / 'number' / keyword / 'eof'; col is
# the 1-based column of the first character, and end that of the last
class Token(namedtuple("Token", "kind value line col end")):
    __slots__ = ()
    span = property(lambda tok: SourceSpan(tok.line, tok.col, tok.line, tok.end))


# A comment line, blanked to spaces, so that every offset and newline stays.
_COMMENT = re.compile(r"^[^\S\n]*--.*", re.MULTILINE)
# A scan window ends just after whitespace or an ASCII one-character token,
# which no longer token holds, at least _WIDTH characters after it starts.
_CUT = re.compile(r"[\s(){}<>;,.|]")
_WIDTH = 512

# The kind of every fixed text: punctuation, arrows and keywords. A fixed
# token's value is its kind ('→' reads as '->'), and any other token's its text.
_FIXED = {t: t for t in ("->", "=>", ":=", *"(){}<>;,.:|λΠ", "Axiom", "def", "Inductive", "match",
                         "with", "Set", "Prop", "Type", "lam", "Pi")} | {"→": "->"}

# a '-' not before '>', and a '=' neither before '>' nor in ':=', start no token
_STRAY = re.compile(r"[-=](?<!:=)(?!>)")
_STRAY_MESSAGES = {"-": "stray '-' (expected '->')", "=": "stray '=' (expected '=>' or ':=')"}


class _Kinds(dict):
    """The kind of each text scanned so far, the fixed ones to start with."""

    def __missing__(self, text: str) -> str:
        # isdecimal, not isdigit: int() rejects '²', which is a name
        kind = self[text] = "number" if text.isdecimal() else "name"
        return kind


def _shown(tok: tuple) -> str:
    """How a report names a token: by its value, or 'eof'."""
    return _FIXED.get(tok[1], tok[1]) or tok[0]


def _tokens(source: str) -> Iterator[tuple]:
    """The tokens of source, each a plain tuple (kind, text, window, index in
    window) that `_token_span` places, made in C as they are read. The first
    stray '-' or '=' outside comment lines is reported here, to win over
    earlier errors."""
    if "--" in source:
        source = _COMMENT.sub(lambda comment: " " * len(comment[0]), source)
    if (m := _STRAY.search(source)) is not None:
        at = m.end()
        line, col = source.count("\n", 0, at) + 1, at - source.rfind("\n", 0, at) - 1
        fail("Parse", _STRAY_MESSAGES[m[0]], SourceSpan(line, col, line, col))
    return chain.from_iterable(_windows(source))


def _windows(source: str) -> Iterator[Iterator[tuple]]:
    """The tokens of each window of source in turn, one findall per window, and
    last the end of file. Each window is (source, start, line, line start, ends),
    with the line and line start of its first character, counted on as it is
    cut, and the bytearray in which `_token_span` records its tokens' ends."""
    findall, cut, kind_of = _TEXT.findall, _CUT.search, _Kinds(_FIXED).__getitem__
    start, size, line, line_start = 0, len(source), 1, 0
    while start < size:
        end = m.end() if (m := cut(source, start + _WIDTH)) else size
        texts = findall(source, start, end)
        window = (source, start, line, line_start, bytearray())
        yield zip(map(kind_of, texts), texts, repeat(window), count())
        if (last := source.rfind("\n", start, end)) >= 0:
            line, line_start = line + source.count("\n", start, last + 1), last + 1
        start = end
    yield iter([("eof", "", (source, size, line, line_start, bytearray()), 0)])


def tokenize(source: str) -> list[Token]:
    """The tokens of source with their lines and columns, for tests and tools:
    those `_tokens` makes, each placed by `_token_span`."""
    return [Token(tok[0], _FIXED.get(tok[1], tok[1]), span.start_line, span.start_col, span.end_col)
            for tok in _tokens(source) for span in (_token_span(tok),)]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# after a declaration's keyword and name: fixed tokens, expressions (None) and pairs
_FORMS = {"Axiom": (AxiomDecl, (":", None)),
          "def": (DefDecl, ("(", "parameter", ")", ":", None, "{", None, "}")),
          "Inductive": (InductiveDeclSrc, (":", None, ":=", "constructor"))}
_BINDERS = {"λ": Lam, "lam": Lam, "Π": Pi, "Pi": Pi}
# the tokens after a binder's domain, and after a match's carrier and scrutinee
_THEN = {":": (".",), "<": (">", "match"), "match": ("with", "{")}


class _Names(dict):
    """The one Name of each spelling read so far."""

    def __missing__(self, text: str) -> Name:
        name = self[text] = tuple.__new__(Name, (text, 0))  # skips Name's Python __new__
        return name


class _Parser:
    def __init__(self, tokens: Iterator[tuple]):
        self.rest = tokens
        self.tok = next(self.rest)  # the next token, laid out as Token: tok[0] is its kind
        self.arrows = 0  # the tag of the last arrow binder
        self.names = _Names()  # so a parse makes one Name per spelling

    def expect(self, kind: str) -> tuple:
        tok = self.tok
        if tok[0] != kind:
            fail("Parse", f"expected '{kind}', found '{_shown(tok)}'", _token_span(tok))
        self.tok = next(self.rest, tok)  # eof, the last token, repeats
        return tok

    def name(self, seen=(), what: str = "") -> tuple[Name, tuple]:
        """A name, which must not be one of seen, the names of earlier `what`s,
        and the token it was read from."""
        tok = self.tok if self.tok[0] == "name" else self.expect("name")  # which fails
        self.tok = next(self.rest, tok)
        if (name := self.names[tok[1]]) in seen:
            fail("Parse", f"duplicate {what} {name}", _token_span(tok))
        return name, tok

    def program(self, source_name: str) -> Program:
        decls: list[Decl] = []
        while self.tok[0] != "eof":
            decls.append(self.decl())
            if self.tok[0] not in (";", "eof"):
                fail("Parse", "expected ';' between declarations", _token_span(self.tok))
            self.tok = next(self.rest, self.tok)
        return Program(decls, source_name)

    def decl(self) -> Decl:
        """A declaration, read by its form in _FORMS, each fixed token in place."""
        if (tok := self.tok)[0] not in _FORMS:
            fail("Parse", f"expected a declaration, found '{_shown(tok)}'", _token_span(tok))
        self.tok = next(self.rest, tok)
        record, form = _FORMS[tok[0]]
        name, kept = self.name()  # the declaration keeps its name's token as its span
        parts = []
        for part in form:
            if (tok := self.tok)[0] == part:
                self.tok = next(self.rest, tok)
            elif part is None:
                parts.append(self.expr())
            elif part in ("parameter", "constructor"):  # ',' between, up to ')'; '|' before each
                pairs: dict[Name, Term] = {}
                while self.tok[0] == "|" if part == "constructor" else self.tok[0] != ")":
                    if pairs or part == "constructor":
                        self.expect("|" if part == "constructor" else ",")
                    pname, _ = self.name(pairs, part)
                    self.expect(":")
                    pairs[pname] = self.expr()
                parts.append(tuple(pairs.items()))
            else:
                self.expect(part)  # which fails
        return record(name, *parts, kept)

    def expr(self) -> Term:
        """One expression, read in one loop over a stack of the constructs open
        around the next token, innermost last, so nesting takes no Python frames.
        A frame starts with the token its open part follows: '(' (or a part after
        it), a binder's ':' or '.', '->', or a match's '<', 'match' or '=>'.
        `term` is None while an expression is to be read, else the one just read.
        The next token is kept in the local `ahead`, and the fixed tokens of a
        binder and a closing ')' are read inline; `self.tok` is written back only
        before another method reads it (`branch`, or `expect` to report an error)
        and on return."""
        stack: list[tuple] = []
        # a term keeps the token it starts at as its span; new skips a named tuple's Python __new__
        rest, names, new = self.rest, self.names, tuple.__new__
        ahead = self.tok
        term = None
        while True:
            if term is None:
                tok, ahead = ahead, next(rest, ahead)  # eof, the last token, repeats
                kind = tok[0]
                if kind == "name":
                    term = Var(names[tok[1]], tok)
                elif kind in ("(", "<"):
                    stack.append((kind, tok))
                elif kind in _BINDERS:  # its name and ':'
                    if ahead[0] != "name":
                        self.tok = ahead
                        self.expect("name")  # which fails
                    stack.append((":", tok, names[ahead[1]]))
                    if (ahead := next(rest, ahead))[0] != ":":
                        self.tok = ahead
                        self.expect(":")  # which fails
                    ahead = next(rest, ahead)
                elif kind in ("Set", "Prop"):
                    term = Universe(0, tok)
                elif kind == "Type":
                    level = 1
                    if ahead[0] == "number":
                        number, ahead = ahead, next(rest, ahead)
                        # by default str() writes at most 4300 digits, and typing prints level + 1
                        if len(number[1]) >= 4300:
                            fail("Parse", "universe level has too many digits", _token_span(number))
                        level = int(number[1])
                    term = Universe(level, tok)
                else:
                    fail("Parse", f"expected an expression, found '{_shown(tok)}'",
                         _token_span(tok))
            elif ahead[0] == "->":  # only an atom can end just before '->'
                stack.append(("->", ahead, term))
                ahead = next(rest, ahead)
                term = None
            elif not stack:
                self.tok = ahead
                return term
            else:
                frame = stack.pop()
                kind, tok = frame[0], frame[1]
                if kind == "(":
                    if len(frame) == 3:  # the parts before this one, applied
                        term = App(frame[2], term, tok)
                    if ahead[0] == ")":
                        ahead = next(rest, ahead)
                    else:
                        stack.append((kind, tok, term))
                        term = None
                elif kind == "->":  # arrows are numbered in the order they close
                    self.arrows += 1
                    term = Pi(new(Name, ("x", self.arrows)), frame[2], term, tok)
                elif kind == ".":
                    term = _BINDERS[tok[0]](frame[2], frame[3], term, tok)
                elif kind in _THEN:  # after a binder's domain, or a match's carrier or scrutinee
                    for expected in _THEN[kind]:
                        if ahead[0] != expected:
                            self.tok = ahead
                            self.expect(expected)  # which fails
                        ahead = next(rest, ahead)
                    if kind == "match":
                        self.tok = ahead
                        term = self.branch(stack, tok, frame[2], term, {})
                        ahead = self.tok
                    else:
                        stack.append((_THEN[kind][-1], *frame[1:], term))
                        term = None
                else:  # after one of a match's branches
                    frame[4][frame[5]] = term
                    self.tok = ahead
                    term = self.branch(stack, *frame[1:5])
                    ahead = self.tok

    def branch(self, stack: list[tuple], start: tuple, carrier: Term, scrutinee: Term,
               branches: dict[Name, Term]) -> Term | None:
        """The match, if '}' closes it; else None, once the next branch is open."""
        if self.tok[0] != "}" and branches:
            self.expect(";")
        if self.tok[0] == "}":
            self.expect("}")
            leading = []  # a carrier's leading Π binders mean λ binders, the same family
            while isinstance(carrier, Pi):
                leading.append(carrier)
                carrier = carrier.body
            for pi in reversed(leading):
                carrier = Lam(pi.binder, pi.domain, carrier, pi.kept_span)
            return Match(carrier, scrutinee, tuple(branches.items()), start)
        if self.tok[0] == "(":
            self.expect("(")
            cname, ctok = self.name()
            while self.tok[0] == "name":  # argument names are ignored
                self.expect("name")
            self.expect(")")
        else:
            cname, ctok = self.name()
        if cname in branches:
            fail("Parse", f"duplicate branch for constructor {cname}", _token_span(ctok))
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
        declared = Pi(pname, ptype, declared, d.kept_span)
        value = Lam(pname, ptype, value, d.kept_span)
    return declared, value
