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

`lam` and `Pi` are accepted for `λ` and `Π`, `→` for `->`. Identifiers are
any other run of non-delimiter characters (so `⊃` is an ordinary name).
Lines starting with `--` are skipped.
"""
from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    App,
    Fix,
    Lam,
    Match,
    Name,
    Pi,
    SourceSpan,
    Term,
    Universe,
    Var,
    free_vars,
    fresh_name,
)
from .typecheck import CheckError, Diagnostic


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

KEYWORDS = {"Axiom", "def", "Inductive", "match", "with", "Set", "Prop", "Type", "lam", "Pi"}


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Token:
    kind: str  # punctuation itself, or 'name' / 'number' / keyword / 'eof'
    value: str
    span: SourceSpan


_PUNCT = set("(){}<>;,.:|=-λΠ")


def _parse_error(message: str, span: SourceSpan):
    raise CheckError(Diagnostic("Parse", message, span))


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    lines = source.split("\n")
    for lineno, line in enumerate(lines, start=1):
        if line.lstrip().startswith("--"):
            continue
        col = 0
        n = len(line)

        def emit(kind, value, width):  # reads col when called
            tokens.append(Token(kind, value, SourceSpan(lineno, col + 1, lineno, col + width)))

        while col < n:
            ch = line[col]
            if ch.isspace():
                col += 1
                continue
            if ch == "→":
                emit("->", "->", 1)
                col += 1
            elif ch == "-":
                if col + 1 < n and line[col + 1] == ">":
                    emit("->", "->", 2)
                    col += 2
                else:
                    here = SourceSpan(lineno, col + 1, lineno, col + 1)
                    _parse_error("stray '-' (expected '->')", here)
            elif ch == "=":
                if col + 1 < n and line[col + 1] == ">":
                    emit("=>", "=>", 2)
                    col += 2
                else:
                    here = SourceSpan(lineno, col + 1, lineno, col + 1)
                    _parse_error("stray '=' (expected '=>' or ':=')", here)
            elif ch == ":":
                if col + 1 < n and line[col + 1] == "=":
                    emit(":=", ":=", 2)
                    col += 2
                else:
                    emit(":", ":", 1)
                    col += 1
            elif ch in ("λ", "Π"):
                emit(ch, ch, 1)
                col += 1
            elif ch in _PUNCT:
                emit(ch, ch, 1)
                col += 1
            else:
                stop = col
                while stop < n and not line[stop].isspace() and line[stop] not in _PUNCT \
                        and line[stop] != "→":
                    stop += 1
                word = line[col:stop]
                if word in KEYWORDS:
                    kind = word
                else:  # isdecimal, not isdigit: int() rejects '²', which is a name
                    kind = "number" if word.isdecimal() else "name"
                emit(kind, word, stop - col)
                col = stop
    end = SourceSpan(len(lines), len(lines[-1]) + 1, len(lines), len(lines[-1]) + 1)
    tokens.append(Token("eof", "", end))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.value or tok.kind
            _parse_error(f"expected '{kind}', found '{shown}'", tok.span)
        return self.next()

    def name(self) -> tuple[Name, SourceSpan]:
        tok = self.expect("name")
        return Name(tok.value), tok.span

    # -- declarations --------------------------------------------------

    def program(self, source_name: str) -> Program:
        decls: list[Decl] = []
        while self.peek().kind != "eof":
            decls.append(self.decl())
            if self.peek().kind == ";":
                self.next()
            elif self.peek().kind != "eof":
                _parse_error("expected ';' between declarations", self.peek().span)
        return Program(decls, source_name)

    def decl(self) -> Decl:
        tok = self.peek()
        if tok.kind == "Axiom":
            self.next()
            name, span = self.name()
            self.expect(":")
            return AxiomDecl(name, self.expr(), span)
        if tok.kind == "def":
            self.next()
            name, span = self.name()
            self.expect("(")
            params: list[tuple[Name, Term]] = []
            seen: set[Name] = set()
            while self.peek().kind != ")":
                if params:
                    self.expect(",")
                pname, pspan = self.name()
                if pname in seen:
                    _parse_error(f"duplicate parameter {pname}", pspan)
                seen.add(pname)
                self.expect(":")
                params.append((pname, self.expr()))
            self.expect(")")
            self.expect(":")
            result_type = self.expr()
            self.expect("{")
            body = self.expr()
            self.expect("}")
            return DefDecl(name, tuple(params), result_type, body, span)
        if tok.kind == "Inductive":
            self.next()
            name, span = self.name()
            self.expect(":")
            arity = self.expr()
            self.expect(":=")
            ctors: list[tuple[Name, Term]] = []
            seen = set()
            while self.peek().kind == "|":
                self.next()
                cname, cspan = self.name()
                if cname in seen:
                    _parse_error(f"duplicate constructor {cname}", cspan)
                seen.add(cname)
                self.expect(":")
                ctors.append((cname, self.expr()))
            return InductiveDeclSrc(name, arity, tuple(ctors), span)
        shown = tok.value or tok.kind
        _parse_error(f"expected a declaration, found '{shown}'", tok.span)

    # -- expressions ---------------------------------------------------

    def expr(self) -> Term:
        tok = self.peek()
        if tok.kind in ("λ", "lam", "Π", "Pi"):
            self.next()
            binder, _ = self.name()
            self.expect(":")
            domain = self.expr()
            self.expect(".")
            body = self.expr()
            node = Lam if tok.kind in ("λ", "lam") else Pi
            return node(binder, domain, body, span=tok.span)
        left = self.atom()
        if self.peek().kind == "->":
            arrow = self.next()
            right = self.expr()
            return Pi(fresh_name("x"), left, right, span=arrow.span)
        return left

    def atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            parts = [self.expr()]
            while self.peek().kind != ")":
                parts.append(self.expr())
            self.expect(")")
            term = parts[0]
            for arg in parts[1:]:
                term = App(term, arg, span=tok.span)
            return term
        if tok.kind == "name":
            self.next()
            return Var(Name(tok.value), span=tok.span)
        if tok.kind in ("Set", "Prop"):
            self.next()
            return Universe(0, span=tok.span)
        if tok.kind == "Type":
            self.next()
            if self.peek().kind == "number":
                return Universe(int(self.next().value), span=tok.span)
            return Universe(1, span=tok.span)
        if tok.kind == "<":
            return self.match_expr()
        if tok.kind in ("λ", "lam", "Π", "Pi"):
            return self.expr()
        shown = tok.value or tok.kind
        _parse_error(f"expected an expression, found '{shown}'", tok.span)

    def match_expr(self) -> Term:
        start = self.expect("<")
        carrier = self.expr()
        self.expect(">")
        self.expect("match")
        scrutinee = self.expr()
        self.expect("with")
        self.expect("{")
        branches: list[tuple[Name, Term]] = []
        seen: set[Name] = set()
        while self.peek().kind != "}":
            if branches:
                self.expect(";")
                if self.peek().kind == "}":
                    break
            cname, cspan = self.branch_pattern()
            if cname in seen:
                _parse_error(f"duplicate branch for constructor {cname}", cspan)
            seen.add(cname)
            self.expect("=>")
            branches.append((cname, self.expr()))
        self.expect("}")
        return Match(_carrier_to_abstraction(carrier), scrutinee, tuple(branches),
                     span=start.span)

    def branch_pattern(self) -> tuple[Name, SourceSpan]:
        if self.peek().kind == "(":
            self.next()
            cname, cspan = self.name()
            while self.peek().kind == "name":  # argument names are ignored
                self.next()
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
        preamble = _Parser(tokenize(PRELUDE)).program(source_name)
        program.decls = preamble.decls + program.decls
    return program


def parse_term(source: str) -> Term:
    """Parse a single expression (used by tests and tools)."""
    parser = _Parser(tokenize(source))
    term = parser.expr()
    parser.expect("eof")
    return term


def desugar_def(d: DefDecl) -> tuple[Term, Term]:
    """Turn a def into (declared Pi type, value). Recursive definitions are
    wrapped in a Fix with the smallest decreasing index that passes the
    guard check."""
    from .termination import infer_fix_index

    declared: Term = d.result_type
    value: Term = d.body
    for pname, ptype in reversed(d.params):
        declared = Pi(pname, ptype, declared, span=d.span)
        value = Lam(pname, ptype, value, span=d.span)
    if d.name in free_vars(value):
        k = infer_fix_index(d.name, value)
        value = Fix(d.name, k, declared, value, span=d.span)
    return declared, value
