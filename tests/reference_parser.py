"""A reference parser for differential tests of `pielang.parser`.

It reads the grammar that `pielang.parser` documents, the plain way: the
whole token list is built first, checking each token as it is cut, and each
expression is parsed by recursive descent, one Python call per nesting level,
so it only serves shallow inputs. It shares the parser's output types, not
its code.
"""
from __future__ import annotations

import re

from pielang.diagnostics import fail
from pielang.parser import AxiomDecl, DefDecl, InductiveDeclSrc, Token
from pielang.syntax import App, Lam, Match, Name, Pi, SourceSpan, Universe, Var

TOKEN = re.compile(r"->|=>|:=|[(){}<>;,.:|λΠ→=-]|[^\s(){}<>;,.:|=λΠ→-]+")
FIXED = {"->", "=>", ":=", *"(){}<>;,.:|λΠ", "Axiom", "def", "Inductive", "match", "with",
         "Set", "Prop", "Type", "lam", "Pi"}
STRAY = {"-": "stray '-' (expected '->')", "=": "stray '=' (expected '=>' or ':=')"}


def tokenize(source: str) -> list[Token]:
    tokens = []
    lines = source.split("\n")
    for lineno, line in enumerate(lines, start=1):
        if line.lstrip().startswith("--"):
            continue
        for m in TOKEN.finditer(line):
            text, (start, end) = m[0], m.span()
            if text in STRAY:
                fail("Parse", STRAY[text], SourceSpan(lineno, start + 1, lineno, end))
            if text == "→":
                text = "->"
            kind = text if text in FIXED else "number" if text.isdecimal() else "name"
            tokens.append(Token(kind, text, lineno, start + 1, end))
    end = len(lines[-1]) + 1
    tokens.append(Token("eof", "", len(lines), end, end))
    return tokens


class Parser:
    def __init__(self, source: str):
        self.tokens, self.at, self.arrows = tokenize(source), 0, 0

    @property
    def tok(self) -> Token:
        return self.tokens[min(self.at, len(self.tokens) - 1)]

    def take(self, kind: str | None = None) -> Token:
        tok = self.tok
        if kind is not None and tok.kind != kind:
            fail("Parse", f"expected '{kind}', found '{tok.value or tok.kind}'", tok.span)
        self.at += 1
        return tok

    def name(self, seen=(), what: str = "") -> Name:
        tok = self.take("name")
        if Name(tok.value) in seen:
            fail("Parse", f"duplicate {what} {tok.value}", tok.span)
        return Name(tok.value)

    def program(self) -> list:
        decls = []
        while self.tok.kind != "eof":
            decls.append(self.decl())
            if self.tok.kind == ";":
                self.take()
            elif self.tok.kind != "eof":
                fail("Parse", "expected ';' between declarations", self.tok.span)
        return decls

    def decl(self):
        tok = self.take()
        if tok.kind not in ("Axiom", "def", "Inductive"):
            fail("Parse", f"expected a declaration, found '{tok.value or tok.kind}'", tok.span)
        span = self.tok.span
        name = self.name()
        if tok.kind == "Axiom":
            self.take(":")
            return AxiomDecl(name, self.expr(), span)
        if tok.kind == "def":
            self.take("(")
            params: dict = {}
            while self.tok.kind != ")":
                if params:
                    self.take(",")
                pname = self.name(params, "parameter")
                self.take(":")
                params[pname] = self.expr()
            self.take(")")
            self.take(":")
            result = self.expr()
            self.take("{")
            body = self.expr()
            self.take("}")
            return DefDecl(name, tuple(params.items()), result, body, span)
        self.take(":")
        arity = self.expr()
        self.take(":=")
        ctors: dict = {}
        while self.tok.kind == "|":
            self.take()
            cname = self.name(ctors, "constructor")
            self.take(":")
            ctors[cname] = self.expr()
        return InductiveDeclSrc(name, arity, tuple(ctors.items()), span)

    def expr(self):
        tok = self.tok
        if tok.kind in ("λ", "lam", "Π", "Pi"):
            self.take()
            binder = Name(self.take("name").value)
            self.take(":")
            domain = self.expr()
            self.take(".")
            node = Lam if tok.kind in ("λ", "lam") else Pi
            return node(binder, domain, self.expr(), tok.span)
        left = self.atom()
        if self.tok.kind != "->":
            return left
        arrow = self.take()
        right = self.expr()
        self.arrows += 1  # arrows are numbered in the order they close
        return Pi(Name("x", self.arrows), left, right, arrow.span)

    def atom(self):
        tok = self.take()
        if tok.kind == "(":
            term = self.expr()
            while self.tok.kind != ")":
                term = App(term, self.expr(), tok.span)
            self.take(")")
            return term
        if tok.kind == "name":
            return Var(Name(tok.value), tok.span)
        if tok.kind in ("Set", "Prop"):
            return Universe(0, tok.span)
        if tok.kind == "Type":
            return Universe(int(self.take().value) if self.tok.kind == "number" else 1, tok.span)
        if tok.kind != "<":
            fail("Parse", f"expected an expression, found '{tok.value or tok.kind}'", tok.span)
        carrier = self.expr()
        self.take(">")
        self.take("match")
        scrutinee = self.expr()
        self.take("with")
        self.take("{")
        branches: dict = {}
        while self.tok.kind != "}":
            if branches:
                self.take(";")
                if self.tok.kind == "}":
                    break
            paren = self.tok.kind == "("
            if paren:
                self.take()
            cspan, cname = self.tok.span, Name(self.take("name").value)
            while paren and self.tok.kind == "name":
                self.take()
            if paren:
                self.take(")")
            if cname in branches:
                fail("Parse", f"duplicate branch for constructor {cname}", cspan)
            self.take("=>")
            branches[cname] = self.expr()
        self.take("}")
        return Match(lam_carrier(carrier), scrutinee, tuple(branches.items()), tok.span)


def lam_carrier(carrier):
    """A carrier's leading Π binders, as λ binders."""
    if isinstance(carrier, Pi):
        return Lam(carrier.binder, carrier.domain, lam_carrier(carrier.body), carrier.span)
    return carrier


def parse_program(source: str) -> list:
    return Parser(source).program()
