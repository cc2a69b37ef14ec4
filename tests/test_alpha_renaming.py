"""Checking is invariant under α-renaming whole programs. Each bundled
program has its λ and Π binders and def parameters renamed to names drawn
from a small pool of the program's own names, so that binders shadow each
other and the top-level names as densely as α-equivalence allows. The
renamed program must be α-equivalent to the original, declaration by
declaration (by `nameless.to_nameless`), and must get the same entry
statuses and diagnostic rule tags."""
from __future__ import annotations

import functools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from nameless import to_nameless
from pielang import App, Lam, Match, Name, Pi, Term, Universe, Var, elaborate, free_vars
from pielang import parse_program
from pielang.cli import load_corpus
from pielang.parser import AxiomDecl, DefDecl, InductiveDeclSrc, Program, desugar_def

PROGRAMS = [path for path, tag in load_corpus() if tag != "Parse"]


@functools.lru_cache(maxsize=None)
def _parsed(path):
    return parse_program(path.read_text(encoding="utf-8"), path.name)


def _verdicts(program: Program):
    result = elaborate(program)
    return ([(name, status) for name, _, status in result.entries],
            [d.rule for d in result.diagnostics])


@functools.lru_cache(maxsize=None)
def _original_verdicts(path):
    return _verdicts(_parsed(path))


def _names(t: Term, into: set) -> None:
    """Add the untagged names that t binds or mentions to into."""
    work = [t]
    while work:
        t = work.pop()
        if type(t) is Var:
            into.add(t.name)
        elif type(t) in (Lam, Pi):
            into.add(t.binder)
            work += (t.domain, t.body)
        elif type(t) is App:
            work += (t.fn, t.arg)
        elif type(t) is Match:
            work += (t.carrier, t.scrutinee, *(body for _, body in t.branches))


def _program_names(program: Program) -> list[Name]:
    names: set[Name] = set()
    for decl in program.decls:
        names.add(decl.name)
        match decl:
            case AxiomDecl(type=t):
                _names(t, names)
            case DefDecl():
                for term in desugar_def(decl):
                    _names(term, names)
            case InductiveDeclSrc(arity=a, constructors=cs):
                _names(a, names)
                for cname, ctype in cs:
                    names.add(cname)
                    _names(ctype, names)
    return sorted(n for n in names if n.fresh_tag == 0)


class _Renamer:
    """Renames each binder to a name drawn from pool, or keeps its own, among
    those that capture no free name of its scope (as the scope is renamed)."""

    def __init__(self, draw, pool):
        self.draw, self.pool = draw, pool

    def binder(self, x: Name, env: dict, *scope: Term) -> Name:
        taken = {env.get(z, z) for s in scope for z in free_vars(s) if z != x}
        choices = sorted(n for n in {*self.pool, x} if n not in taken)
        if not choices:  # every name in play is taken: one apart from them all
            tag = 1
            while Name(x.text, tag) in taken:
                tag += 1
            return Name(x.text, tag)
        return self.draw(st.sampled_from(choices))

    def term(self, t: Term, env: dict) -> Term:
        kind = type(t)
        if kind is Var:
            return Var(env.get(t.name, t.name))
        if kind is Universe:
            return t
        if kind is App:
            return App(self.term(t.fn, env), self.term(t.arg, env))
        if kind is Lam or kind is Pi:
            new = self.binder(t.binder, env, t.body)
            return kind(new, self.term(t.domain, env),
                        self.term(t.body, {**env, t.binder: new}))
        if kind is Match:
            branches = tuple((c, self.term(body, env)) for c, body in t.branches)
            return Match(self.term(t.carrier, env), self.term(t.scrutinee, env), branches)
        raise TypeError(f"not a source term: {t!r}")

    def decl(self, decl):
        match decl:
            case AxiomDecl(name=name, type=t, span=span):
                return AxiomDecl(name, self.term(t, {}), span)
            case DefDecl(name=name, params=params, span=span):
                # a parameter's scope is the rest of the declared type and of the value
                declared, value = desugar_def(decl)
                env, renamed = {}, []
                for x, domain in params:
                    declared, value = declared.body, value.body
                    new = self.binder(x, env, declared, value)
                    renamed.append((new, self.term(domain, env)))
                    env = {**env, x: new}
                return DefDecl(name, tuple(renamed), self.term(decl.result_type, env),
                               self.term(decl.body, env), span)
            case InductiveDeclSrc(name=name, arity=a, constructors=cs, span=span):
                ctors = tuple((c, self.term(t, {})) for c, t in cs)
                return InductiveDeclSrc(name, self.term(a, {}), ctors, span)
        raise TypeError(f"not a declaration: {decl!r}")


def _nameless(decl):
    match decl:
        case AxiomDecl(name=name, type=t):
            return name, to_nameless(t)
        case DefDecl(name=name):
            return name, *map(to_nameless, desugar_def(decl))
        case InductiveDeclSrc(name=name, arity=a, constructors=cs):
            return name, to_nameless(a), tuple((c, to_nameless(t)) for c, t in cs)


@pytest.mark.parametrize("path", PROGRAMS, ids=lambda p: p.name)
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_renaming_binders_to_the_programs_own_names_keeps_every_verdict(path, data):
    program = _parsed(path)
    names = _program_names(program)
    pool = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True))
    renamer = _Renamer(data.draw, pool)
    renamed = Program([renamer.decl(decl) for decl in program.decls], program.source_name)
    for before, after in zip(program.decls, renamed.decls):
        assert _nameless(after) == _nameless(before)
    assert _verdicts(renamed) == _original_verdicts(path)
