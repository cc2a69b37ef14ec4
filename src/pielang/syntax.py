"""Kernel term language: variables, universes, binders, applications,
inductive definitions, constructors, case matches and fixpoints.

Terms are immutable. Binding is name-based; capture is avoided by
renaming binders to fresh names on demand during substitution. Each node
computes its free names once and keeps them, so substitution skips every
subterm that does not mention the substituted name.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field


@dataclass(frozen=True)
class SourceSpan:
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.start_line}:{self.start_col}"


@dataclass(frozen=True)
class Name:
    """A variable name. fresh_tag == 0 means the name came from source text;
    renamed binders carry a positive tag that never collides with source names.
    """

    text: str
    fresh_tag: int = 0

    def __str__(self) -> str:
        if self.fresh_tag == 0:
            return self.text
        return f"{self.text}'{self.fresh_tag}"


_fresh_counter = itertools.count(1)


def fresh_name(base: Name | str) -> Name:
    text = base.text if isinstance(base, Name) else base
    return Name(text, next(_fresh_counter))


def reset_fresh_names() -> None:
    """Restart the fresh-name sequence (one checking session is single-threaded)."""
    global _fresh_counter
    _fresh_counter = itertools.count(1)


class Term:
    """Base class for all expression variants."""

    __slots__ = ()


def _span_field():
    return field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Var(Term):
    name: Name
    span: SourceSpan | None = _span_field()


@dataclass(frozen=True)
class Universe(Term):
    level: int
    span: SourceSpan | None = _span_field()


@dataclass(frozen=True)
class Lam(Term):
    binder: Name
    domain: Term
    body: Term
    span: SourceSpan | None = _span_field()


@dataclass(frozen=True)
class Pi(Term):
    binder: Name
    domain: Term
    body: Term
    span: SourceSpan | None = _span_field()


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term
    span: SourceSpan | None = _span_field()


@dataclass(frozen=True)
class Ind(Term):
    """An inductive definition. The name is in scope inside the constructor
    types (self-reference) but not inside the arity."""

    name: Name
    arity: Term
    constructors: tuple[tuple[Name, Term], ...]
    span: SourceSpan | None = _span_field()


@dataclass(frozen=True)
class Constr(Term):
    """The index-th constructor (1-based) of an inductive definition."""

    index: int
    inductive: Term
    span: SourceSpan | None = _span_field()


@dataclass(frozen=True)
class Match(Term):
    carrier: Term
    scrutinee: Term
    branches: tuple[tuple[Name, Term], ...]
    span: SourceSpan | None = _span_field()


@dataclass(frozen=True)
class Fix(Term):
    """A recursive function; dec_index is the 0-based position of the
    structurally decreasing argument."""

    name: Name
    dec_index: int
    signature: Term
    body: Term
    span: SourceSpan | None = _span_field()


# ---------------------------------------------------------------------------
# Spines
# ---------------------------------------------------------------------------

def spine(t: Term) -> tuple[Term, list[Term]]:
    """Decompose left-nested applications into (head, [arg1, ..., argn])."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def apply_spine(head: Term, args) -> Term:
    for a in args:
        head = App(head, a)
    return head


# ---------------------------------------------------------------------------
# Free variables
# ---------------------------------------------------------------------------

def free_vars(t: Term) -> frozenset[Name]:
    """The free names of t, computed once per node and kept on it."""
    memo = t.__dict__
    fv = memo.get("_free_vars")
    if fv is not None:
        return fv
    match t:
        case Var(name=n):
            fv = frozenset((n,))
        case Universe():
            fv = frozenset()
        case Lam(binder=x, domain=d, body=b) | Pi(binder=x, domain=d, body=b):
            fv = free_vars(d) | (free_vars(b) - {x})
        case App(fn=f, arg=a):
            fv = free_vars(f) | free_vars(a)
        case Ind(name=n, arity=a, constructors=cs):
            fv = free_vars(a)
            for _, ct in cs:
                fv |= free_vars(ct) - {n}
        case Constr(inductive=i):
            fv = free_vars(i)
        case Match(carrier=c, scrutinee=s, branches=bs):
            fv = free_vars(c) | free_vars(s)
            for _, body in bs:
                fv |= free_vars(body)
        case Fix(name=n, signature=s, body=b):
            fv = free_vars(s) | (free_vars(b) - {n})
        case _:
            raise TypeError(f"not a term: {t!r}")
    memo["_free_vars"] = fv
    return fv


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def subst(x: Name, s: Term, t: Term) -> Term:
    """Capture-avoiding [x := s] t."""
    return _subst_all({x: s}, t)


def _subst_all(sigma: dict[Name, Term], t: Term) -> Term:
    """Simultaneous capture-avoiding substitution. A subterm in which no
    name of sigma is free comes back as the same object, span included."""
    if sigma.keys().isdisjoint(free_vars(t)):
        return t
    match t:
        case Var(name=n):
            return sigma[n]
        case Lam(binder=y, domain=d, body=b):
            y, inner = _under_binder(sigma, y, b)
            return Lam(y, _subst_all(sigma, d), _subst_all(inner, b))
        case Pi(binder=y, domain=d, body=b):
            y, inner = _under_binder(sigma, y, b)
            return Pi(y, _subst_all(sigma, d), _subst_all(inner, b))
        case App(fn=f, arg=a):
            return App(_subst_all(sigma, f), _subst_all(sigma, a))
        case Ind(name=n, arity=a, constructors=cs):
            arity = _subst_all(sigma, a)
            n, inner = _under_binder(sigma, n, *(ct for _, ct in cs))
            return Ind(n, arity, tuple((cn, _subst_all(inner, ct)) for cn, ct in cs))
        case Constr(index=i, inductive=ind):
            return Constr(i, _subst_all(sigma, ind))
        case Match(carrier=c, scrutinee=m, branches=bs):
            return Match(
                _subst_all(sigma, c),
                _subst_all(sigma, m),
                tuple((cn, _subst_all(sigma, body)) for cn, body in bs),
            )
        case Fix(name=n, dec_index=k, signature=sig, body=b):
            sig = _subst_all(sigma, sig)
            n, inner = _under_binder(sigma, n, b)
            return Fix(n, k, sig, _subst_all(inner, b))
    raise TypeError(f"not a term: {t!r}")


def _under_binder(sigma: dict[Name, Term], binder: Name, *scope: Term):
    """The binder and substitution to use in its scope: drop the names it
    shadows or the scope does not mention, and rename the binder to a fresh
    name when it would capture a free variable of a replacement."""
    used = frozenset().union(*map(free_vars, scope))
    inner = {x: s for x, s in sigma.items() if x != binder and x in used}
    if any(binder in free_vars(s) for s in inner.values()):
        renamed = fresh_name(binder)
        inner[binder] = Var(renamed)
        binder = renamed
    return binder, inner


# ---------------------------------------------------------------------------
# Alpha equivalence
# ---------------------------------------------------------------------------

def alpha_eq(a: Term, b: Term) -> bool:
    return a is b or _aeq(a, b, {}, {}, 0)


def _aeq(a: Term, b: Term, ea: dict, eb: dict, depth: int) -> bool:
    match a, b:
        case Var(name=x), Var(name=y):
            lx, ly = ea.get(x), eb.get(y)
            if lx is None and ly is None:
                return x == y
            return lx == ly
        case Universe(level=i), Universe(level=j):
            return i == j
        case (Lam(binder=x, domain=da, body=ba), Lam(binder=y, domain=db, body=bb)) | (
            Pi(binder=x, domain=da, body=ba), Pi(binder=y, domain=db, body=bb)
        ):
            if type(a) is not type(b):
                return False
            if not _aeq(da, db, ea, eb, depth):
                return False
            return _aeq(ba, bb, {**ea, x: depth}, {**eb, y: depth}, depth + 1)
        case App(fn=fa, arg=aa), App(fn=fb, arg=ab):
            return _aeq(fa, fb, ea, eb, depth) and _aeq(aa, ab, ea, eb, depth)
        case Ind(name=na, arity=aa, constructors=ca), Ind(name=nb, arity=ab, constructors=cb):
            if len(ca) != len(cb) or not _aeq(aa, ab, ea, eb, depth):
                return False
            ea2, eb2 = {**ea, na: depth}, {**eb, nb: depth}
            for (cn_a, ct_a), (cn_b, ct_b) in zip(ca, cb):
                if cn_a != cn_b or not _aeq(ct_a, ct_b, ea2, eb2, depth + 1):
                    return False
            return True
        case Constr(index=ia, inductive=ta), Constr(index=ib, inductive=tb):
            return ia == ib and _aeq(ta, tb, ea, eb, depth)
        case Match(carrier=ca, scrutinee=sa, branches=ba), Match(
            carrier=cb, scrutinee=sb, branches=bb
        ):
            if len(ba) != len(bb):
                return False
            if not (_aeq(ca, cb, ea, eb, depth) and _aeq(sa, sb, ea, eb, depth)):
                return False
            return all(
                na == nb and _aeq(ta, tb, ea, eb, depth)
                for (na, ta), (nb, tb) in zip(ba, bb)
            )
        case Fix(name=na, dec_index=ka, signature=sa, body=ba), Fix(
            name=nb, dec_index=kb, signature=sb, body=bb
        ):
            if ka != kb or not _aeq(sa, sb, ea, eb, depth):
                return False
            return _aeq(ba, bb, {**ea, na: depth}, {**eb, nb: depth}, depth + 1)
    return False


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------

def pretty(t: Term) -> str:
    match t:
        case Var(name=n):
            return str(n)
        case Universe(level=0):
            return "Set"
        case Universe(level=i):
            return f"(Type {i})"
        case Lam(binder=x, domain=d, body=b):
            return f"λ{x}:{_atom(d)}.{pretty(b)}"
        case Pi(binder=x, domain=d, body=b):
            if x.fresh_tag != 0 and x not in free_vars(b):
                return f"{_atom(d)} -> {pretty(b)}"
            return f"Π{x}:{_atom(d)}.{pretty(b)}"
        case App():
            head, args = spine(t)
            parts = " ".join(pretty(u) for u in (head, *args))
            return f"({parts})"
        case Ind(name=n):
            return str(n)
        case Constr(index=i, inductive=ind):
            if isinstance(ind, Ind) and 1 <= i <= len(ind.constructors):
                return str(ind.constructors[i - 1][0])
            return f"Constr({i},{pretty(ind)})"
        case Match(carrier=c, scrutinee=s, branches=bs):
            body = "; ".join(f"{n} => {pretty(e)}" for n, e in bs)
            return f"<{pretty(c)}> match {pretty(s)} with {{ {body} }}"
        case Fix(name=n, dec_index=k, signature=sig, body=b):
            return f"(fix {n}[{k}] : {pretty(sig)}. {pretty(b)})"
    raise TypeError(f"not a term: {t!r}")


def _atom(t: Term) -> str:
    """Parenthesize terms that would not reparse in domain position."""
    s = pretty(t)
    if isinstance(t, (Lam, Pi, Match, Fix)):
        return f"({s})"
    return s
