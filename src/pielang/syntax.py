"""Kernel term language: variables, universes, binders, applications,
inductive definitions, constructors, case matches and fixpoints.

Terms are immutable, slotted dataclasses. Binding is name-based; substitution
avoids capture by renaming a binder to its text with a tag free in the terms
in play. Each node computes its free names once and keeps them in a slot, so
substitution skips every subterm that does not mention the substituted name.
A node the parser builds keeps the token it was read from as its span, and
the token's line and columns are found only when its `span` is read.
"""
from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from itertools import islice
from operator import attrgetter
from typing import NamedTuple


class SourceSpan(NamedTuple):
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.start_line}:{self.start_col}"


# The text of one token: two-character punctuation first; a word holds no
# punctuation character. `parser` scans with it, and `_token_span` finds a kept
# token's place with it again.
_TEXT = re.compile(r"->|=>|:=|[(){}<>;,.:|λΠ→=-]|[^\s(){}<>;,.:|=λΠ→-]+")


def _token_span(tok: tuple) -> SourceSpan:
    """The span of a token the parser keeps, a plain tuple (kind, text, window,
    index in window), where window is (scanned source, start, line, line start)
    with the line and line start of the window's first character. The token is
    found by scanning its window again up to it, so placing it reads nothing
    before the window. The end of file has no text, and sits just past the last
    character."""
    (source, start, line, line_start), i = tok[2], tok[3]
    m = next(islice(_TEXT.finditer(source, start), i, None), None)
    at, end = m.span() if m is not None else (len(source), len(source) + 1)
    if (last := source.rfind("\n", start, at)) >= 0:
        line, line_start = line + source.count("\n", start, last + 1), last + 1
    return SourceSpan(line, at - line_start + 1, line, end - line_start)


class Name(NamedTuple):
    """A variable name; a named tuple, so hashing and comparing run in C.
    fresh_tag == 0 means the name came from source text, which cannot
    spell a tag. Arrow binders and renamed binders carry a positive tag."""

    text: str
    fresh_tag: int = 0

    def __str__(self) -> str:
        if self.fresh_tag == 0:
            return self.text
        return f"{self.text}'{self.fresh_tag}"


def fresh_name(base: Name, *avoid) -> Name:
    """base's text with a positive tag whose name is in none of avoid, but the tag
    below's is: the least one if 1..k are taken, found in O(log k) probes, not O(k)."""
    def free(tag: int) -> bool:
        return not any(Name(base.text, tag) in names for names in avoid)
    tag = 1
    while not free(tag):
        tag *= 2
    return Name(base.text, bisect_left(range(tag), True, tag // 2 + 1, key=free))


class Term:
    """Base class for all expression variants; its slot holds free_vars' memo."""

    __slots__ = ("_free_vars",)


# The methods every sealed class shares, as a frozen dataclass would make them:
# they read its compared fields through `_compared` and its shown ones in `_shown`.

def _refuse(self, name, *value):
    raise FrozenInstanceError(f"cannot assign to or delete {name!r}")


def _eq(self, other):
    if type(other) is not type(self):
        return NotImplemented
    return self._compared(self) == other._compared(other)


def _hash(self):
    return hash(self._compared(self))


def _repr(self):
    return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._shown)})"


def _reduce(self):  # a copy is rebuilt by __init__, with an empty memo and the same kept span
    return type(self), tuple([getattr(self, f) for f in self._reduced])


def _sealed(cls):
    """cls as a dataclass with slots that generates no method: it gets the shared
    ones above, and an __init__ that writes each slot by its descriptor, not by
    object.__setattr__; a slot that is no field starts as None. Setting or
    deleting any name raises FrozenInstanceError. A class with no docstring
    gets a short one, which dataclass would make by inspect.signature.
    A span slot may hold the plain token tuple the parser read the node from,
    which no collection tracks once it has seen it; reading `span` places the
    token and makes the SourceSpan, so a span is built only where it is read.
    `kept_span` reads the slot as it is, to give a new node, or a copy, the
    same span."""
    if cls.__doc__ is None:
        cls.__doc__ = f"{cls.__name__}({', '.join(cls.__annotations__)})"
    sealed = dataclass(init=False, repr=False, eq=False, slots=True)(cls)
    sealed.__setattr__ = sealed.__delattr__ = _refuse
    sealed.__eq__, sealed.__hash__, sealed.__repr__, sealed.__reduce__ = _eq, _hash, _repr, _reduce
    if cls.__base__ is Term:  # a base of Term's layout, so Term.__subclasses__() lists sealed
        cls.__bases__ = (type("Replaced", (), {"__slots__": Term.__slots__}),)
    fs = fields(sealed)
    sealed._compared = attrgetter(*[f.name for f in fs if f.compare])
    sealed._shown = tuple(f.name for f in fs if f.repr)
    sealed._reduced = tuple("kept_span" if f == "span" else f for f in sealed.__match_args__)
    params = [f.name for f in fs]
    slots = [*params, *getattr(sealed.__base__, "__slots__", ())]
    setters = {f"set_{s}": getattr(sealed, s).__set__ for s in slots}
    writes = "".join(f"\n set_{s}(self, {s if s in params else None})" for s in slots)
    exec(f"def __init__(self, {', '.join(params)}):{writes}", setters)
    setters["__init__"].__defaults__ = tuple(f.default for f in fs if f.default is not MISSING)
    sealed.__init__ = setters["__init__"]
    if "span" in params:
        sealed.kept_span = sealed.span  # the slot's own descriptor, under a second name
        slot = sealed.span.__get__

        def span(self) -> SourceSpan | None:
            kept = slot(self)
            return _token_span(kept) if type(kept) is tuple else kept
        sealed.span = property(span)
    return sealed


def _span_field():
    return field(default=None, compare=False, repr=False)


@_sealed
class Var(Term):
    name: Name
    span: SourceSpan | None = _span_field()


@_sealed
class Universe(Term):
    level: int
    span: SourceSpan | None = _span_field()


@_sealed
class Lam(Term):
    binder: Name
    domain: Term
    body: Term
    span: SourceSpan | None = _span_field()


@_sealed
class Pi(Term):
    binder: Name
    domain: Term
    body: Term
    span: SourceSpan | None = _span_field()


@_sealed
class App(Term):
    fn: Term
    arg: Term
    span: SourceSpan | None = _span_field()


@_sealed
class Ind(Term):
    """An inductive definition. The name is in scope inside the constructor
    types (self-reference) but not inside the arity."""

    name: Name
    arity: Term
    constructors: tuple[tuple[Name, Term], ...]
    span: SourceSpan | None = _span_field()


@_sealed
class Constr(Term):
    """The index-th constructor (1-based) of an inductive definition."""

    index: int
    inductive: Term
    span: SourceSpan | None = _span_field()


@_sealed
class Match(Term):
    carrier: Term
    scrutinee: Term
    branches: tuple[tuple[Name, Term], ...]
    span: SourceSpan | None = _span_field()


@_sealed
class Fix(Term):
    """A recursive function; dec_index is the 0-based position of the
    structurally decreasing argument."""

    name: Name
    dec_index: int
    signature: Term
    body: Term
    span: SourceSpan | None = _span_field()


# ---------------------------------------------------------------------------
# Spines and telescopes
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


def telescope(t: Term, kind: type = Pi) -> tuple[list[tuple[Name, Term]], Term]:
    """The leading binders of a chain of kind (Π or λ) nodes, as (binder,
    domain) pairs, and the term that ends the chain."""
    binders = []
    while type(t) is kind:
        binders.append((t.binder, t.domain))
        t = t.body
    return binders, t


# ---------------------------------------------------------------------------
# Binding structure
# ---------------------------------------------------------------------------

BINDER, OUTSIDE, INSIDE, DATA = "binder", "outside", "inside", "data"

# Each compound node's fields but the span, in field order, with their roles:
# the name the node binds, a subterm outside or inside that binder's scope, or
# data. In a tuple of (name, term) pairs the names are data. The binder
# precedes its scope, so substitution can handle the fields in this order.
BINDING: dict[type, tuple[tuple[str, str], ...]] = {
    App: (("fn", OUTSIDE), ("arg", OUTSIDE)),
    Lam: (("binder", BINDER), ("domain", OUTSIDE), ("body", INSIDE)),
    Pi: (("binder", BINDER), ("domain", OUTSIDE), ("body", INSIDE)),
    Ind: (("name", BINDER), ("arity", OUTSIDE), ("constructors", INSIDE)),
    Constr: (("index", DATA), ("inductive", OUTSIDE)),
    Match: (("carrier", OUTSIDE), ("scrutinee", OUTSIDE), ("branches", OUTSIDE)),
    Fix: (("name", BINDER), ("dec_index", DATA), ("signature", OUTSIDE), ("body", INSIDE)),
}


def _shape(kind: type):
    """kind's roles in field order, and a getter of its field values in that order."""
    names, roles = zip(*BINDING[kind])
    return roles, attrgetter(*names)


_SHAPES = {kind: _shape(kind) for kind in BINDING}


def children(t: Term, roles=(OUTSIDE, INSIDE)) -> list[Term]:
    """The subterms of t in fields of the given roles, in field order."""
    subterms: list[Term] = []
    if type(t) in _SHAPES:  # a variable or universe has none
        kinds, values = _SHAPES[type(t)]
        for role, value in zip(kinds, values(t)):
            if role in roles:
                if type(value) is tuple:
                    subterms.extend([sub for _, sub in value])
                else:
                    subterms.append(value)
    return subterms


# ---------------------------------------------------------------------------
# Free variables
# ---------------------------------------------------------------------------

_set_free_vars = Term._free_vars.__set__  # a frozen node refuses setattr


def free_vars(t: Term) -> frozenset[Name]:
    """The free names of t, computed once per node and kept on it. Two loops
    and no call that recurses: the first lists the nodes below t with no set
    yet, each before its children in any position, and the second makes
    their sets in the reverse order, each after its children's."""
    if (fv := t._free_vars) is not None:
        return fv
    order, work = [], [t]
    while work:
        t = work.pop()
        order.append(t)
        kind = type(t)
        for sub in ((t.fn, t.arg) if kind is App else (t.domain, t.body)
                    if kind is Lam or kind is Pi else children(t)):
            if sub._free_vars is None:
                if type(sub) is Var:  # a leaf's set is made here, with no visit
                    _set_free_vars(sub, frozenset((sub.name,)))
                else:
                    work.append(sub)
    for t in reversed(order):
        kind = type(t)
        if kind is App:
            fv = t.fn._free_vars | t.arg._free_vars
        elif kind is Lam or kind is Pi:
            fv = t.domain._free_vars | t.body._free_vars.difference((t.binder,))
        elif kind is Var or kind is Universe:  # t itself, as a leaf below it is set above
            fv = frozenset((t.name,)) if kind is Var else frozenset()
        else:  # an inductive, constructor, match or fixpoint, by the binding table
            roles, values = _SHAPES[kind]
            bound = [value for role, value in zip(roles, values(t)) if role is BINDER]
            fv = frozenset().union(*map(free_vars, children(t, (OUTSIDE,))), frozenset().union(
                *map(free_vars, children(t, (INSIDE,)))).difference(bound))
        _set_free_vars(t, fv)
    return fv


def occurs_free(x: Name, t: Term) -> bool:
    """Whether x is free in t, as `x in free_vars(t)` says, but in one loop
    that stops at the first occurrence, reads free_vars' memo where a node
    has one and fills none; a binder of x hides its scope. A variable, an
    application, a λ and a Π are read inline; other nodes by the binding table."""
    work = [t]
    while work:
        t = work.pop()
        if (fv := t._free_vars) is not None:
            if x in fv:
                return True
            continue
        kind = type(t)
        if kind is Var:
            if t.name == x:
                return True
        elif kind is App:
            work.append(t.fn)
            work.append(t.arg)
        elif kind is Lam or kind is Pi:
            work.append(t.domain)
            if t.binder != x:
                work.append(t.body)
        elif kind is not Universe:
            roles, values = _SHAPES[kind]
            hidden = False
            for role, value in zip(roles, values(t)):
                if role is BINDER:
                    hidden = value == x
                elif role is DATA or hidden and role is INSIDE:
                    continue
                elif type(value) is tuple:
                    work.extend([sub for _, sub in value])
                else:
                    work.append(value)
    return False


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def subst(x: Name, s: Term, t: Term) -> Term:
    """Capture-avoiding [x := s] t."""
    return _subst_all({x: s}, t)


def _subst_all(sigma: dict[Name, Term], t: Term) -> Term:
    """Simultaneous capture-avoiding substitution. A subterm in which no
    name of sigma is free comes back as the same object, span included.
    One loop over a stack of tasks, each a substitution into a subterm or a
    node to rebuild from the last results, so no call recurses."""
    work, done = [(sigma, t)], []
    while work:
        sigma, t = work.pop()
        if type(sigma) is not dict:  # rebuild a node of kind sigma from t and the last results
            if sigma is App or sigma is Lam or sigma is Pi:  # t is None or the binder
                last = done.pop()
                done[-1] = App(done[-1], last) if sigma is App else sigma(t, done[-1], last)
            else:  # t is the binding table's fields; a subterm is the next result
                fields, n = t
                results = iter(done[-n:])
                del done[-n:]
                done.append(sigma(*[value if role is BINDER or role is DATA else tuple(
                    [(x, next(results)) for x, _ in value]) if type(value) is tuple
                    else next(results) for role, value in fields]))
        elif (t._free_vars or free_vars(t)).isdisjoint(sigma):
            done.append(t)
        elif (kind := type(t)) is Var:
            done.append(sigma[t.name])
        elif kind is App:
            work += (App, None), (sigma, t.arg), (sigma, t.fn)
        elif kind is Lam or kind is Pi:
            binder, inner = _under_binder(sigma, t.binder, [t.body])
            work += (kind, binder), (inner, t.body), (sigma, t.domain)
        else:  # by the binding table; a field of (name, term) pairs is rebuilt pair by pair
            roles, values = _SHAPES[kind]
            fields, subs = [], []
            for role, value in zip(roles, values(t)):
                if role is BINDER:
                    value, inner = _under_binder(sigma, value, children(t, (INSIDE,)))
                elif role is not DATA:
                    scope = sigma if role is OUTSIDE else inner
                    subs.extend([(scope, sub) for _, sub in value] if type(value) is tuple
                                else [(scope, value)])
                fields.append((role, value))
            work.append((kind, (fields, len(subs))))
            work.extend(reversed(subs))
    return done[0]


def _under_binder(sigma: dict[Name, Term], binder: Name, scope: list[Term]):
    """The binder and substitution to use in its scope: drop the names it
    shadows or the scope does not mention, and rename the binder, to a name
    free in neither, when it would capture a free variable of a replacement."""
    used = frozenset().union(*map(free_vars, scope))
    inner = {x: s for x, s in sigma.items() if x != binder and x in used}
    if any(binder in free_vars(s) for s in inner.values()):
        renamed = fresh_name(binder, used.union(*map(free_vars, inner.values())))
        inner[binder] = Var(renamed)
        binder = renamed
    return binder, inner


# ---------------------------------------------------------------------------
# Alpha equivalence
# ---------------------------------------------------------------------------

def alpha_eq(a: Term, b: Term) -> bool:
    """Whether a and b differ only in the names of their binders. One loop
    over a stack of pairs, so it takes no Python frame per level; each name
    has a stack of the depths of the binders in scope that bind it, pushed
    and popped, so the time and memory are linear in the terms' size."""
    bound_a: dict[Name, list[int]] = {}
    bound_b: dict[Name, list[int]] = {}
    # binder pairs in scope whose two names differ; while there are none, both
    # sides bind the same names at the same depths, so one object is equal to itself
    skew = 0
    # pairs of terms at a depth; a pair of names enters a binder pair at a depth,
    # or leaves it (depth None)
    work = [(a, b, 0)]
    while work:
        a, b, depth = work.pop()
        kind = type(a)
        if kind is Name:
            if depth is None:
                bound_a[a].pop()
                bound_b[b].pop()
            else:
                bound_a.setdefault(a, []).append(depth)
                bound_b.setdefault(b, []).append(depth)
            if a != b:
                skew += 1 if depth is not None else -1
            continue
        if a is b and not skew:
            continue
        if kind is not type(b):
            return False
        if kind is Var:  # bound by binders at the same depth, or free and the same name
            da, db = bound_a.get(a.name), bound_b.get(b.name)
            da, db = da[-1] if da else None, db[-1] if db else None
            if da != db or da is None and a.name != b.name:
                return False
        elif kind is Universe:
            if a.level != b.level:
                return False
        else:
            roles, values = _SHAPES[kind]
            outside, inside, binders = [], [], None
            for role, u, v in zip(roles, values(a), values(b)):
                if role is BINDER:
                    binders = (u, v)
                elif role is DATA:
                    if u != v:
                        return False
                else:
                    pairs = outside if role is OUTSIDE else inside
                    if type(u) is not tuple:
                        pairs.append((u, v))
                    elif len(u) != len(v):
                        return False
                    else:
                        for (x, s), (y, w) in zip(u, v):
                            if x != y:  # constructor and branch names are data
                                return False
                            pairs.append((s, w))
            if binders is not None:
                x, y = binders
                work.append((x, y, None))
                work.extend((s, w, depth + 1) for s, w in reversed(inside))
                work.append((x, y, depth))
            work.extend((s, w, depth) for s, w in reversed(outside))
    return True


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------

def pretty(t: Term) -> str:
    """t as text, in one loop and no call per level. The term in hand is
    printed down its λ and Π bodies and its spines' last arguments; what is
    left to print after it waits on a stack as a term, as text, or as a count
    of closing parentheses. A binder, a variable domain, a spine of variables
    before its last argument and a variable leaf are written inline: a name
    from source text is its text."""
    if type(t) is Var:  # the commonest type, and a leaf
        t = t.name
        return t.text if t.fresh_tag == 0 else str(t)
    out, todo = [], []
    while True:
        kind = type(t)
        if kind is App:
            if todo and type(todo[-1]) is int:  # its ")" goes just before the one waiting
                todo[-1] += 1
            else:
                todo.append(1)
            if type(t.fn) is Var:  # one argument, after a variable
                x = t.fn.name
                out.append(f"({x.text if x.fresh_tag == 0 else x} ")
                t = t.arg
                continue
            head, args = spine(t)
            t = args.pop()
            if type(head) is Var and all([type(a) is Var for a in args]):
                out.append(f"({' '.join([str(a.name) for a in (head, *args)])} ")
            else:  # the head in hand, and the arguments waiting in turn
                out.append("(")
                todo.append(t)
                for a in reversed(args):
                    todo += " ", a
                todo.append(" ")
                t = head
        elif kind is Lam or kind is Pi:
            x, domain = t.binder, t.domain
            if type(domain) is Var:
                domain = domain.name
                domain = domain.text if domain.fresh_tag == 0 else str(domain)
                if kind is Pi and x.fresh_tag != 0 and x not in free_vars(t.body):
                    out.append(f"{domain} -> ")
                else:
                    x = x.text if x.fresh_tag == 0 else str(x)
                    out.append(f"{'λ' if kind is Lam else 'Π'}{x}:{domain}.")
                t = t.body
            else:  # the domain in hand, parenthesized where it would not reparse
                arrow = kind is Pi and x.fresh_tag != 0 and x not in free_vars(t.body)
                wrap = type(domain) in (Lam, Pi, Match, Fix)
                out.append(("" if arrow else f"{'λ' if kind is Lam else 'Π'}{x}:") + "(" * wrap)
                todo += t.body, ")" * wrap + (" -> " if arrow else ".")
                t = domain
        elif kind is Match:
            out.append("<")
            todo.append(" }")
            for i in reversed(range(len(t.branches))):
                n, e = t.branches[i]
                todo += e, f"{'; ' if i else ''}{n} => "
            todo += " with { ", t.scrutinee, "> match "
            t = t.carrier
        elif kind is Fix:
            out.append(f"(fix {t.name}[{t.dec_index}] : ")
            todo += 1, t.body, ". "
            t = t.signature
        elif kind is Constr and not (type(ind := t.inductive) is Ind
                                     and 1 <= t.index <= len(ind.constructors)):
            out.append(f"Constr({t.index},")
            todo.append(1)
            t = ind
        else:  # a leaf: then what waits, up to the next term
            if kind is Var:
                t = t.name
                t = t.text if t.fresh_tag == 0 else str(t)
            else:
                t = _leaf(t)
            if not todo:
                return "".join(out) + t if out else t
            out.append(t)
            while todo:
                t = todo.pop()
                if type(t) is str:
                    out.append(t)
                elif type(t) is int:
                    out.append(")" * t)
                else:
                    break
            else:
                return "".join(out)


def _leaf(t: Term) -> str:
    match t:
        case Ind(name=n):
            return str(n)
        case Universe(level=0):
            return "Set"
        case Universe(level=i):
            return f"(Type {i})"
        case Constr(index=i, inductive=ind):  # a constructor pretty names
            return str(ind.constructors[i - 1][0])
    raise TypeError(f"not a term: {t!r}")
