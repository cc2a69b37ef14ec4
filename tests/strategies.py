"""Hypothesis generators for kernel terms shared across the test modules.

Binders are drawn from the same small pool as variables, so generated
terms exercise shadowing and capture in substitution and alpha tests.
"""
from __future__ import annotations

import hypothesis.strategies as st

from pielang import App, Constr, Fix, Ind, Lam, Match, Name, Pi, Universe, Var

NAME_POOL = tuple(Name(s) for s in ("a", "b", "c", "x", "y"))

names = st.sampled_from(NAME_POOL)
ctor_labels = st.sampled_from((Name("C1"), Name("C2")))


def _single_branch_match(children):
    return st.builds(
        lambda c, s, cn, b: Match(c, s, ((cn, b),)),
        children, children, ctor_labels, children,
    )


def _compound(children, match=_single_branch_match):
    return st.one_of(
        st.builds(App, children, children),
        st.builds(Lam, names, children, children),
        st.builds(Pi, names, children, children),
        st.builds(
            lambda n, k, s, b: Fix(n, k, s, b),
            names, st.integers(min_value=0, max_value=1), children, children,
        ),
        st.builds(
            lambda n, a, cn, ct: Ind(n, a, ((cn, ct),)),
            names, children, ctor_labels, children,
        ),
        st.builds(lambda i: Constr(1, i), children),
        match(children),
    )


universes = st.integers(min_value=0, max_value=3).map(Universe)

terms = st.recursive(
    st.one_of(names.map(Var), universes),
    _compound,
    max_leaves=12,
)


def _nat_match(children):
    """A match with one branch per constructor of Nat, so that reducing it
    on Zero or on Succ always finds its branch."""
    return st.builds(
        lambda c, s, z, n: Match(c, s, ((Name("Zero"), z), (Name("Succ"), n))),
        children, children, children, children,
    )


# terms that also mention the definitions of add.pie
ADD_NAMES = tuple(Name(s) for s in ("Zero", "Succ", "add", "two", "four"))

add_terms = st.recursive(
    st.one_of(st.sampled_from(NAME_POOL + ADD_NAMES).map(Var), universes),
    lambda children: _compound(children, _nat_match),
    max_leaves=12,
)

# recursion bodies for guard-predicate properties: calls to F mixed with
# matches that deconstruct variables from a small pool
F = Name("f")
XK = Name("n")
GUARD_POOL = (Name("n"), Name("m"), Name("p"))


def deconstruct(var: Name, branch_body) -> Match:
    """Match var with a single branch binding m."""
    return Match(
        Universe(0),
        Var(var),
        ((Name("C"), Lam(Name("m"), Universe(0), branch_body)),),
    )


recursion_bodies = st.recursive(
    st.one_of(
        st.sampled_from(GUARD_POOL).map(Var),
        st.sampled_from(GUARD_POOL).map(lambda v: App(Var(F), Var(v))),
    ),
    lambda sub: st.one_of(
        st.builds(App, sub, sub),
        st.builds(deconstruct, st.sampled_from(GUARD_POOL), sub),
        st.builds(Lam, st.sampled_from(GUARD_POOL), st.just(Universe(0)), sub),
    ),
    max_leaves=8,
)

# the pure binder fragment, enough for most properties and faster to shrink
lambda_terms = st.recursive(
    st.one_of(names.map(Var), universes),
    lambda children: st.one_of(
        st.builds(App, children, children),
        st.builds(Lam, names, children, children),
        st.builds(Pi, names, children, children),
    ),
    max_leaves=12,
)
