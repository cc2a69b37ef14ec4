"""Differential test of the printer: `pretty` writes every term as
`reference_printer` writes it, arrow binders, constructors, matches and
fixpoints included. `pretty` reads sets of free names, so this also runs
under several hash seeds."""
from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_printer as reference
from pielang.syntax import App, Constr, Fix, Ind, Lam, Match, Name, Pi, Universe, Var, pretty, subst
from strategies import terms

A, X = Name("a"), Name("x")


def tag_binders(t, tags):
    """t with each Π binder outside a match, fixpoint or inductive whose draw
    from tags is positive renamed, in its body too, to its text with that tag:
    such a binder prints as a Π if its body uses it, else as an arrow."""
    if isinstance(t, Pi):
        binder, domain, body = t.binder, tag_binders(t.domain, tags), tag_binders(t.body, tags)
        if (tag := next(tags)) > 0:
            binder = Name(binder.text, tag)
            body = subst(t.binder, Var(binder), body)
        return Pi(binder, domain, body)
    if isinstance(t, Lam):
        return Lam(t.binder, tag_binders(t.domain, tags), tag_binders(t.body, tags))
    if isinstance(t, App):
        return App(tag_binders(t.fn, tags), tag_binders(t.arg, tags))
    return t


# a term of at most 12 leaves has fewer than 64 Π nodes
tagged_terms = st.builds(lambda t, tags: tag_binders(t, iter(tags)), terms,
                         st.lists(st.integers(0, 3), min_size=64, max_size=64))

IND = Ind(Name("N"), Universe(0), ((Name("Z"), Var(Name("N"))),))


@given(tagged_terms)
@settings(max_examples=500, deadline=None)
@example(Pi(Name("x", 1), Var(A), Pi(Name("x", 2), Var(Name("x", 1)), Var(Name("x", 2)))))
@example(Pi(Name("x", 1), Pi(Name("x", 2), Var(A), Var(A)), App(Var(X), Var(Name("x", 1)))))
@example(Lam(X, Match(Var(A), Var(X), ((Name("Z"), Var(A)),)), Constr(1, IND)))
@example(Pi(X, Fix(A, 0, Var(A), Var(A)), App(Constr(2, Var(A)), Fix(X, 1, Var(A), Var(X)))))
@example(App(App(Lam(X, Var(A), Var(X)), Universe(2)), Pi(Name("b", 3), Universe(0), Var(A))))
@example(App(Constr(1, IND), App(App(Constr(1, IND), Ind(A, Universe(1), ())), App(Universe(0), Var(X)))))
@example(App(Constr(2, IND), App(Constr(1, Var(A)), Constr(0, IND))))  # constructors IND lacks
def test_pretty_prints_as_the_reference_printer_does(t):
    assert pretty(t) == reference.pretty(t)
