"""A reference printer for differential tests of `pielang.syntax.pretty`.

It prints the notation that `pretty` documents, the plain way: one Python
call per node, with its own free-name walk and no fast path for a binder,
a variable or a chain, so it only serves shallow terms. It shares the term
classes with `pielang`, not its code.
"""
from __future__ import annotations

from pielang.syntax import App, Constr, Fix, Ind, Lam, Match, Pi, Universe, Var


def free_names(t) -> set:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Universe):
        return set()
    if isinstance(t, (Lam, Pi)):
        return free_names(t.domain) | (free_names(t.body) - {t.binder})
    if isinstance(t, App):
        return free_names(t.fn) | free_names(t.arg)
    if isinstance(t, Ind):
        inside = set().union(*(free_names(c) for _, c in t.constructors))
        return free_names(t.arity) | (inside - {t.name})
    if isinstance(t, Constr):
        return free_names(t.inductive)
    if isinstance(t, Match):
        branches = set().union(*(free_names(b) for _, b in t.branches))
        return free_names(t.carrier) | free_names(t.scrutinee) | branches
    if isinstance(t, Fix):
        return free_names(t.signature) | (free_names(t.body) - {t.name})
    raise TypeError(f"not a term: {t!r}")


def pretty(t) -> str:
    if isinstance(t, (Var, Ind)):
        return str(t.name)
    if isinstance(t, Universe):
        return "Set" if t.level == 0 else f"(Type {t.level})"
    if isinstance(t, Lam):
        return f"λ{t.binder}:{atom(t.domain)}.{pretty(t.body)}"
    if isinstance(t, Pi):
        # an arrow is a Π whose binder no source name spells and its body does not use
        if t.binder.fresh_tag != 0 and t.binder not in free_names(t.body):
            return f"{atom(t.domain)} -> {pretty(t.body)}"
        return f"Π{t.binder}:{atom(t.domain)}.{pretty(t.body)}"
    if isinstance(t, App):
        args = []
        while isinstance(t, App):
            args.insert(0, t.arg)
            t = t.fn
        return "(" + " ".join(pretty(u) for u in (t, *args)) + ")"
    if isinstance(t, Constr):
        if isinstance(t.inductive, Ind) and 1 <= t.index <= len(t.inductive.constructors):
            return str(t.inductive.constructors[t.index - 1][0])
        return f"Constr({t.index},{pretty(t.inductive)})"
    if isinstance(t, Match):
        body = "; ".join(f"{n} => {pretty(e)}" for n, e in t.branches)
        return f"<{pretty(t.carrier)}> match {pretty(t.scrutinee)} with {{ {body} }}"
    if isinstance(t, Fix):
        return f"(fix {t.name}[{t.dec_index}] : {pretty(t.signature)}. {pretty(t.body)})"
    raise TypeError(f"not a term: {t!r}")


def atom(t) -> str:
    """A binder's domain, in parentheses where it would not reparse bare."""
    if isinstance(t, (Lam, Pi, Match, Fix)):
        return f"({pretty(t)})"
    return pretty(t)
