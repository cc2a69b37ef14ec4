"""The shapes that the rules for inductive definitions, constructors and
dependent case matches check terms against: the terminal universe and the
parameters of an arity, the allowed shapes of a constructor type, the type a
match branch is checked against, and the type a match carrier must have.
Nothing here types a term; the rules are in `typecheck`."""
from __future__ import annotations

from .diagnostics import Diagnostic, fail
from .syntax import (App, Ind, Match, Name, Pi, Term, Universe, Var, apply_spine, free_vars,
                     fresh_name, spine, subst, telescope)


def upsilon(t: Term) -> Universe:
    """Terminal universe of a chain of Pi binders."""
    _, t = telescope(t)
    if not isinstance(t, Universe):
        fail("T-Ind", "arity does not end in a universe", actual=t)
    return t


def param_count(arity: Term) -> int:
    return len(telescope(arity)[0])


def positive_check(ctor_type: Term, ind_name: Name, params: int) -> list[Diagnostic]:
    """Accept exactly the allowed constructor shapes: a chain of binders
    ending in a saturated application of the inductive. Dependent binder
    domains must not mention the inductive; plain arrow domains may, but a
    left-of-arrow occurrence is flagged with a warning."""
    warnings: list[Diagnostic] = []
    t = ctor_type
    while isinstance(t, Pi) and t.binder != ind_name:  # a binder so named hides it
        dependent = t.binder in free_vars(t.body)
        if ind_name in free_vars(t.domain):
            if dependent:
                fail(
                    "T-Ind",
                    f"{ind_name} occurs in the domain of dependent binder {t.binder}",
                )
            if _occurs_left_of_arrow(ind_name, t.domain):
                warnings.append(
                    Diagnostic(
                        "T-Ind",
                        f"{ind_name} occurs negatively in a constructor argument",
                        severity="warning",
                    )
                )
        t = t.body
    head, args = spine(t)
    if not (isinstance(head, Var) and head.name == ind_name):
        fail("T-Ind", f"constructor does not end in an application of {ind_name}", actual=t)
    for a in args:
        if ind_name in free_vars(a):
            fail("T-Ind", f"{ind_name} occurs in an argument of the constructor target")
    if len(args) != params:
        fail(
            "T-Ind",
            f"constructor target applies {ind_name} to {len(args)} arguments, "
            f"its arity takes {params}",
        )
    return warnings


def case_type(ctor_type: Term, carrier: Term, ctor_term: Term) -> Term:
    """Expected type of a branch: rebind the constructor's arguments, then
    apply the carrier to the target's indices and the constructed value.
    The arguments are named apart from each other and from the carrier's
    free names, which they would otherwise capture."""
    binders, target = _apart(ctor_type, free_vars(carrier))
    value = apply_spine(ctor_term, [Var(x) for x, _ in binders])
    result: Term = App(apply_spine(carrier, spine(target)[1]), value)
    for x, domain in reversed(binders):
        result = Pi(x, domain, result)
    return result


def _carrier_level(carrier_type: Term, params: int, m: Match) -> int:
    binders, t = telescope(carrier_type)
    if len(binders) <= params:
        fail("T-Match", "carrier is not a type family over the inductive",
             m.span, actual=carrier_type)
    if len(binders) > params + 1 or not isinstance(t, Universe):
        fail("T-Match", "carrier does not return a universe", m.span, actual=carrier_type)
    return t.level


def _expected_carrier_type(ind: Ind, level: int) -> Term:
    binders, _ = _apart(ind.arity)
    target = apply_spine(ind, [Var(b) for b, _ in binders])
    result: Term = Pi(fresh_name(Name("m"), free_vars(target)), target, Universe(level))
    for b, dom in reversed(binders):
        result = Pi(b, dom, result)
    return result


def _apart(t: Term, avoid=frozenset()) -> tuple[list[tuple[Name, Term]], Term]:
    """telescope(t), with each binder renamed apart from avoid and from the
    binders before it, so that a term applied to all of them captures nothing."""
    binders, taken = [], set(avoid)
    while type(t) is Pi:
        x, body = t.binder, t.body
        if x in taken:
            renamed = fresh_name(x, taken, free_vars(body))
            x, body = renamed, subst(x, Var(renamed), body)
        taken.add(x)
        binders.append((x, t.domain))
        t = body
    return binders, t


def _occurs_left_of_arrow(name: Name, t: Term) -> bool:
    """Whether name is free in a domain of a Π in t, looking through Π bodies
    (until a binder hides name) and both sides of applications; one loop."""
    work = [t]
    while work:
        t = work.pop()
        if type(t) is Pi:
            if name in free_vars(t.domain):
                return True
            if t.binder != name:
                work.append(t.body)
        elif type(t) is App:
            work += t.arg, t.fn
    return False
