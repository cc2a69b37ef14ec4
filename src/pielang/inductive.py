"""Typing of inductive definitions, constructors and dependent case matches."""
from __future__ import annotations

from .context import Context
from .diagnostics import Diagnostic, fail
from .normalize import normalise
from .syntax import (
    App,
    Constr,
    Ind,
    Match,
    Name,
    Pi,
    Term,
    Universe,
    Var,
    apply_spine,
    free_vars,
    fresh_name,
    spine,
    subst,
    telescope,
)
from .typecheck import check, ensure_equal, ensure_universe, enter, type_check


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


def check_ind(ctxt: Context, ind: Ind) -> list[Diagnostic]:
    """Rule T-Ind: ind is well formed, so its arity is its type. Returns
    the positivity warnings of its constructors."""
    upsilon(ind.arity)
    ensure_universe(ctxt, ind.arity, "T-Ind", "inductive arity is not a type")
    params = param_count(ind.arity)
    inner, name, *ctypes = enter(ctxt, ind.name, ind.arity, *(c for _, c in ind.constructors))
    warnings: list[Diagnostic] = []
    for ctype in ctypes:
        ensure_universe(inner, ctype, "T-Ind", "constructor type does not live in a universe")
        warnings.extend(positive_check(ctype, name, params))
    return warnings


def register_inductive(ctxt: Context, decl) -> tuple[Context, list[Diagnostic]]:
    """Check a source-level inductive declaration and bind the type name and
    every constructor name in the returned context."""
    node = Ind(decl.name, decl.arity, tuple(decl.constructors), decl.kept_span)
    warnings = check_ind(ctxt, node)
    ctxt = ctxt.declare(decl.name, decl.arity, node)
    for i, (cname, ctype) in enumerate(node.constructors, start=1):
        ctxt = ctxt.declare(cname, subst(decl.name, node, ctype), Constr(i, node))
    return ctxt, warnings


def check_constr(ctxt: Context, c: Constr) -> Term:
    ind = c.inductive
    if not isinstance(ind, Ind):
        fail("T-Constr", "constructor of a non-inductive term", c.span, actual=ind)
    n = len(ind.constructors)
    if not 1 <= c.index <= n:
        fail("T-Constr", f"constructor index {c.index} out of bounds (1..{n})", c.span)
    check_ind(ctxt, ind)
    return subst(ind.name, ind, ind.constructors[c.index - 1][1])


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


def check_match(ctxt: Context, m: Match) -> Term:
    st = normalise(type_check(ctxt, m.scrutinee), ctxt)
    head, args = spine(st)
    if not isinstance(head, Ind):
        fail("T-Match", "scrutinee is not of an inductive type", m.span, actual=st)
    params = param_count(head.arity)
    if len(args) != params:
        fail("T-Match", "scrutinee type does not fully apply the inductive", m.span, actual=st)

    carrier_type = normalise(type_check(ctxt, m.carrier), ctxt)
    level = _carrier_level(carrier_type, params, m)
    expected_carrier = _expected_carrier_type(head, level)
    ensure_equal(ctxt, carrier_type, expected_carrier, "T-Match", "carrier has the wrong type", m)

    ctors = head.constructors
    if len(m.branches) != len(ctors):
        fail(
            "T-Match",
            f"match has {len(m.branches)} branches, {head.name} has {len(ctors)} constructors",
            m.span,
        )
    for i, ((bname, body), (cname, ctype)) in enumerate(zip(m.branches, ctors), start=1):
        if bname != cname:
            fail(
                "T-Match",
                f"branch {i} is {bname}, expected {cname} "
                "(branches must follow the declaration order)",
                m.span,
            )
        closed = subst(head.name, head, ctype)
        expected = case_type(closed, m.carrier, Constr(i, head))
        check(ctxt, body, expected, "T-Match", f"branch {bname} has the wrong type", m)
    return normalise(App(apply_spine(m.carrier, args), m.scrutinee), ctxt)


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
