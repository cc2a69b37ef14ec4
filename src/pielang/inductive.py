"""Typing of inductive definitions, constructors and dependent case matches."""
from __future__ import annotations

from .context import Context
from .normalize import check_equal, normalise
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
)
from .typecheck import Diagnostic, ensure_universe, fail, type_check


def upsilon(t: Term) -> Universe:
    """Terminal universe of a chain of Pi binders."""
    while isinstance(t, Pi):
        t = t.body
    if not isinstance(t, Universe):
        fail("T-Ind", "arity does not end in a universe", actual=t)
    return t


def param_count(arity: Term) -> int:
    n = 0
    while isinstance(arity, Pi):
        n += 1
        arity = arity.body
    return n


def positive_check(ctor_type: Term, ind_name: Name, params: int) -> list[Diagnostic]:
    """Accept exactly the allowed constructor shapes: a chain of binders
    ending in a saturated application of the inductive. Dependent binder
    domains must not mention the inductive; plain arrow domains may, but a
    left-of-arrow occurrence is flagged with a warning."""
    warnings: list[Diagnostic] = []
    t = ctor_type
    while isinstance(t, Pi):
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


def check_ind(ctxt: Context, ind: Ind) -> Term:
    _check_ind(ctxt, ind)
    return ind.arity


def _check_ind(ctxt: Context, ind: Ind) -> list[Diagnostic]:
    upsilon(ind.arity)
    ensure_universe(ctxt, ind.arity, "T-Ind", "inductive arity is not a type")
    params = param_count(ind.arity)
    inner = ctxt.extend_type(ind.name, ind.arity)
    warnings: list[Diagnostic] = []
    for _, ctype in ind.constructors:
        tt = normalise(type_check(inner, ctype), inner)
        if not isinstance(tt, Universe):
            fail("T-Ind", "constructor type does not live in a universe", actual=tt)
        warnings.extend(positive_check(ctype, ind.name, params))
    return warnings


def register_inductive(ctxt: Context, decl) -> tuple[Context, list[Diagnostic]]:
    """Check a source-level inductive declaration and bind the type name and
    every constructor name in the returned context."""
    node = Ind(decl.name, decl.arity, tuple(decl.constructors), span=decl.span)
    warnings = _check_ind(ctxt, node)
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
    apply the carrier to the target's indices and the constructed value."""
    if isinstance(ctor_type, Pi):
        return Pi(
            ctor_type.binder,
            ctor_type.domain,
            case_type(ctor_type.body, carrier, App(ctor_term, Var(ctor_type.binder))),
        )
    _, args = spine(ctor_type)
    return App(apply_spine(carrier, args), ctor_term)


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
    if not check_equal(carrier_type, expected_carrier, ctxt):
        fail(
            "T-Match",
            "carrier has the wrong type",
            m.span,
            expected=expected_carrier,
            actual=carrier_type,
        )

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
        actual = type_check(ctxt, body)
        if not check_equal(actual, expected, ctxt):
            fail(
                "T-Match",
                f"branch {bname} has the wrong type",
                m.span,
                expected=normalise(expected, ctxt),
                actual=normalise(actual, ctxt),
            )
    return normalise(App(apply_spine(m.carrier, args), m.scrutinee), ctxt)


def _carrier_level(carrier_type: Term, params: int, m: Match) -> int:
    t = carrier_type
    for _ in range(params + 1):
        if not isinstance(t, Pi):
            fail("T-Match", "carrier is not a type family over the inductive",
                 m.span, actual=carrier_type)
        t = t.body
    if not isinstance(t, Universe):
        fail("T-Match", "carrier does not return a universe", m.span, actual=carrier_type)
    return t.level


def _expected_carrier_type(ind: Ind, level: int) -> Term:
    binders: list[tuple[Name, Term]] = []
    arity = ind.arity
    while isinstance(arity, Pi):
        binders.append((arity.binder, arity.domain))
        arity = arity.body
    target = apply_spine(ind, [Var(b) for b, _ in binders])
    result: Term = Pi(fresh_name("m"), target, Universe(level))
    for b, dom in reversed(binders):
        result = Pi(b, dom, result)
    return result


def _occurs_left_of_arrow(name: Name, t: Term) -> bool:
    match t:
        case Pi(domain=d, body=b):
            return name in free_vars(d) or _occurs_left_of_arrow(name, b)
        case App(fn=f, arg=a):
            return _occurs_left_of_arrow(name, f) or _occurs_left_of_arrow(name, a)
        case _:
            return False
