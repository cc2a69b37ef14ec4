"""The structural-recursion guard predicate, and the inference of a recursive
def's decreasing argument from it. Nothing here types a term; rule T-Fix,
which checks the guard again, is in `typecheck`."""
from __future__ import annotations

from .diagnostics import CheckError, fail
from .syntax import BINDER, BINDING, INSIDE, OUTSIDE, App, Lam, Match, Name, Pi, Term, Var
from .syntax import children, free_vars, spine, telescope


def guard_check(f: Name, k: int, xk: Name | None, guarded: frozenset[Name], e: Term) -> None:
    """Every call to f must pass a deconstruction-bound variable in argument
    position k, and f must not escape as a value. guarded holds the variables
    bound by matching on the decreasing argument xk (or on something already
    guarded); it grows under such matches. Inside a binder's scope, a name it
    binds is no longer f, xk or guarded. One loop over a stack of (xk,
    guarded, term) entries in the order a recursive walk takes them, with a
    call's argument k checked after its arguments, as that walk checks it."""
    work = [(xk, guarded, e)]
    while work:
        xk, guarded, e = work.pop()
        if type(e) is list:  # the arguments of a call to f, checked already
            if not (len(e) > k and isinstance(e[k], Var) and e[k].name in guarded):
                fail("Guard", f"argument {k} of a recursive call to {f} is not a variable "
                     "obtained by deconstructing the decreasing argument")
            continue
        if f not in (e._free_vars or free_vars(e)):
            continue
        match e:
            case Var():
                # free occurrence of f outside call position
                fail("Guard", f"recursive function {f} escapes as a value")
            case Match(carrier=c, scrutinee=m, branches=bs) if (
                isinstance(m, Var) and (m.name in guarded or m.name == xk)
            ):
                entries = [(xk, guarded, c), (xk, guarded, m)]
                for _, body in bs:
                    inner = guarded
                    while isinstance(body, Lam) and body.binder != f:  # the constructor's arguments
                        entries.append((xk, inner, body.domain))
                        inner, body = inner | {body.binder}, body.body
                    entries.append((xk, inner, body))
                work.extend(reversed(entries))
            case App():
                head, args = spine(e)
                call = isinstance(head, Var) and head.name == f
                if call:
                    work.append((xk, guarded, args))
                for sub in reversed(args if call else [head, *args]):
                    work.append((xk, guarded, sub))
            case Lam() | Pi():  # as the binding table would have it, read inline
                if (x := e.binder) != f:
                    work.append((None if x == xk else xk, guarded - {x}, e.body))
                work.append((xk, guarded, e.domain))
            case _:
                entries = [(xk, guarded, sub) for sub in children(e, (OUTSIDE,))]
                for field, role in BINDING.get(type(e), ()):
                    if role is BINDER and (x := getattr(e, field)) != f:  # no call to f where it is hidden
                        entries += [(None if x == xk else xk, guarded - {x}, sub)
                                    for sub in children(e, (INSIDE,))]
                work.extend(reversed(entries))


def _guard_fix(f: Name, k: int, body: Term) -> None:
    """guard_check of a fixpoint body whose k-th leading λ binds the decreasing argument."""
    for _ in range(k + 1):
        guard_check(f, k, None, frozenset(), body.domain)
        if body.binder == f:  # f is hidden from here on
            return
        xk, body = body.binder, body.body
    guard_check(f, k, xk, frozenset(), body)


def infer_fix_index(name: Name, body: Term) -> int:
    """Smallest decreasing-argument index accepted by the guard predicate."""
    binders, _ = telescope(body, Lam)
    for k in range(len(binders)):
        try:
            _guard_fix(name, k, body)
            return k
        except CheckError:
            continue
    fail(
        "Guard",
        f"no argument of recursive function {name} satisfies the guard condition "
        f"(tried indices 0..{max(len(binders) - 1, 0)})",
    )
