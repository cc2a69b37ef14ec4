"""Typing rules for the core calculus and top-level elaboration. Every
binder enters the context through `enter`, every failed conversion is
reported by `ensure_equal`, and `elaborate` makes a recursive def a fixpoint."""
from __future__ import annotations

from dataclasses import dataclass, field

from .context import Context
from .diagnostics import CheckError, Diagnostic, fail
from .normalize import mismatch, normalise
from .parser import AxiomDecl, DefDecl, InductiveDeclSrc, desugar_def
from .syntax import (
    App,
    Constr,
    Fix,
    Ind,
    Lam,
    Match,
    Name,
    Pi,
    Term,
    Universe,
    Var,
    _subst_all,
    free_vars,
    fresh_name,
    subst,
)


def type_check(ctxt: Context, e: Term) -> Term:
    """Return *a* type of e, not necessarily normal, or raise CheckError
    with the violated rule. Compare types with `ensure_equal`; normalise one
    only to show it or to walk its structure."""
    match e:
        case Var(name=x, span=span):
            t = ctxt.lookup_type(x)
            if t is None:
                fail("T-Var", f"unbound variable {x}", span)
            return t
        case Universe(level=i):
            return Universe(i + 1)
        case Lam(binder=x, domain=t, body=b, span=span):
            ensure_universe(ctxt, t, "T-Abs", "lambda domain is not a type", span)
            inner, x, b = enter(ctxt, x, t, b)
            return Pi(x, t, type_check(inner, b))
        case Pi(binder=x, domain=t, body=b, span=span):
            i = ensure_universe(ctxt, t, "T-PI", "Pi domain is not a type", span)
            inner, _, b = enter(ctxt, x, t, b)
            j = ensure_universe(inner, b, "T-PI", "Pi codomain is not a type", span)
            return Universe(max(i, j))
        case App():
            return _check_spine(ctxt, e)
        case Ind(arity=t):
            inductive.check_ind(ctxt, e)
            return t
        case Constr():
            return inductive.check_constr(ctxt, e)
        case Match():
            return inductive.check_match(ctxt, e)
        case Fix():
            return termination.check_fix(ctxt, e)
    raise TypeError(f"not a term: {e!r}")


def _check_spine(ctxt: Context, e: App) -> Term:
    """Rule T-App for a whole spine (f a1 ... an), in one pass. Each ai is
    checked against its domain under sigma, which maps the binders passed
    so far to their arguments; sigma is applied to the Π chain only where
    it is not syntactically a Π, and to the codomain once, at the end."""
    apps = []
    while isinstance(e, App):
        apps.append(e)
        e = e.fn
    tf, sigma = type_check(ctxt, e), {}
    for app in reversed(apps):
        if not isinstance(tf, Pi):
            tf, sigma = normalise(_subst_all(sigma, tf), ctxt), {}
            if not isinstance(tf, Pi):
                fail("T-App", "applying a non-function", app.span, actual=tf)
        domain = _subst_all(sigma, tf.domain)
        ensure_equal(ctxt, type_check(ctxt, app.arg), domain, "T-App", "argument type mismatch",
                     app.span)
        sigma[tf.binder] = app.arg
        tf = tf.body
    return _subst_all(sigma, tf)


def ensure_universe(ctxt: Context, t: Term, rule: str, message: str, span=None) -> int:
    """Check that t is typed by a universe; return its level."""
    tt = normalise(type_check(ctxt, t), ctxt)
    if not isinstance(tt, Universe):
        fail(rule, message, span, actual=tt)
    return tt.level


def ensure_equal(ctxt: Context, actual: Term, expected: Term, rule: str, message: str,
                 span=None) -> None:
    """Check that actual converts to expected, or fail with both normalised:
    their normal forms are read back from the values the failed conversion
    built, not evaluated again."""
    forms = mismatch(actual, expected, ctxt)
    if forms is not None:
        fail(rule, message, span, expected=forms[1], actual=forms[0])


def enter(ctxt: Context, x: Name, t: Term, *scope: Term) -> tuple:
    """Γ, x : t, in which the terms of scope, x's scope, are typed. If Γ
    already binds x, then t and the types in Γ mean that outer x, which a
    new x would capture; so x is first renamed, in scope, to a name that
    neither Γ nor scope has. Returns the context, the binder and the scope,
    as renamed."""
    if x in ctxt:
        renamed = fresh_name(x, ctxt, *map(free_vars, scope))
        scope = [subst(x, Var(renamed), s) for s in scope]
        x = renamed
    return ctxt.extend_type(x, t), x, *scope


# ---------------------------------------------------------------------------
# Top-level elaboration
# ---------------------------------------------------------------------------

@dataclass
class ElabResult:
    context: Context
    entries: list[tuple[Name, Term, str]] = field(default_factory=list)  # name, type, ok|failed
    diagnostics: list[Diagnostic] = field(default_factory=list)


def elaborate(program, initial: Context | None = None) -> ElabResult:
    """Fold a parsed program declaration by declaration. A failing
    declaration contributes a diagnostic; later ones still check against
    the context built from the earlier successes."""
    ctxt = initial if initial is not None else Context()
    result = ElabResult(ctxt)
    top_level: set[Name] = {b.name for b in ctxt.bindings}

    def claim(name: Name, span) -> None:
        if name in top_level:
            fail("Parse", f"duplicate top-level name {name}", span)
        top_level.add(name)

    for decl in program.decls:
        try:
            match decl:
                case AxiomDecl(name=name, type=t, span=span):
                    claim(name, span)
                    ensure_universe(ctxt, t, "T-Univ", "axiom type must live in a universe", span)
                    ctxt = ctxt.declare(name, t)
                    result.entries.append((name, t, "ok"))
                case DefDecl(name=name, span=span):
                    claim(name, span)
                    declared, value = desugar_def(decl)
                    if name in free_vars(value):  # recursive; a failed guard is reported first
                        k = termination.infer_fix_index(name, value)
                        value = Fix(name, k, declared, value, span=span)
                    ensure_universe(
                        ctxt, declared, "T-PI", "declared type must live in a universe", span
                    )
                    ensure_equal(ctxt, type_check(ctxt, value), declared, "T-App",
                                 f"definition {name} does not have its declared type", span)
                    ctxt = ctxt.declare(name, declared, value)
                    result.entries.append((name, declared, "ok"))
                case InductiveDeclSrc(name=name, span=span):
                    claim(name, span)
                    for cname, _ in decl.constructors:
                        claim(cname, span)
                    ctxt, warnings = inductive.register_inductive(ctxt, decl)
                    result.diagnostics.extend(warnings)
                    result.entries.append((name, decl.arity, "ok"))
                    for cname, _ in decl.constructors:
                        result.entries.append((cname, ctxt.lookup_type(cname), "ok"))
                case _:
                    raise TypeError(f"not a declaration: {decl!r}")
        except CheckError as err:
            diag = err.diagnostic
            if diag.span is None:
                diag.span = decl.span
            result.diagnostics.append(diag)
            result.entries.append((decl.name, getattr(decl, "type", None), "failed"))

    result.context = ctxt
    return result


from . import inductive, termination  # noqa: E402  (both import this module)
