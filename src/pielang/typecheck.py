"""Typing rules for the core calculus and top-level elaboration."""
from __future__ import annotations

from dataclasses import dataclass, field

from .context import Context
from .normalize import BudgetExceeded, check_equal, normalise
from .syntax import (
    App,
    Constr,
    Fix,
    Ind,
    Lam,
    Match,
    Name,
    Pi,
    SourceSpan,
    Term,
    Universe,
    Var,
    pretty,
    reset_fresh_names,
    subst,
)


@dataclass
class Diagnostic:
    rule: str  # T-Var | T-Abs | T-PI | T-Univ | T-App | T-Ind | T-Constr | T-Match | T-Fix | Guard | Parse | Budget
    message: str
    span: SourceSpan | None = None
    expected: Term | None = None
    actual: Term | None = None
    severity: str = "error"

    def render(self, file: str = "<input>") -> str:
        loc = f"{file}:{self.span}" if self.span is not None else file
        msg = self.message
        if self.expected is not None and self.actual is not None:
            msg += f" (expected {pretty(self.expected)}, got {pretty(self.actual)})"
        return f"{self.severity}[{self.rule}] {loc}: {msg}"


class CheckError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


def fail(rule: str, message: str, span=None, expected=None, actual=None):
    raise CheckError(Diagnostic(rule, message, span, expected, actual))


def type_check(ctxt: Context, e: Term) -> Term:
    """Return *a* type of e, not necessarily normal, or raise CheckError
    with the violated rule. Compare types with `check_equal`; normalise one
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
            tb = type_check(ctxt.extend_type(x, t), b)
            return Pi(x, t, tb)
        case Pi(binder=x, domain=t, body=b, span=span):
            i = ensure_universe(ctxt, t, "T-PI", "Pi domain is not a type", span)
            j = ensure_universe(
                ctxt.extend_type(x, t), b, "T-PI", "Pi codomain is not a type", span
            )
            return Universe(max(i, j))
        case App(fn=f, arg=a, span=span):
            tf = type_check(ctxt, f)
            if not isinstance(tf, Pi):
                tf = normalise(tf, ctxt)
            if not isinstance(tf, Pi):
                fail("T-App", "applying a non-function", span, actual=tf)
            ta = type_check(ctxt, a)
            if not check_equal(tf.domain, ta, ctxt):
                fail(
                    "T-App",
                    "argument type mismatch",
                    span,
                    expected=normalise(tf.domain, ctxt),
                    actual=normalise(ta, ctxt),
                )
            return subst(tf.binder, a, tf.body)
        case Ind():
            return inductive.check_ind(ctxt, e)
        case Constr():
            return inductive.check_constr(ctxt, e)
        case Match():
            return inductive.check_match(ctxt, e)
        case Fix():
            return termination.check_fix(ctxt, e)
    raise TypeError(f"not a term: {e!r}")


def ensure_universe(ctxt: Context, t: Term, rule: str, message: str, span=None) -> int:
    """Check that t is typed by a universe; return its level."""
    tt = normalise(type_check(ctxt, t), ctxt)
    if not isinstance(tt, Universe):
        fail(rule, message, span, actual=tt)
    return tt.level


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
    from .parser import AxiomDecl, DefDecl, InductiveDeclSrc, desugar_def

    reset_fresh_names()
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
                    ensure_universe(
                        ctxt, declared, "T-PI", "declared type must live in a universe", span
                    )
                    inferred = type_check(ctxt, value)
                    if not check_equal(inferred, declared, ctxt):
                        fail(
                            "T-App",
                            f"definition {name} does not have its declared type",
                            span,
                            expected=normalise(declared, ctxt),
                            actual=normalise(inferred, ctxt),
                        )
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
        except BudgetExceeded as err:
            result.diagnostics.append(Diagnostic("Budget", str(err), decl.span))
            result.entries.append((decl.name, getattr(decl, "type", None), "failed"))

    result.context = ctxt
    return result


from . import inductive, termination  # noqa: E402  (both import this module)
