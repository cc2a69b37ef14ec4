"""Typing rules for the core calculus and top-level elaboration. Every
binder enters the context through `enter`, every failed conversion is
reported by `ensure_equal`, and `elaborate` makes a recursive def a fixpoint.
A rule names the term or declaration its report points at, `at`, and reads
its span only to report a failure, so a term whose typing succeeds never has
its span built."""
from __future__ import annotations

from dataclasses import dataclass, field

from .context import Context
from .diagnostics import CheckError, Diagnostic, fail
from .normalize import check_equal, mismatch, normalise
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
    alpha_eq,
    free_vars,
    fresh_name,
    occurs_free,
    subst,
)


# Each frame on type_check's stack waits for the type t of one subterm:
#   ("domain", Γ, e)       of the domain of e, a λ or Π, in Γ;
#   ("λ", x, T)            of the body of λx:T;
#   ("Π", Γ', u, e)        of the body of e, a Π whose domain has type u, a universe, in Γ';
#   ("app", Γ, apps, tf, sigma, domain)
#                          of a spine's head if tf is None, else of the argument of
#                          apps[-1], whose domain is domain (tf's, under sigma).
_BINDER_RULES = {Lam: ("T-Abs", "lambda domain is not a type"),
                 Pi: ("T-PI", "Pi domain is not a type")}


def type_check(ctxt: Context, e: Term) -> Term:
    """Return *a* type of e, not necessarily normal, or raise CheckError
    with the violated rule. Compare types with `ensure_equal`; normalise one
    only to show it or to walk its structure. One loop over a stack of frames
    (above), so no nesting of λ, Π or applications takes a Python frame per
    level; an inductive, constructor, match or fixpoint goes to its rule,
    which types its parts with a loop of its own."""
    stack: list[tuple] = []
    while True:
        kind = type(e)  # e is to be typed in ctxt; t is its type, once known
        if kind is Var:
            t = ctxt.lookup_type(e.name)
            if t is None:
                fail("T-Var", f"unbound variable {e.name}", e.span)
        elif kind is Universe:
            t = Universe(e.level + 1)
        elif kind is Lam or kind is Pi:
            stack.append(("domain", ctxt, e))
            e = e.domain
            continue
        elif kind is App:
            apps = []
            while type(e) is App:
                apps.append(e)
                e = e.fn
            stack.append(("app", ctxt, apps, None, {}, None))
            continue
        elif kind is Ind:
            inductive.check_ind(ctxt, e)
            t = e.arity
        elif kind is Constr:
            t = inductive.check_constr(ctxt, e)
        elif kind is Match:
            t = inductive.check_match(ctxt, e)
        elif kind is Fix:
            t = termination.check_fix(ctxt, e)
        else:
            raise TypeError(f"not a term: {e!r}")
        while stack:  # hand t to the frames it completes, up to one that needs more
            frame = stack.pop()
            tag = frame[0]
            if tag == "domain":  # t types a binder's domain: Γ ⊢ domain : Type i
                _, ctxt, e = frame
                t = _universe(ctxt, t, *_BINDER_RULES[type(e)], e)
                ctxt, x, body = enter(ctxt, e.binder, e.domain, e.body)
                if type(e) is Lam:
                    stack.append(("λ", x, e.domain))
                else:
                    stack.append(("Π", ctxt, t, e))
                e = body
                break
            if tag == "λ":  # T-Abs: Γ, x : T ⊢ body : t
                t = Pi(frame[1], frame[2], t)
            elif tag == "Π":  # T-PI: Γ, x : T ⊢ body : Type j
                _, inner, u, pi = frame
                t = _universe(inner, t, "T-PI", "Pi codomain is not a type", pi)
                if u.level > t.level:  # the larger universe, of the two already built
                    t = u
            else:  # T-App for a whole spine (f a1 ... an), in one pass
                _, ctxt, apps, tf, sigma, domain = frame
                if tf is not None:  # t types the argument of apps[-1]
                    app = apps.pop()
                    ensure_equal(ctxt, t, domain, "T-App", "argument type mismatch", app)
                    # only a binder its scope names is substituted
                    if tf.binder in free_vars(tf.body):
                        sigma[tf.binder] = app.arg
                    t = tf.body
                if not apps:  # sigma maps the dependent binders passed so far to their arguments
                    if sigma:
                        t = _subst_all(sigma, t)
                    continue
                if type(t) is not Pi:  # sigma is applied to the Π chain only here
                    t, sigma = normalise(_subst_all(sigma, t) if sigma else t, ctxt), {}
                    if type(t) is not Pi:
                        fail("T-App", "applying a non-function", apps[-1].span, actual=t)
                domain = _subst_all(sigma, t.domain) if sigma else t.domain
                stack.append(("app", ctxt, apps, t, sigma, domain))
                e = apps[-1].arg
                break
        else:
            return t


def ensure_universe(ctxt: Context, t: Term, rule: str, message: str, at=None) -> int:
    """Check that t is typed by a universe; return its level."""
    return _universe(ctxt, type_check(ctxt, t), rule, message, at).level


def _universe(ctxt: Context, t: Term, rule: str, message: str, at=None) -> Universe:
    """t, a type in ctxt, if it is a universe; else its normal form, which
    must be one. Only a type that is not already a universe is normalised."""
    if type(t) is not Universe:
        t = normalise(t, ctxt)
        if type(t) is not Universe:
            fail(rule, message, getattr(at, "span", None), actual=t)
    return t


def ensure_equal(ctxt: Context, actual: Term, expected: Term, rule: str, message: str,
                 at=None) -> None:
    """Check that actual converts to expected, or fail with both normalised:
    their normal forms are read back from the values the failed conversion
    built, not evaluated again. A term is equal to itself with no look at it."""
    if actual is expected:
        return
    forms = mismatch(actual, expected, ctxt)
    if forms is not None:
        fail(rule, message, getattr(at, "span", None), expected=forms[1], actual=forms[0])


def check(ctxt: Context, e: Term, t: Term, rule: str, message: str, at=None) -> None:
    """Check e against t, a type in ctxt. While e is a λ and t a Π that bind
    the same name over alpha-equal domains, both enter one context as one
    binder, whose domain needs no typing, since t's is a type in the same
    context; only the rest of e is inferred, and compared with the rest of t.
    If nothing was entered, or the rest differs, e is inferred whole and its
    type compared with t in ctxt, so the report is the one that inferring e
    and comparing its type gives."""
    inner, body, rest = ctxt, e, t
    while (type(body) is Lam and type(rest) is Pi and body.binder == rest.binder
           and alpha_eq(body.domain, rest.domain)):
        inner, _, body, rest = enter(inner, body.binder, body.domain, body.body, rest.body)
    if inner is ctxt or not check_equal(type_check(inner, body), rest, inner):
        ensure_equal(ctxt, type_check(ctxt, e), t, rule, message, at)


def check_def(ctxt: Context, e: Term, t: Term, message: str, at=None) -> None:
    """Check the value e of a def that does not recurse against its declared
    type t, and t as a type, in one walk: while e is a λ and t a Π as in
    `check`, type the Π's domain, as T-PI does, and enter the pair; then type
    the rest of t, infer the rest of e and compare them. If the walk entered
    nothing, or anything fails or differs, t is typed whole, e inferred whole
    and its type compared with t, and the report is the one those give."""
    inner, body, rest = ctxt, e, t
    try:
        while (type(body) is Lam and type(rest) is Pi and body.binder == rest.binder
               and alpha_eq(body.domain, rest.domain)):
            _universe(inner, type_check(inner, rest.domain), "T-PI", "Pi domain is not a type")
            inner, _, body, rest = enter(inner, body.binder, body.domain, body.body, rest.body)
        if inner is not ctxt:
            _universe(inner, type_check(inner, rest), "T-PI", "Pi codomain is not a type")
            if check_equal(type_check(inner, body), rest, inner):
                return
    except CheckError:
        pass
    ensure_universe(ctxt, t, "T-PI", "declared type must live in a universe", at)
    ensure_equal(ctxt, type_check(ctxt, e), t, "T-App", message, at)


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
    # name, type (None if failed), ok|failed
    entries: list[tuple[Name, Term | None, str]] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)


def elaborate(program, initial: Context | None = None) -> ElabResult:
    """Fold a parsed program declaration by declaration. A failing
    declaration contributes a diagnostic; later ones still check against
    the context built from the earlier successes."""
    ctxt = initial if initial is not None else Context()
    result = ElabResult(ctxt)
    top_level: set[Name] = {b.name for b in ctxt.bindings}

    def claim(name: Name) -> None:  # a failure gets the declaration's span below
        if name in top_level:
            fail("Parse", f"duplicate top-level name {name}")
        top_level.add(name)

    for decl in program.decls:
        try:
            match decl:
                case AxiomDecl(name=name, type=t):
                    claim(name)
                    ensure_universe(ctxt, t, "T-Univ", "axiom type must live in a universe", decl)
                    ctxt = ctxt.declare(name, t)
                    result.entries.append((name, t, "ok"))
                case DefDecl(name=name):
                    claim(name)
                    declared, value = desugar_def(decl)
                    if occurs_free(name, value):  # recursive; a failed guard is reported first
                        k = termination.infer_fix_index(name, value)
                        value = Fix(name, k, declared, value, decl.kept_span)
                        type_check(ctxt, value)  # T-Fix: its type is declared
                    else:
                        check_def(ctxt, value, declared,
                                  f"definition {name} does not have its declared type", decl)
                    ctxt = ctxt.declare(name, declared, value)
                    result.entries.append((name, declared, "ok"))
                case InductiveDeclSrc(name=name):
                    claim(name)
                    for cname, _ in decl.constructors:
                        claim(cname)
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
            result.entries.append((decl.name, None, "failed"))

    result.context = ctxt
    return result


from . import inductive, termination  # noqa: E402  (both import this module)
