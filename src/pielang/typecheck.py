"""Typing rules for the core calculus and top-level elaboration, run as one
machine. Each rule that types a subterm is a generator: it yields (Γ, e) and
is sent e's type, or has the CheckError thrown into it that typing e raised,
so it reads as the recursive rule does, while `type_check` keeps every rule
that waits on one stack (Danvy & Nielsen, "Defunctionalization at Work",
PPDP 2001), and no nesting of terms takes a Python frame per level. Every
binder enters the context through `enter`, and every failed conversion is
reported by `ensure_equal`, which tries alpha-equivalence before anything
else. `check` is the one walk of a λ chain along a Π chain: a match branch,
a fixpoint body and, started by `elaborate` on the same stack, a def that
does not recurse and whose value is a λ, whose declared Π chain it types as
it goes. Any other such def has nothing to walk: `elaborate` types its
declared type, infers its value and compares the two itself, as `check`
would. `elaborate` makes a recursive def a fixpoint, which T-Fix types.
T-App types a spine and the spines in its arguments, as in a numeral, as one
rule. A rule names the term or declaration its report points at, `at`, and
reads its span only to report a failure, so a term whose typing succeeds
never has its span built."""
from __future__ import annotations

from .context import Context
from .diagnostics import CheckError, Diagnostic, Record, fail
from .inductive import (_carrier_level, _expected_carrier_type, case_type, param_count,
                        positive_check, upsilon)
from .normalize import check_equal, mismatch, normalise
from .parser import AxiomDecl, DefDecl, InductiveDeclSrc, desugar_def
from .syntax import (App, Constr, Fix, Ind, Lam, Match, Name, Pi, Term, Universe, Var,
                     _subst_all, alpha_eq, apply_spine, free_vars, fresh_name, occurs_free,
                     spine, subst, telescope)
from .termination import _guard_fix, infer_fix_index


def type_check(ctxt: Context, e: Term) -> Term:
    """Return *a* type of e, not necessarily normal, or raise CheckError
    with the violated rule. Compare types with `ensure_equal`; normalise one
    only to show it or to walk its structure."""
    return _run([], ctxt, e)


def _run(stack: list, ctxt: Context, e: Term):
    """Type e in ctxt, then hand its type (or the CheckError typing it
    raised) to the rules waiting on stack, the last first, typing each
    subterm a rule yields in turn, and return what the first rule returns.
    A variable and a universe are typed here; every other term starts the
    rule `_RULES` holds for its kind."""
    while True:
        kind, error = type(e), None
        if kind is Var:
            t = ctxt.lookup_type(e.name)
            if t is None:
                error = CheckError(Diagnostic("T-Var", f"unbound variable {e.name}", e.span))
        elif kind is Universe:
            t = Universe(e.level + 1)
        else:
            rule = _RULES.get(kind)
            if rule is None:
                raise TypeError(f"not a term: {e!r}")
            stack.append(rule(ctxt, e))
            t = None
        while stack:
            try:
                ctxt, e = stack[-1].send(t) if error is None else stack[-1].throw(error)
                break
            except StopIteration as done:
                stack.pop()
                t, error = done.value, None
            except CheckError as err:
                stack.pop()
                error = err
        else:
            if error is not None:
                raise error
            return t


_BINDER_RULES = {Lam: ("T-Abs", "lambda domain is not a type"),
                 Pi: ("T-PI", "Pi domain is not a type")}


def _abstraction(ctxt: Context, e: Lam | Pi):
    """T-Abs and T-PI down a whole chain of λs and Πs: type each domain and
    enter its binder, type the body, then build the type back up, a Π for
    each λ and the larger of the two universes for each Π."""
    entered = []
    while type(e) is Lam or type(e) is Pi:
        u = _universe(ctxt, (yield ctxt, e.domain), *_BINDER_RULES[type(e)], e)
        ctxt, x, body = enter(ctxt, e.binder, e.domain, e.body)
        entered.append((e, x, ctxt, u))
        e = body
    t = yield ctxt, e
    for e, x, inner, u in reversed(entered):
        if type(e) is Lam:  # T-Abs: Γ, x : T ⊢ body : t
            t = Pi(x, e.domain, t)
        else:  # T-PI: Γ, x : T ⊢ body : Type j
            t = _universe(inner, t, "T-PI", "Pi codomain is not a type", e)
            if u.level > t.level:  # the larger universe, of the two already built
                t = u
    return t


def _application(ctxt: Context, e: App):
    """T-App for a whole spine (f a1 ... an), in one pass. sigma maps the
    dependent binders passed so far to their arguments; it is applied to the
    Π chain only to normalise a codomain that is not a Π, and to the result.
    An argument that is itself a spine, as in a numeral, is typed in the same
    pass: the spine it belongs to waits on `outer` for its type, so nested
    spines start one rule, not one each."""
    outer = []
    while True:
        apps = []
        while type(e) is App:
            apps.append(e)
            e = e.fn
        t, sigma = (yield ctxt, e), {}
        while True:
            if apps:
                if type(t) is not Pi:
                    t, sigma = normalise(_subst_all(sigma, t) if sigma else t, ctxt), {}
                    if type(t) is not Pi:
                        fail("T-App", "applying a non-function", apps[-1].span, actual=t)
                app = apps.pop()
                domain = _subst_all(sigma, t.domain) if sigma else t.domain
                if type(app.arg) is App:
                    outer.append((apps, t, sigma, app, domain))
                    e = app.arg
                    break
                arg_type = yield ctxt, app.arg
            else:  # this spine is typed, and its type is an argument's, if one waits
                arg_type = _subst_all(sigma, t) if sigma else t
                if not outer:
                    return arg_type
                apps, t, sigma, app, domain = outer.pop()
            ensure_equal(ctxt, arg_type, domain, "T-App", "argument type mismatch", app)
            if t.binder in free_vars(t.body):  # only a binder its scope names is substituted
                sigma[t.binder] = app.arg
            t = t.body


def _inductive(ctxt: Context, ind: Ind):
    """ind is well formed: its arity and each constructor type are types,
    and each constructor has an allowed shape. Returns the positivity
    warnings of its constructors."""
    upsilon(ind.arity)
    _universe(ctxt, (yield ctxt, ind.arity), "T-Ind", "inductive arity is not a type")
    params = param_count(ind.arity)
    inner, name, *ctypes = enter(ctxt, ind.name, ind.arity, *(c for _, c in ind.constructors))
    warnings: list[Diagnostic] = []
    for ctype in ctypes:
        _universe(inner, (yield inner, ctype), "T-Ind",
                  "constructor type does not live in a universe")
        warnings.extend(positive_check(ctype, name, params))
    return warnings


def _ind(ctxt: Context, ind: Ind):
    """T-Ind: a well-formed inductive has its arity as its type."""
    yield from _inductive(ctxt, ind)
    return ind.arity


def _constr(ctxt: Context, c: Constr):
    """T-Constr: the type of constructor c of a well-formed inductive."""
    ind = c.inductive
    if not isinstance(ind, Ind):
        fail("T-Constr", "constructor of a non-inductive term", c.span, actual=ind)
    n = len(ind.constructors)
    if not 1 <= c.index <= n:
        fail("T-Constr", f"constructor index {c.index} out of bounds (1..{n})", c.span)
    yield from _inductive(ctxt, ind)
    return subst(ind.name, ind, ind.constructors[c.index - 1][1])


def _match(ctxt: Context, m: Match):
    """T-Match: the scrutinee has a fully applied inductive type, the carrier
    is a family over it, and each branch has the type its constructor and
    the carrier give."""
    st = normalise((yield ctxt, m.scrutinee), ctxt)
    head, args = spine(st)
    if not isinstance(head, Ind):
        fail("T-Match", "scrutinee is not of an inductive type", m.span, actual=st)
    params = param_count(head.arity)
    if len(args) != params:
        fail("T-Match", "scrutinee type does not fully apply the inductive", m.span, actual=st)

    carrier_type = normalise((yield ctxt, m.carrier), ctxt)
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
        yield from check(ctxt, body, expected, "T-Match", f"branch {bname} has the wrong type", m)
    return normalise(App(apply_spine(m.carrier, args), m.scrutinee), ctxt)


def _fix(ctxt: Context, fix: Fix):
    """T-Fix: the signature is a type, the body checks against it with the
    fixpoint's name bound to it, and the guard holds at the decreasing index."""
    # a fixpoint is a recursive def, whose signature is reported as a declared type
    _universe(ctxt, (yield ctxt, fix.signature), "T-PI",
              "declared type must live in a universe", fix)
    inner, f, body = enter(ctxt, fix.name, fix.signature, fix.body)
    yield from check(inner, body, fix.signature, "T-Fix",
                     f"fixpoint body of {fix.name} does not have the declared type", fix)
    binders, _ = telescope(body, Lam)
    if not 0 <= fix.dec_index < len(binders):
        fail(
            "T-Fix",
            f"decreasing-argument index {fix.dec_index} out of range for {fix.name}",
            fix.span,
        )
    _guard_fix(f, fix.dec_index, body)  # the kernel's check of the index elaboration inferred
    return fix.signature


# the rule each kind of term starts on the stack; variables and universes are typed by _run
_RULES = {Lam: _abstraction, Pi: _abstraction, App: _application, Ind: _ind, Constr: _constr,
          Match: _match, Fix: _fix}


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


def check(ctxt: Context, e: Term, t: Term, rule: str, message: str, at=None, typed=True):
    """A rule: check e against t in ctxt. While e is a λ and t a Π that bind
    the same name over alpha-equal domains, both enter one context as one
    binder, whose domain is not typed again, and only the rest of e is
    inferred and compared with the rest of t. A def's declared type, unlike a
    branch's or a fixpoint body's, is not yet known to be a type: with
    typed=False the walk types each Π domain before it enters it, and the
    rest of t, as T-PI does, and on any failure types t whole. If nothing was
    entered, or the rest differs, e is inferred whole and its type compared
    with t in ctxt, so the report is the one that typing t, inferring e and
    comparing give. `elaborate` starts it for a def only when e is a λ, and
    otherwise does those three steps itself."""
    inner, body, rest = ctxt, e, t
    try:
        while (type(body) is Lam and type(rest) is Pi and body.binder == rest.binder
               and alpha_eq(body.domain, rest.domain)):
            if not typed:
                _universe(inner, (yield inner, rest.domain), "T-PI", "Pi domain is not a type")
            inner, _, body, rest = enter(inner, body.binder, body.domain, body.body, rest.body)
        if inner is not ctxt:
            if not typed:
                _universe(inner, (yield inner, rest), "T-PI", "Pi codomain is not a type")
            if check_equal((yield inner, body), rest, inner):
                return
    except CheckError:
        if typed:
            raise
    if not typed:
        _universe(ctxt, (yield ctxt, t), "T-PI", "declared type must live in a universe", at)
    ensure_equal(ctxt, (yield ctxt, e), t, rule, message, at)


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

class ElabResult(Record):
    __slots__ = ("context", "entries", "diagnostics")

    def __init__(self, context: Context, entries: list | None = None,
                 diagnostics: list[Diagnostic] | None = None):
        self.context = context
        self.entries = [] if entries is None else entries  # name, type (None if failed), ok|failed
        self.diagnostics = [] if diagnostics is None else diagnostics


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
                    _universe(ctxt, type_check(ctxt, t), "T-Univ", "axiom type must live in a universe",
                              decl)
                    ctxt = ctxt.declare(name, t)
                    result.entries.append((name, t, "ok"))
                case DefDecl(name=name):
                    claim(name)
                    declared, value = desugar_def(decl)
                    message = f"definition {name} does not have its declared type"
                    if occurs_free(name, value):  # recursive; a failed guard is reported first
                        k = infer_fix_index(name, value)
                        value = Fix(name, k, declared, value, decl.kept_span)
                        type_check(ctxt, value)  # T-Fix: its type is declared
                    elif type(value) is Lam:  # a walk, one rule on the typing stack
                        rule = check(ctxt, value, declared, "T-App", message, decl, typed=False)
                        _run([rule], *next(rule))
                    else:  # nothing to walk: what check does when its walk enters nothing
                        _universe(ctxt, type_check(ctxt, declared), "T-PI",
                                  "declared type must live in a universe", decl)
                        ensure_equal(ctxt, type_check(ctxt, value), declared, "T-App", message,
                                     decl)
                    ctxt = ctxt.declare(name, declared, value)
                    result.entries.append((name, declared, "ok"))
                case InductiveDeclSrc(name=name):
                    claim(name)
                    for cname, _ in decl.constructors:
                        claim(cname)
                    node = Ind(name, decl.arity, tuple(decl.constructors), decl.kept_span)
                    rule = _inductive(ctxt, node)  # T-Ind, run for its warnings
                    result.diagnostics.extend(_run([rule], *next(rule)))
                    ctxt = ctxt.declare(name, decl.arity, node)
                    for i, (cname, ctype) in enumerate(node.constructors, start=1):
                        ctxt = ctxt.declare(cname, subst(name, node, ctype), Constr(i, node))
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

