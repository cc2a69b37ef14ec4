"""Normalization by evaluation and definitional equality.

Evaluation maps a term and an environment to a value: a closure (a term
paired with the environment it was met in) for λ, Π, universes,
inductives, constructors and fixpoints; or a neutral value for a stuck
variable, application or match. Beta reduction extends a closure's
environment instead of substituting. Names bound in the context unfold
(delta), matches reduce on a constructor-headed scrutinee (iota), and a
fixpoint unfolds only once its decreasing argument is constructor-headed;
a name bound to a fixpoint stays that name until then. Inductives,
constructors, fixpoints and the carrier and branches of a stuck match are
not evaluated inside.

A λ or Π closure evaluates its domain, and its body under a variable of
its own, the first time it is looked inside, and keeps both. `normalise`
reads a value back to a term. Each binder keeps its own name unless a free
variable of the same name occurs in its body; then it gets a fresh name.
The read-back notes such captures on a first pass and, only if it found
one, reads the value back once more with the capturing binders renamed.
`check_equal` compares two values one weak-head level at a time and stops
at the first mismatch; it reads back only what evaluation does not look
inside. Beta, delta, iota and fixpoint unfolding each draw a step from a
budget, so adversarial input raises BudgetExceeded instead of hanging the
kernel.
"""
from __future__ import annotations

import sys

from .context import Context
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
    fresh_name,
    free_vars,
    spine,
    subst,  # not used here, but `pielang.normalize.subst` keeps resolving
)

DEFAULT_BUDGET = 100_000
_DEPTH_LIMIT = 4000


class BudgetExceeded(Exception):
    """Raised when normalization exceeds its reduction-step budget."""

    def __init__(self, budget: int, reason: str = "step budget"):
        super().__init__(f"normalization exceeded the {reason} of {budget}")
        self.budget = budget


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

class _Closure:
    """A λ, Π, universe, inductive, constructor or fixpoint term together
    with the values of its free names bound during evaluation. A λ or Π
    closure, once opened, also keeps the value of its domain and of its body
    under the variable `var`."""

    __slots__ = ("term", "env", "domain", "var", "body")

    def __init__(self, term: Term, env: dict):
        self.term, self.env, self.body = term, env, None


class _VVar:
    """A variable without a value, or a name bound to a fixpoint that has
    not unfolded yet (fix is that fixpoint). It reads back as `term` unless
    the evaluator's `names` says otherwise."""

    __slots__ = ("term", "fix")

    def __init__(self, term: Var, fix: Fix | None = None):
        self.term, self.fix = term, fix


class _VApp:
    """A stuck application; head is never a λ closure or another _VApp."""

    __slots__ = ("head", "args")

    def __init__(self, head, args: tuple):
        self.head, self.args = head, args


class _VMatch:
    """A match whose scrutinee value is not constructor-headed."""

    __slots__ = ("term", "scrutinee", "env")

    def __init__(self, term: Match, scrutinee, env: dict):
        self.term, self.scrutinee, self.env = term, scrutinee, env


# terms that evaluate to themselves paired with their environment
_CLOSED_TERMS = (Lam, Pi, Universe, Ind, Constr, Fix)
# those of them that evaluation and conversion never look inside
_INERT_TERMS = (Universe, Ind, Constr, Fix)


def _constructor(v) -> tuple[Constr | None, tuple]:
    """The head constructor and arguments of v, if it is constructor-headed."""
    args = ()
    if type(v) is _VApp:
        v, args = v.head, v.args
    if type(v) is _Closure and type(v.term) is Constr:
        return v.term, args
    return None, args


# ---------------------------------------------------------------------------
# Evaluation and read-back
# ---------------------------------------------------------------------------

class _Evaluator:
    """Evaluates in one context, drawing every step from one budget."""

    __slots__ = ("ctxt", "budget", "remaining", "names", "scope", "captures")

    def __init__(self, ctxt: Context, budget: int | None):
        self.ctxt = ctxt
        self.budget = DEFAULT_BUDGET if budget is None else budget
        self.remaining = self.budget
        # The term a closure's variable reads back as, where it is not the
        # closure's own binder name or that name has been decided on.
        self.names: dict[_VVar, Var] = {}
        # During the first pass of a read-back: the closure variables in
        # scope under each binder name, innermost last (None in the second
        # pass); and for each closure variable, what its binder would
        # capture if that kept its name (None: a name the context binds).
        self.scope: dict[Name, list[_VVar]] | None = None
        self.captures: dict[_VVar, set] = {}

    def tick(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise BudgetExceeded(self.budget)

    def eval(self, t: Term, env: dict):
        kind = type(t)
        if kind in _CLOSED_TERMS:
            return _Closure(t, env)
        if kind is Var:
            v = env.get(t.name) if env else None
            if v is not None:
                return v
            value = self.ctxt.lookup_val(t.name)
            if value is None:
                return _VVar(t)
            if type(value) is Fix:
                return _VVar(t, value)
            self.tick()
            return self.eval(value, {})
        if kind is App:
            head, args = spine(t)
            f = self.eval(head, env)
            for a in args:
                f = self.apply(f, self.eval(a, env))
            return f
        if kind is Match:
            s = self.eval(t.scrutinee, env)
            c, args = _constructor(s)
            if c is None:
                return _VMatch(t, s, env)
            self.tick()
            return self.apply_all(self.eval(t.branches[c.index - 1][1], env), args)
        raise TypeError(f"not a term: {t!r}")

    def apply(self, f, a):
        if type(f) is _Closure and type(f.term) is Lam:
            self.tick()
            lam = f.term
            return self.eval(lam.body, {**f.env, lam.binder: a})
        head, args = (f.head, f.args + (a,)) if type(f) is _VApp else (f, (a,))
        if type(head) is _VVar:
            fix, env = head.fix, {}
        elif type(head) is _Closure and type(head.term) is Fix:
            fix, env = head.term, head.env
        else:
            fix = None
        if fix is not None and len(args) > fix.dec_index:
            if _constructor(args[fix.dec_index])[0] is not None:
                self.tick()
                # stuck recursive calls keep the name the context binds to
                # this fixpoint, so they compare equal to calls written with it
                if self.ctxt.lookup_val(fix.name) is fix:
                    itself = _VVar(Var(fix.name), fix)
                else:
                    itself = _Closure(fix, env)
                return self.apply_all(self.eval(fix.body, {**env, fix.name: itself}), args)
        return _VApp(head, args)

    def apply_all(self, f, args):
        for a in args:
            f = self.apply(f, a)
        return f

    def open(self, c: _Closure) -> None:
        """Evaluate a λ or Π closure's domain, and its body under a new
        variable, unless that was done already."""
        if c.body is None:
            t = c.term
            c.domain = self.eval(t.domain, c.env)
            c.var = _VVar(Var(t.binder))
            c.body = self.eval(t.body, {**c.env, t.binder: c.var})

    def read_back(self, v) -> Term:
        """v as a term. The first pass keeps every binder's own name and
        notes which binders would capture a variable; only if one would is
        v read back a second time, with those binders renamed."""
        self.scope, self.captures = {}, {}
        t = self.quote(v)
        self.scope = None
        return self.quote(v) if self.captures else t

    def quote(self, v) -> Term:
        if type(v) is _VVar:
            t = self.names.get(v, v.term)
            if self.scope is not None:
                self._occurs(t.name, v)
            return t
        if type(v) is _VApp:
            t = self.quote(v.head)
            for a in v.args:
                t = App(t, self.quote(a))
            return t
        if type(v) is _VMatch:
            m, env = v.term, v.env
            return Match(
                self.close(m.carrier, env),
                self.quote(v.scrutinee),
                tuple((cn, self.close(body, env)) for cn, body in m.branches),
            )
        t = v.term
        if type(t) not in (Lam, Pi):
            return self.close(t, v.env)
        self.open(v)
        domain = self.quote(v.domain)
        x, var = t.binder, v.var
        if self.scope is None:
            if any(self._keeps_name(r) for r in self.captures.get(var, ())):
                x = fresh_name(x)
            self.names[var] = Var(x) if x is not t.binder else var.term
            body = self.quote(v.body)
        else:
            self.names.pop(var, None)
            stack = self.scope.setdefault(x, [])
            stack.append(var)
            body = self.quote(v.body)
            stack.pop()
        if x is t.binder and domain is t.domain and body is t.body:
            return t
        return type(t)(x, domain, body)

    def _occurs(self, x: Name, r) -> None:
        """Note that x occurs free, standing for r, below the binders in
        scope: every binder named x inside the one of r would capture it."""
        for binder in reversed(self.scope.get(x, ())):
            if binder is r:
                return
            self.captures.setdefault(binder, set()).add(r)

    def _keeps_name(self, r) -> bool:
        """Whether r, noted by _occurs, is read back under its own name."""
        return r is None or self.names.get(r, r.term) is r.term

    def close(self, t: Term, env: dict) -> Term:
        """t with the values env binds for its free names read back into it."""
        if not (env or self.scope):
            return t
        used = free_vars(t)
        if self.scope:
            for x in used.intersection(self.scope):
                if x not in env:
                    self._occurs(x, None)
        if not env:
            return t
        sigma = {}
        for x, v in env.items():
            if x in used:
                s = self.quote(v)
                if not (type(s) is Var and s.name == x):
                    sigma[x] = s
        return _subst_all(sigma, t)


# ---------------------------------------------------------------------------
# Conversion
# ---------------------------------------------------------------------------

def _convert(left: _Evaluator, right: _Evaluator, u, v, depth: int) -> bool:
    """Whether u, evaluated by left, and v, evaluated by right, read back to
    alpha-equivalent terms. Compares one weak-head level at a time."""
    while True:
        tu, tv = type(u), type(v)
        if tu is not tv:
            return False
        if tu is _VVar:
            return left.names.get(u, u.term).name == right.names.get(v, v.term).name
        if tu is _VApp:
            if len(u.args) != len(v.args) or not _convert(left, right, u.head, v.head, depth):
                return False
            for a, b in zip(u.args[:-1], v.args[:-1]):
                if not _convert(left, right, a, b, depth):
                    return False
            u, v = u.args[-1], v.args[-1]
            continue
        if tu is _VMatch or type(u.term) not in (Lam, Pi):
            # not evaluated inside: compare what the two sides read back to
            return alpha_eq(left.read_back(u), right.read_back(v))
        if type(u.term) is not type(v.term):
            return False
        left.open(u)
        right.open(v)
        if not _convert(left, right, u.domain, v.domain, depth):
            return False
        # the two bodies' variables read back as one name, unlike any source
        # or fresh name (its tag is negative) and any an enclosing binder
        # pair reads back as (its depth differs)
        left.names[u.var] = right.names[v.var] = Var(Name("", -1 - depth))
        u, v = u.body, v.body
        depth += 1


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def _within_depth_limit(run):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, _DEPTH_LIMIT))
    try:
        return run()
    except RecursionError:
        # divergence can pile up nesting faster than it burns steps
        raise BudgetExceeded(_DEPTH_LIMIT, "nesting depth limit") from None
    finally:
        sys.setrecursionlimit(limit)


def normalise(e: Term, ctxt: Context, budget: int | None = None) -> Term:
    if isinstance(e, _INERT_TERMS):
        # the general path returns these unchanged too, but typing asks for
        # the normal form of a universe so often that its cost shows
        return e
    ev = _Evaluator(ctxt, budget)
    return _within_depth_limit(lambda: ev.read_back(ev.eval(e, {})))


def check_equal(a: Term, b: Term, ctxt: Context, budget: int | None = None) -> bool:
    """Definitional equality. Each side draws on a budget of its own, as it
    would when normalised on its own, and evaluates nothing that
    normalising it would not."""
    if isinstance(a, _INERT_TERMS) and isinstance(b, _INERT_TERMS):
        return alpha_eq(a, b)  # what _convert answers, without an evaluator
    left, right = _Evaluator(ctxt, budget), _Evaluator(ctxt, budget)
    return _within_depth_limit(
        lambda: _convert(left, right, left.eval(a, {}), right.eval(b, {}), 0)
    )
