"""Normalization by evaluation and definitional equality.

Evaluation maps a term and an environment to a value: a closure (a term
paired with the environment it was met in) for λ, Π, universes,
inductives, constructors and fixpoints; or a neutral value for a stuck
variable, application or match. `_Evaluator.eval` is one loop over a term
and the values it is applied to. An application pushes the values of its
arguments and goes on with its head. Beta reduction extends a closure's
environment instead of substituting, names bound in the context unfold
(delta), matches reduce on a constructor-headed scrutinee (iota), and a
fixpoint unfolds only once its decreasing argument is constructor-headed;
a name bound to a fixpoint stays that name until then. Each of these goes
round the loop, so only an argument or a scrutinee costs a Python frame.
Inductives, constructors, fixpoints and the carrier and branches of a stuck
match are not evaluated inside.

A λ or Π closure evaluates its domain, and its body under a variable of
its own, the first time it is looked inside, and keeps both. `normalise`
reads a value back to a term. Each binder keeps its own name unless a free
variable of the same name occurs in its body. The read-back notes such
captures on a first pass and, only if it found one, reads the value back
once more with those binders renamed to names nothing else read back has.
Conversion (`check_equal`, and `mismatch`, which also gives the normal forms
of two terms that differ) first compares the two terms syntactically:
alpha-equal terms are equal with no evaluation. Otherwise it compares their
values one weak-head level at a time, in a loop over a stack of pairs, and
stops at the first mismatch; it reads back only what evaluation does not
look inside. When the two differ, their normal forms are read back from the
values the comparison built. Beta, delta, iota and fixpoint unfolding each
draw a step from a budget, so adversarial input raises BudgetExceeded
instead of hanging the kernel.
"""
from __future__ import annotations

import sys
from itertools import repeat

from .context import Context
from .diagnostics import CheckError, Diagnostic
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

_DEPTH_LIMIT = 4000


class BudgetExceeded(CheckError):
    """Raised when normalization exceeds its reduction-step budget."""

    def __init__(self, budget: int, reason: str = "step budget"):
        super().__init__(Diagnostic("Budget", f"normalization exceeded the {reason} of {budget}"))
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

    __slots__ = ("ctxt", "budget", "remaining", "names", "scope", "captures", "taken")

    def __init__(self, ctxt: Context, budget: int | None):
        self.ctxt = ctxt
        self.budget = ctxt.budget if budget is None else budget
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

    def eval(self, t: Term, env: dict, args: tuple = ()):
        """The value of t in env applied to the values args."""
        while True:
            kind = type(t)
            if kind is App:
                t, spine_args = spine(t)
                values = []
                for a in spine_args:
                    values.append(self.eval(a, env))
                args = (*values, *args)
                continue
            if kind is Var:
                f = env.get(t.name) if env else None
                if f is None:
                    value = self.ctxt.lookup_val(t.name)
                    if value is None or type(value) is Fix:
                        f = _VVar(t, value)
                    else:
                        self.tick()
                        t, env = value, {}
                        continue
            elif kind is Match:
                f = self.eval(t.scrutinee, env)
                c, c_args = _constructor(f)
                if c is not None:
                    self.tick()
                    t, args = t.branches[c.index - 1][1], c_args + args
                    continue
                f = _VMatch(t, f, env)
            elif kind in _CLOSED_TERMS:
                f = _Closure(t, env)
            else:
                raise TypeError(f"not a term: {t!r}")
            if not args:
                return f
            if type(f) is _Closure and type(f.term) is Lam:
                self.tick()
                t, env, args = f.term.body, {**f.env, f.term.binder: args[0]}, args[1:]
                continue
            if type(f) is _VApp:
                f, args = f.head, f.args + args
            fix = f.fix if type(f) is _VVar else f.term if type(f) is _Closure else None
            if type(fix) is not Fix or len(args) <= fix.dec_index or (
                    _constructor(args[fix.dec_index])[0] is None):
                return _VApp(f, args)
            self.tick()
            env = {} if type(f) is _VVar else f.env
            # stuck recursive calls keep the name the context binds to this
            # fixpoint, so they compare equal to calls written with it
            itself = (_VVar(Var(fix.name), fix) if self.ctxt.lookup_val(fix.name) is fix
                      else _Closure(fix, env))
            t, env = fix.body, {**env, fix.name: itself}

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
        v read back a second time, with those binders renamed to names not
        in `taken`, which holds every name either pass reads back."""
        self.scope, self.captures, self.taken = {}, {}, set()
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
                x = fresh_name(x, self.taken)
                self.taken.add(x)
            self.names[var] = Var(x) if x is not t.binder else var.term
            body = self.quote(v.body)
        else:
            self.names.pop(var, None)
            self.taken.add(x)
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
        self.taken.add(x)
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
            self.taken.update(used)
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

def _convert(left: _Evaluator, right: _Evaluator, u, v) -> bool:
    """Whether u, evaluated by left, and v, evaluated by right, read back to
    alpha-equivalent terms. Compares one weak-head level at a time: a spine's
    head, then its arguments left to right; a binder's domain, then its body."""
    pairs = [(u, v, 0)]
    while pairs:
        u, v, depth = pairs.pop()
        tu = type(u)
        if tu is not type(v):
            return False
        if tu is _VVar:
            if left.names.get(u, u.term).name != right.names.get(v, v.term).name:
                return False
        elif tu is _VApp:
            if len(u.args) != len(v.args):
                return False
            pairs.extend(zip(reversed(u.args), reversed(v.args), repeat(depth)))
            pairs.append((u.head, v.head, depth))
        elif tu is _VMatch or type(u.term) not in (Lam, Pi):
            # not evaluated inside: compare what the two sides read back to,
            # which is the term itself for one term in no environment
            if tu is _Closure and u.term is v.term and not u.env and not v.env:
                continue
            if not alpha_eq(left.read_back(u), right.read_back(v)):
                return False
        elif type(u.term) is not type(v.term):
            return False
        else:
            left.open(u)
            right.open(v)
            # the two bodies' variables read back as one name, unlike any source
            # or fresh name (its tag is negative) and any an enclosing binder pair
            # reads back as (its depth differs); the domains cannot mention them
            left.names[u.var] = right.names[v.var] = Var(Name("", -1 - depth))
            pairs.append((u.body, v.body, depth + 1))
            pairs.append((u.domain, v.domain, depth))
    return True


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
    ev = _Evaluator(ctxt, budget)
    return _within_depth_limit(lambda: ev.read_back(ev.eval(e, {})))


def _unfold_inert(t: Term, ctxt: Context) -> Term:
    """The universe, inductive or constructor that the name t is bound to,
    as evaluation would unfold it; otherwise t. A name bound to a fixpoint
    stays, as it does in evaluation until it unfolds, and so does a name
    bound to a def, whose value is worth comparing only once evaluated."""
    if type(t) is Var:
        value = ctxt.lookup_val(t.name)
        if type(value) in (Universe, Ind, Constr):
            return value
    return t


def _compare(a: Term, b: Term, ctxt: Context, budget: int | None):
    """None if a and b are definitionally equal; otherwise a function that
    reads back their normal forms, in that order, from the values the
    comparison built. Alpha-equal terms, once a name bound to an inert term
    is unfolded, are equal with no evaluation and no step drawn."""
    a, b = _unfold_inert(a, ctxt), _unfold_inert(b, ctxt)
    if alpha_eq(a, b):
        return None
    left, right = _Evaluator(ctxt, budget), _Evaluator(ctxt, budget)

    def convert():
        u, v = left.eval(a, {}), right.eval(b, {})
        return None if _convert(left, right, u, v) else (u, v)

    values = _within_depth_limit(convert)
    if values is None:
        return None

    def read_back():
        # The comparison drew each side's steps from what normalising that
        # side draws, and opened closures once, so finishing the read-back
        # draws the same total from the same budget and builds the same term;
        # the names it gave binder pairs do not matter, since the read-back
        # names each binder it enters afresh. b is read back first: typing
        # passes the expected type as b, and the side normalised first names
        # the refusal if both run out.
        expected = right.read_back(values[1])
        return left.read_back(values[0]), expected

    return lambda: _within_depth_limit(read_back)


def check_equal(a: Term, b: Term, ctxt: Context, budget: int | None = None) -> bool:
    """Definitional equality. Each side draws on a budget of its own, as it
    would when normalised on its own, and evaluates nothing that
    normalising it would not; alpha-equal sides evaluate nothing at all."""
    return _compare(a, b, ctxt, budget) is None


def mismatch(a: Term, b: Term, ctxt: Context,
             budget: int | None = None) -> tuple[Term, Term] | None:
    """None if a and b are definitionally equal, as check_equal decides;
    otherwise their normal forms, as normalise gives them, read back from
    the values the comparison already built instead of evaluated again."""
    differ = _compare(a, b, ctxt, budget)
    return None if differ is None else differ()
