"""Normalization by evaluation and definitional equality.

Evaluation maps a term and an environment to a value: a closure (a term
paired with the environment it was met in) for λ, Π, universes,
inductives, constructors and fixpoints; or a neutral value for a stuck
variable, application or match. `_Evaluator.eval` is one loop over a term
and a stack of the argument values it is applied to: an application pushes
its argument's value and goes on with its head; beta pops one and extends a
closure's environment instead of substituting, context names unfold
(delta), matches reduce on a constructor-headed scrutinee (iota), and a
fixpoint unfolds only once its decreasing argument is constructor-headed (a
name bound to a fixpoint stays that name until then). An application whose
argument is being evaluated, and a match whose scrutinee is, wait as one
shape of frame on a stack, so no level of a term costs a Python frame.
Inductives, constructors, fixpoints and the carrier and
branches of a stuck match are not evaluated inside. One evaluator resolves
each name the context binds once, to one shared value, and keeps the value
of each argument it evaluates in no environment for its next occurrence.

A λ or Π closure evaluates its domain, and its body under a variable of
its own, the first time it is looked inside, and keeps both. `normalise`
reads a value back to a term, in one loop over a stack of tasks. Each
binder keeps its own name unless a free variable of the same name occurs in
its body. The read-back notes such captures on a first pass and, only if it
found one, reads the value back once more with those binders renamed to
names nothing else read back has.
Conversion (`check_equal`, and `mismatch`, which also gives the normal forms
of two terms that differ) first compares the two terms syntactically:
alpha-equal terms are equal with no evaluation. Otherwise it compares their
values one weak-head level at a time, in a loop over a stack of pairs, and
stops at the first mismatch; it reads back only what evaluation does not
look inside. When the two differ, their normal forms are read back from the
values the comparison built. Beta, delta, iota and fixpoint unfolding each
draw a step from a budget, so adversarial input raises BudgetExceeded
instead of hanging the kernel. Evaluation, read-back and conversion take no
Python frame per level of a term, so running out of steps is the only way a
normalisation stops short, and nothing here changes the recursion limit.
"""
from __future__ import annotations

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
    subst,  # not used here, but `pielang.normalize.subst` keeps resolving
)

class BudgetExceeded(CheckError):
    """Raised when normalization exceeds its reduction-step budget."""

    def __init__(self, budget: int):
        super().__init__(Diagnostic("Budget", f"normalization exceeded the step budget of {budget}"))
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


# what a bare name may be unfolded to before a comparison: each evaluates to itself
_INERT = (Universe, Ind, Constr)
# terms that evaluate to themselves paired with their environment
_CLOSED_TERMS = (Lam, Pi, Fix, *_INERT)

# the steps of a read-back, besides a value to read back
_APPLY, _CLOSE, _NAME, _BIND, _MATCH, _SUBST = "apply", "close", "name", "bind", "match", "subst"


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

    __slots__ = ("ctxt", "budget", "remaining", "globals", "closed", "names", "scope",
                 "captures", "taken")

    def __init__(self, ctxt: Context, budget: int | None):
        self.ctxt = ctxt
        self.budget = ctxt.budget if budget is None else budget
        self.remaining = self.budget
        self.globals, self.closed = {}, {}  # see _global and eval
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

    def _global(self, x: Name):
        """The value of x where no environment binds it, kept in `globals`: a variable
        for a fixpoint or no value, a closure for another closed term, else a def's term."""
        value = self.ctxt.lookup_val(x)
        g = self.globals[x] = (_VVar(Var(x), value) if value is None or type(value) is Fix
                               else _Closure(value, {}) if type(value) in _CLOSED_TERMS else value)
        return g

    def eval(self, t: Term, env: dict):
        """The value of t in env. The values a head is waiting to be applied to
        are one list, `args`, with the next argument last; an application waiting
        for its argument's value, and a match for its scrutinee's, wait as a frame
        (term, env, args) on a stack, not as a Python frame. An argument evaluated
        in no environment keeps its value in `closed`, by id, beside the term,
        which keeps the id."""
        waiting, closed, resolved, args = [], self.closed, self.globals, []
        while True:
            while True:  # the value f at the head of t
                if not env and (kept := closed.get(id(t))) is not None:
                    f = kept[1]
                    break
                kind = type(t)
                if kind is App or kind is Match:
                    # an application waits for its argument's value, a match for its scrutinee's
                    waiting.append((t, env, args))
                    t, args = t.arg if kind is App else t.scrutinee, []
                elif kind is Var:
                    f = env.get(t.name) if env else None
                    if f is None:
                        f = resolved.get(t.name) or self._global(t.name)
                        if type(f) is not _VVar:  # a delta step
                            self.tick()
                            if type(f) is not _Closure:
                                t, env = f, {}
                                continue
                    break
                elif kind in _CLOSED_TERMS:
                    f = _Closure(t, env)
                    break
                else:
                    raise TypeError(f"not a term: {t!r}")
            while True:  # f applied to args, then handed to the frame waiting for it
                if args:
                    if type(f) is _Closure and type(f.term) is Lam:
                        self.tick()
                        t, env = f.term.body, {**f.env, f.term.binder: args.pop()}
                        break
                    if type(f) is _VApp:
                        args += reversed(f.args)
                        f = f.head
                    fix = f.fix if type(f) is _VVar else f.term if type(f) is _Closure else None
                    if type(fix) is Fix and len(args) > fix.dec_index and (
                            _constructor(args[-1 - fix.dec_index])[0] is not None):
                        self.tick()
                        env = {} if type(f) is _VVar else f.env
                        # stuck recursive calls keep the name the context binds to this
                        # fixpoint, so they compare equal to calls written with it
                        g = resolved.get(fix.name) or self._global(fix.name)
                        itself = g if type(g) is _VVar and g.fix is fix else _Closure(fix, env)
                        t, env = fix.body, {**env, fix.name: itself}
                        break
                    f, args = _VApp(f, tuple(reversed(args))), []
                if not waiting:
                    return f
                t, env, args = waiting.pop()
                if type(t) is App:  # f is the value of its argument
                    if not env:
                        closed[id(t.arg)] = t.arg, f
                    t = t.fn
                    args.append(f)
                    break
                c, c_args = _constructor(f)  # t is a match, and f the value of its scrutinee
                if c is not None:
                    self.tick()
                    t = t.branches[c.index - 1][1]
                    args += reversed(c_args)
                    break
                f = _VMatch(t, f, env)

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
        """v as a term. One loop over a stack of tasks: a value to read back,
        or a step that closes a term over an environment, names a binder or
        builds a node from the terms last read back onto `done`. Values are
        read back in pre-order, a head before its arguments and a domain
        before its binder is named, as the two passes of read_back need."""
        tasks, done = [v], []
        while tasks:
            v = tasks.pop()
            kind = type(v)
            if kind is _VVar:
                t = self.names.get(v, v.term)
                if self.scope is not None:
                    self._occurs(t.name, v)
                done.append(t)
            elif kind is _VApp:
                for a in reversed(v.args):
                    tasks += _APPLY, a
                tasks.append(v.head)
            elif v is _APPLY:  # the head and the argument are read back
                a = done.pop()
                done[-1] = App(done[-1], a)
            elif kind is _Closure and type(v.term) in (Lam, Pi):
                self.open(v)
                tasks += (_NAME, v), v.domain
            elif kind is _VMatch:
                m = v.term
                tasks.append((_MATCH, m))
                tasks.extend([(_CLOSE, body, v.env) for _, body in reversed(m.branches)])
                tasks += v.scrutinee, (_CLOSE, m.carrier, v.env)
            elif kind is _Closure or (step := v[0]) is _CLOSE:  # t with env's values read back
                t, env = (v.term, v.env) if kind is _Closure else v[1:]
                names = ()
                if env or self.scope:
                    used = free_vars(t)
                    if self.scope:
                        self.taken.update(used)
                        for x in used.intersection(self.scope):
                            if x not in env:
                                self._occurs(x, None)
                    names = [x for x in env if x in used]
                if names:
                    tasks.append((_SUBST, t, names))
                    tasks.extend([env[x] for x in reversed(names)])
                else:
                    done.append(t)
            elif step is _NAME:  # the domain is read back: name the binder
                v = v[1]
                t, var = v.term, v.var
                x = t.binder
                if self.scope is None:
                    if any(self._keeps_name(r) for r in self.captures.get(var, ())):
                        x = fresh_name(x, self.taken)
                        self.taken.add(x)
                    self.names[var] = Var(x) if x is not t.binder else var.term
                else:
                    self.names.pop(var, None)
                    self.taken.add(x)
                    self.scope.setdefault(x, []).append(var)
                tasks += (_BIND, t, x), v.body
            elif step is _BIND:  # the body is read back too
                _, t, x = v
                body, domain = done.pop(), done[-1]
                if self.scope is not None:
                    self.scope[x].pop()
                done[-1] = (t if x is t.binder and domain is t.domain and body is t.body
                            else type(t)(x, domain, body))
            elif step is _MATCH:
                branches = v[1].branches
                parts = done[-2 - len(branches):]
                del done[-2 - len(branches):]
                done.append(Match(parts[0], parts[1], tuple(
                    (cn, body) for (cn, _), body in zip(branches, parts[2:]))))
            else:  # _SUBST: the values of names are read back
                _, t, names = v
                terms = done[-len(names):]
                del done[-len(names):]
                done.append(_subst_all({x: s for x, s in zip(names, terms)
                                        if not (type(s) is Var and s.name == x)}, t))
        return done[0]

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

def normalise(e: Term, ctxt: Context, budget: int | None = None) -> Term:
    ev = _Evaluator(ctxt, budget)
    return ev.read_back(ev.eval(e, {}))


def _unfold_inert(t: Term, ctxt: Context) -> Term:
    """The universe, inductive or constructor that the name t is bound to,
    as evaluation would unfold it; otherwise t. A name bound to a fixpoint
    stays, as it does in evaluation until it unfolds, and so does a name
    bound to a def, whose value is worth comparing only once evaluated."""
    if type(t) is Var:
        value = ctxt.lookup_val(t.name)
        if type(value) in _INERT:
            return value
    return t


def _compare(a: Term, b: Term, ctxt: Context, budget: int | None):
    """None if a and b are definitionally equal; otherwise the evaluator of
    each side and the value it built, in that order. Alpha-equal terms, once a
    name bound to an inert term is unfolded, are equal with no evaluation and
    no step drawn."""
    a, b = _unfold_inert(a, ctxt), _unfold_inert(b, ctxt)
    if alpha_eq(a, b):
        return None
    left, right = _Evaluator(ctxt, budget), _Evaluator(ctxt, budget)
    u, v = left.eval(a, {}), right.eval(b, {})
    return None if _convert(left, right, u, v) else (left, u, right, v)


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
    if differ is None:
        return None
    left, u, right, v = differ
    # The comparison drew each side's steps from what normalising that side
    # draws, and opened closures once, so finishing the read-back draws the
    # same total and builds the same term; the read-back names each binder it
    # enters afresh. b is read back first: typing passes the expected type as
    # b, and the side normalised first names the refusal if both run out.
    expected = right.read_back(v)
    return left.read_back(u), expected
