"""Evaluation to normal form and definitional equality."""
from __future__ import annotations

import sys
import threading
import time
from bisect import bisect_left
from itertools import count

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from conftest import elaborated
from pielang import (
    App,
    BudgetExceeded,
    Constr,
    Context,
    Fix,
    Ind,
    Lam,
    Match,
    Name,
    Pi,
    Universe,
    Var,
    alpha_eq,
    check_equal,
    elaborate,
    normalise,
    parse_program,
    parse_term,
    pretty,
    subst,
)
from pielang.cli import check_source
from pielang.normalize import _Evaluator, mismatch
from pielang.syntax import apply_spine
from strategies import add_terms, lambda_terms, names, terms

EMPTY = Context()
SET, V, X1 = Universe(0), Name("v"), Name("x", 1)


def norm_in(file: str, source: str, extend: dict | None = None):
    result = elaborated(file)
    ctxt = result.context
    for name_text, type_text in (extend or {}).items():
        ctxt = ctxt.extend_type(Name(name_text), parse_term(type_text))
    return ctxt, normalise(parse_term(source), ctxt)


def numeral(ctxt: Context, k: int):
    nat = ctxt.lookup_val(Name("Nat"))
    t = Constr(1, nat)
    for _ in range(k):
        t = App(Constr(2, nat), t)
    return t


class TestReduction:
    def test_beta(self):
        t = normalise(parse_term("((λx:Set.x) A)"), EMPTY)
        assert alpha_eq(t, parse_term("A"))

    def test_beta_under_a_binder(self):
        t = normalise(parse_term("λy:Set.((λx:Set.x) y)"), EMPTY)
        assert alpha_eq(t, parse_term("λy:Set.y"))

    def test_stuck_application_stays(self):
        t = normalise(parse_term("(f a)"), EMPTY)
        assert alpha_eq(t, parse_term("(f a)"))

    # an application that a redex leaves in head position, or that beta binds
    # to a variable applied there, takes the arguments still waiting, after its own
    @pytest.mark.parametrize("source, normal", [
        ("((λx:Set.(f x)) A B)", "(f A B)"),
        ("((λx:Set.(f x x)) A B)", "(f A A B)"),
        ("((λx:Set.(f (g x))) A B)", "(f (g A) B)"),
        ("((λh:A -> A.(h b)) (f a))", "(f a b)"),
    ], ids=["one", "two", "nested", "bound"])
    def test_an_application_left_in_head_position_takes_the_waiting_arguments(
            self, source, normal):
        assert alpha_eq(normalise(parse_term(source), EMPTY), parse_term(normal))

    def test_definitions_unfold(self):
        ctxt, t = norm_in("add.pie", "two")
        assert alpha_eq(t, normalise(parse_term("(Succ (Succ Zero))"), ctxt))

    @pytest.mark.parametrize("kind", ["Universe", "Ind", "Constr", "Fix"])
    def test_a_term_evaluation_never_enters_is_its_own_normal_form(self, kind):
        # with no shortcut for it: evaluation and read-back draw no step
        ctxt = elaborated("add.pie").context
        nat = ctxt.lookup_val(Name("Nat"))
        t = {"Universe": Universe(2), "Ind": nat, "Constr": Constr(2, nat),
             "Fix": ctxt.lookup_val(Name("add"))}[kind]
        assert type(t).__name__ == kind
        assert normalise(t, ctxt, budget=0) is t


class TestRecursion:
    def test_add_zero_left(self):
        ctxt, t = norm_in("add.pie", "(add Zero x)", {"x": "Nat"})
        assert alpha_eq(t, parse_term("x"))

    def test_add_succ_unfolds_once(self):
        ctxt, t = norm_in("add.pie", "(add (Succ n) Zero)", {"n": "Nat"})
        assert alpha_eq(t, normalise(parse_term("(Succ (add n Zero))"), ctxt))

    def test_add_zero_zero(self):
        ctxt, t = norm_in("add.pie", "(add Zero Zero)")
        assert alpha_eq(t, normalise(parse_term("Zero"), ctxt))

    def test_fix_does_not_unfold_on_a_variable(self):
        ctxt, t = norm_in("add.pie", "(add n Zero)", {"n": "Nat"})
        assert alpha_eq(t, normalise(parse_term("(add n Zero)"), ctxt))

    def test_a_bound_partial_application_unfolds_once_given_its_decreasing_argument(self):
        source = ("Inductive Nat : Set := | Zero : Nat | Succ : Nat -> Nat;\n"
                  "def plus(x : Nat, y : Nat) : Nat { <λn:Nat.Nat> match y with "
                  "{ Zero => x; Succ => λp:Nat.(Succ (plus x p)) } };")
        ctxt = elaborate(parse_program(source, "plus.pie")).context
        assert ctxt.lookup_val(Name("plus")).dec_index == 1
        t = normalise(parse_term("((λg:Nat -> Nat.(g (Succ Zero))) (plus (Succ Zero)))"), ctxt)
        assert alpha_eq(t, normalise(parse_term("(Succ (Succ Zero))"), ctxt))

    def test_next_weekday(self):
        ctxt, t = norm_in("day.pie", "(next_weekday monday)")
        assert alpha_eq(t, normalise(parse_term("tuesday"), ctxt))

    def test_divergent_unfolding_hits_the_budget(self):
        from pielang import App, Fix, Lam, Pi, Var

        nat = elaborated("nat.pie").context
        nat_t = parse_term("Nat")
        f, x = Name("f"), Name("x")
        # guard-violating fixpoint built directly: f x = f (Succ x)
        bad = Fix(
            f, 0,
            Pi(x, nat_t, nat_t),
            Lam(x, nat_t, App(Var(f), App(parse_term("Succ"), Var(x)))),
        )
        with pytest.raises(BudgetExceeded):
            normalise(App(bad, parse_term("Zero")), nat, budget=5000)

    # evaluation and read-back take no Python frame per level, so a numeral
    # twice as deep as the nesting limit normalisation once had normalises
    # at the default recursion limit, and differs from its successor
    def test_deep_numerals_normalise_at_the_default_recursion_limit(self):
        assert sys.getrecursionlimit() == 1000
        ctxt = elaborated("nat.pie").context
        deep, deeper = numeral(ctxt, 2 * 4000), numeral(ctxt, 2 * 4000 + 1)
        assert alpha_eq(normalise(deep, ctxt), deep)
        assert check_equal(deep, deeper, ctxt) is False
        assert sys.getrecursionlimit() == 1000

    def test_alpha_equal_terms_convert_at_any_depth_without_evaluation(self):
        # the syntactic check answers first: no evaluator and no step, so
        # not even a budget of 0 is reached
        ctxt = elaborated("nat.pie").context
        deep = numeral(ctxt, 2 * 4000)
        assert check_equal(deep, deep, ctxt, budget=0)
        assert check_equal(deep, numeral(ctxt, 2 * 4000), ctxt, budget=0)

    def test_overlapping_normalisations_keep_the_depth_limit(self, monkeypatch):
        """A enters, B enters, A leaves, B leaves: the recursion limit B runs
        under, and the one it ends with, are the one it started with, since
        normalisation never changes it."""
        read_back, before, limits = _Evaluator.read_back, sys.getrecursionlimit(), []
        a_inside, b_inside, a_left = threading.Event(), threading.Event(), threading.Event()

        def pausing_read_back(ev, value):
            if threading.current_thread() is a:
                a_inside.set()
                b_inside.wait(timeout=30)
            else:
                b_inside.set()
                a_left.wait(timeout=30)
                limits.append(sys.getrecursionlimit())
            return read_back(ev, value)

        monkeypatch.setattr(_Evaluator, "read_back", pausing_read_back)
        term = App(Lam(V, SET, Var(V)), SET)
        a = threading.Thread(target=normalise, args=(term, EMPTY))
        b = threading.Thread(target=normalise, args=(term, EMPTY))
        try:
            a.start()
            assert a_inside.wait(timeout=30)
            b.start()
            a.join(timeout=30)
            a_left.set()
            b.join(timeout=30)
            after = sys.getrecursionlimit()
        finally:
            b_inside.set()
            a_left.set()
            a.join(timeout=30)
            b.join(timeout=30)
            sys.setrecursionlimit(before)
        assert limits == [before]
        assert after == before

    def test_add_is_linear_in_the_numerals(self):
        ctxt = elaborated("add.pie").context
        n = numeral(ctxt, 200)
        start = time.perf_counter()
        result = normalise(App(App(parse_term("add"), n), n), ctxt)
        elapsed = time.perf_counter() - start
        assert alpha_eq(result, numeral(ctxt, 400))
        assert elapsed < 0.5

    def test_long_files_check_in_linear_time(self):
        n = 2000
        lines = ["Axiom T : Set;"]
        lines += [f"Axiom a{j} : T;" for j in range(n)]
        lines += [f"def d{j}() : T {{ a{(7 * j) % n} }};" for j in range(n)]
        start = time.perf_counter()
        report = check_source("\n".join(lines))
        elapsed = time.perf_counter() - start
        assert report.exit_code == 0
        assert len(report.decls) == 2 * n + 3
        assert elapsed < 1.0

    @pytest.mark.parametrize("local", [True, False], ids=["binders", "declarations"])
    def test_contexts_extend_in_constant_time(self, local):
        n = 20000
        names, set_ = [Name(f"x{j}") for j in range(n)], Universe(0)
        ctxt = Context()
        start = time.perf_counter()
        for name in names:
            if local:
                ctxt = ctxt.extend_type(name, set_)
                assert ctxt.lookup_type(names[0]) is set_
            else:
                ctxt = ctxt.declare(name, set_)
        elapsed = time.perf_counter() - start
        assert ctxt.lookup_type(names[-1]) is set_
        assert elapsed < 1.0

    @pytest.mark.parametrize("dependent", [False, True], ids=["arrows", "pis"])
    def test_applications_check_in_linear_time(self, dependent):
        k = 400
        if dependent:
            type_ = "".join(f"Πx{j}:A." for j in range(k)) + "A"
        else:
            type_ = " -> ".join(["A"] * (k + 1))
        source = (f"Axiom A : Set; Axiom a : A; Axiom f : {type_};\n"
                  f"def r() : A {{ (f {' '.join(['a'] * k)}) }};")
        start = time.perf_counter()
        report = check_source(source)
        elapsed = time.perf_counter() - start
        assert report.exit_code == 0
        assert elapsed < 0.25

    def test_dependent_spines_check_in_one_pass(self):
        # the codomain mentions every binder, so the arguments must reach it;
        # one substitution per spine keeps this linear and within the default
        # recursion limit. Four times the arguments take about 4-7 times as
        # long; a substitution into the rest of the Π chain at every argument
        # takes over 20 times as long, or exhausts the recursion limit.
        def seconds(k: int) -> float:
            binders = "".join(f"Πx{j}:A." for j in range(k))
            source = (f"Axiom A : Set; Axiom a : A; Axiom B : {' -> '.join(['A'] * k)} -> Set;\n"
                      f"Axiom f : {binders}(B {' '.join(f'x{j}' for j in range(k))});\n"
                      f"def r() : (B {' '.join(['a'] * k)}) {{ (f {' '.join(['a'] * k)}) }};")
            best = float("inf")
            for _ in range(5):  # the fastest of five, so that a pause does not count
                start = time.perf_counter()
                report = check_source(source)
                best = min(best, time.perf_counter() - start)
                assert report.exit_code == 0, report.lines()
            return best

        assert seconds(400) < 12 * seconds(100)

    def test_only_capturing_binders_are_renamed(self):
        t = normalise(parse_term("λy:Set.((λx:Set.λy:Set.x) y)"), EMPTY)
        assert t.binder == Name("y") and t.body.binder != Name("y")
        assert alpha_eq(t, parse_term("λy:Set.λz:Set.y"))
        kept = normalise(parse_term("λA:Set.λx:A.((λy:A.y) x)"), EMPTY)
        assert pretty(kept) == "λA:Set.λx:A.x"
        # the outer y captures the free y and is renamed, so the inner y
        # no longer captures the outer one
        t = normalise(parse_term("((λw:Set.λy:Set.(w ((λu:Set.λy:Set.u) y))) y)"), EMPTY)
        assert t.binder != Name("y") and t.body.arg.binder == Name("y")
        assert alpha_eq(t, parse_term("λz:Set.(y λy:Set.z)"))

    def test_a_binder_is_renamed_only_where_it_would_capture(self):
        # a stuck match, which the read-back closes over its environment and
        # does not look inside, names x free under the binder x
        t = normalise(parse_term(
            "((λm:Set.λx:Set.(g m)) <λn:Set.Set> match z with { Zero => x })"), EMPTY)
        assert t.binder != Name("x")
        assert alpha_eq(t, parse_term("λy:Set.(g <λn:Set.Set> match z with { Zero => x })"))
        # a free x read back after the binder x's scope has ended is not captured
        kept = normalise(parse_term("(f (λx:Set.x) x)"), EMPTY)
        assert kept.fn.arg.binder == Name("x") and kept.arg == Var(Name("x"))

    @pytest.mark.parametrize("body, printed", [
        # a free name in the body
        (lambda w, x: apply_spine(Var(w), [Var(X1), Var(x)]), "λx'2:Set.(x x'1 x'2)"),
        # a binder the first pass kept, even one that binds nothing
        (lambda w, x: Lam(X1, SET, apply_spine(Var(w), [Var(x)])), "λx'2:Set.λx'1:Set.(x x'2)"),
        # a name picked for an enclosing binder
        (lambda w, x: App(Lam(V, SET, Lam(x, SET, apply_spine(Var(w), [Var(V), Var(x)]))), Var(x)),
         "λx'1:Set.λx'2:Set.(x x'1 x'2)"),
        # a free name of a term the evaluator does not look inside
        (lambda w, x: apply_spine(Var(w), [Ind(Name("N"), SET, ((Name("C"), Var(X1)),)), Var(x)]),
         "λx'2:Set.(x N x'2)"),
    ], ids=["free", "binder", "picked", "inert"])
    def test_renamed_binders_take_a_name_nothing_else_has(self, body, printed):
        # λx.body applied so that w stands for a free x, which the binder x
        # would capture; it takes the least tag no other name read back has
        w, x = Name("w"), Name("x")
        t = normalise(App(Lam(w, SET, Lam(x, SET, body(w, x))), Var(x)), EMPTY)
        assert pretty(t) == printed

    def test_nested_shadowing_binders_read_back_once_each(self):
        """λx. const (const (... (const x))) reads back as λx.λx.....λx.x
        with every inner binder capturing the outer x, so every inner one
        is renamed; reading a body back twice per capture takes 2^k time."""
        k = 24
        set_, x, a = parse_term("Set"), Name("x"), Name("A")
        const = Lam(a, set_, Lam(x, set_, Var(a)))
        body = Var(x)
        for _ in range(k):
            body = App(const, body)
        start = time.perf_counter()
        result = normalise(Lam(x, set_, body), EMPTY)
        elapsed = time.perf_counter() - start
        expected = Var(x)
        for i in range(k):
            expected = Lam(Name(f"y{i}"), set_, expected)
        assert alpha_eq(result, Lam(x, set_, expected))
        assert elapsed < 0.5


def anonymous_fix(body: str) -> Fix:
    """fix f[0] : Nat -> Nat. λx:Nat.body, built directly and bound to no
    name, so that it unfolds as a closure."""
    nat, f, x = parse_term("Nat"), Name("f"), Name("x")
    return Fix(f, 0, Pi(x, nat, nat), Lam(x, nat, parse_term(body)))


def least_budget(run) -> int:
    budget = 0
    while True:
        try:
            run(budget)
            return budget
        except BudgetExceeded:
            budget += 1


def succs(t) -> int:
    """The number of constructor applications around a numeral, counted
    without recursion."""
    k = 0
    while type(t) is App:
        t, k = t.arg, k + 1
    return k


class TestSteps:
    # Each reduction draws one step, in whatever order evaluation meets it.
    # These are the least budgets at which normalise, and check_equal against
    # the normal form, succeed; `n` is a variable of type Nat.
    @pytest.mark.parametrize("file, term, steps", [
        ("add.pie", "(add (Succ (Succ (Succ Zero))) (Succ (Succ (Succ (Succ Zero)))))", 31),
        ("add.pie", "(add n Zero)", 1),
        ("day.pie", "(next_weekday monday)", 5),
        ("nat.pie", App(anonymous_fix("<λn:Nat.Nat> match x with { Zero => Zero; Succ => λp:Nat.(f p) }"),
                        parse_term("(Succ (Succ Zero))")), 15),
        # the argument is evaluated though the λ discards it
        (None, "((λx:Set.B) ((λz:Set.z) A))", 2),
        ("add.pie", "<λm:Nat.Nat> match ((λy:Nat.y) n) with { Zero => two; Succ => λp:Nat.p }", 1),
        # substitution puts one argument object at both places, evaluated once
        (None, subst(Name("n"), parse_term("((λz:Set.z) A)"), parse_term("(P n n)")), 1),
    ], ids=["add", "stuck add", "next_weekday", "anonymous fix", "discarded argument", "stuck match",
            "shared argument"])
    def test_least_budget(self, file, term, steps):
        ctxt = (elaborated(file).context if file else EMPTY).extend_type(Name("n"), parse_term("Nat"))
        term = parse_term(term) if isinstance(term, str) else term
        normal = normalise(term, ctxt)
        assert least_budget(lambda budget: normalise(term, ctxt, budget)) == steps
        assert least_budget(lambda budget: check_equal(term, normal, ctxt, budget)) == steps

    def test_only_names_of_inert_terms_unfold_before_conversion(self):
        # a name bound to an inductive, a constructor or a universe is replaced
        # by it before the syntactic check, which draws no step; a def is not
        ctxt = elaborated("add.pie").context.declare(Name("U"), Universe(1), SET)
        nat = ctxt.lookup_val(Name("Nat"))
        for name, value in (("Nat", nat), ("Succ", Constr(2, nat)), ("U", SET)):
            assert check_equal(Var(Name(name)), value, ctxt, budget=0)
            assert check_equal(value, Var(Name(name)), ctxt, budget=0)
        # only a whole side is replaced; inside a term, evaluation unfolds the name
        with pytest.raises(BudgetExceeded):
            check_equal(parse_term("(Succ Zero)"), App(Constr(2, nat), Constr(1, nat)), ctxt, 0)
        with pytest.raises(BudgetExceeded):
            check_equal(parse_term("two"), ctxt.lookup_val(Name("two")), ctxt, budget=0)
        # add is bound to a fixpoint, which evaluation keeps as a name
        assert not check_equal(parse_term("add"), ctxt.lookup_val(Name("add")), ctxt, budget=0)

    def test_a_runaway_fixpoint_runs_out_of_steps_not_frames(self):
        # criterion 7's fixpoint: f x = f (Succ x) unfolds and reduces in the
        # loop, so it takes no Python frame per unfolding
        runaway = App(anonymous_fix("(f (Succ x))"), parse_term("Zero"))
        for budget in (300, 50_000):
            with pytest.raises(BudgetExceeded, match=f"the step budget of {budget}$"):
                normalise(runaway, elaborated("nat.pie").context, budget)

    @pytest.mark.parametrize("run", ["normalise", "check_equal"])
    def test_recursive_calls_take_no_frames(self, run):
        # no argument, scrutinee or level of the 3000-deep result takes a
        # Python frame
        ctxt, n = elaborated("add.pie").context, 1500
        call = App(App(parse_term("add"), numeral(ctxt, n)), numeral(ctxt, n))
        if run == "normalise":
            assert succs(normalise(call, ctxt)) == 2 * n
        else:
            assert check_equal(call, numeral(ctxt, 2 * n), ctxt)
            assert not check_equal(call, numeral(ctxt, 2 * n - 1), ctxt)


class TestCheckEqual:
    def test_definitional_equality_uses_normal_forms(self):
        ctxt = elaborated("add.pie").context
        assert check_equal(parse_term("(add two two)"), parse_term("four"), ctxt)

    def test_distinct_normal_forms_differ(self):
        ctxt = elaborated("add.pie").context
        assert not check_equal(parse_term("Zero"), parse_term("(Succ Zero)"), ctxt)

    def test_bound_variables_are_told_apart_by_their_binders(self):
        first = parse_term("λx:Set.λy:Set.x")
        assert not check_equal(first, parse_term("λx:Set.λy:Set.y"), EMPTY)
        assert check_equal(first, parse_term("λy:Set.λx:Set.y"), EMPTY)

    def test_one_inert_term_in_two_environments(self):
        # the same inductive term, closed over x := A on one side and x := B
        # on the other, is two different inductives
        ind = Ind(Name("N"), SET, ((Name("C"), Var(Name("x"))),))
        family = Lam(Name("x"), SET, ind)
        a, b = App(family, parse_term("A")), App(family, parse_term("B"))
        assert not check_equal(a, b, EMPTY)
        assert check_equal(a, App(family, parse_term("A")), EMPTY)
        # in no environment, the same term is equal to itself unread
        assert check_equal(App(Lam(V, SET, Var(V)), ind), ind, EMPTY)

    def test_a_duplicated_lambda_is_evaluated_once(self):
        """The argument λx.((λz.z) x) is bound to g, which occurs twice:
        normalising takes two beta steps, and comparing may not take more."""
        t = parse_term("((λg:Set.(P g g)) λx:Set.((λz:Set.z) x))")
        normal = normalise(t, EMPTY, budget=2)
        assert alpha_eq(normal, parse_term("(P λx:Set.x λx:Set.x)"))
        assert check_equal(t, t, EMPTY, budget=2)
        assert check_equal(t, normal, EMPTY, budget=2)
        with pytest.raises(BudgetExceeded):
            normalise(t, EMPTY, budget=1)


class TestIdempotence:
    @given(terms)
    @settings(max_examples=200, deadline=None)
    def test_normalise_is_idempotent(self, t):
        try:
            once = normalise(t, EMPTY, budget=300)
        except BudgetExceeded:
            assume(False)
        again = normalise(once, EMPTY, budget=300)
        assert alpha_eq(once, again)


def _conversion_agrees(a, b, ctxt):
    """check_equal decides exactly what comparing the normal forms decides,
    and never needs a larger budget than normalising both sides."""
    try:
        expected = alpha_eq(normalise(a, ctxt, budget=300), normalise(b, ctxt, budget=300))
    except BudgetExceeded:
        assume(False)
    assert check_equal(a, b, ctxt, budget=300) == expected


def _with_normal_form(t, ctxt):
    try:
        return t, normalise(t, ctxt, budget=300)
    except BudgetExceeded:
        assume(False)


class TestConversion:
    @given(terms, terms)
    @settings(max_examples=200, deadline=None)
    def test_empty_context(self, a, b):
        _conversion_agrees(a, b, EMPTY)

    @given(terms)
    @settings(max_examples=200, deadline=None)
    def test_empty_context_against_the_normal_form(self, t):
        _conversion_agrees(*_with_normal_form(t, EMPTY), EMPTY)

    @given(add_terms, add_terms)
    @settings(max_examples=200, deadline=None)
    def test_add_pie(self, a, b):
        _conversion_agrees(a, b, elaborated("add.pie").context)

    @given(add_terms)
    @settings(max_examples=200, deadline=None)
    def test_add_pie_against_the_normal_form(self, t):
        ctxt = elaborated("add.pie").context
        _conversion_agrees(*_with_normal_form(t, ctxt), ctxt)


def least_budget_within(run, cap: int = 300) -> int:
    """least_budget(run), found by bisection; a draw that needs more than cap
    steps is discarded."""
    def enough(budget: int) -> bool:
        try:
            run(budget)
            return True
        except BudgetExceeded:
            return False
    assume(enough(cap))
    return bisect_left(range(cap), True, key=enough)


def renamed_apart(t, tags=None):
    """A copy of t in which every binder has a name of its own, which no
    other binder and no free variable has."""
    tags = count(1) if tags is None else tags

    def fresh(x, *scope):
        new = Name("r", next(tags))
        return new, [renamed_apart(subst(x, Var(new), s), tags) for s in scope]

    match t:
        case Lam(binder=x, domain=d, body=b) | Pi(binder=x, domain=d, body=b):
            x, (b,) = fresh(x, b)
            return type(t)(x, renamed_apart(d, tags), b)
        case App(fn=f, arg=a):
            return App(renamed_apart(f, tags), renamed_apart(a, tags))
        case Fix(name=n, dec_index=k, signature=sig, body=b):
            n, (b,) = fresh(n, b)
            return Fix(n, k, renamed_apart(sig, tags), b)
        case Ind(name=n, arity=a, constructors=cs):
            n, types = fresh(n, *(ct for _, ct in cs))
            return Ind(n, renamed_apart(a, tags), tuple(zip((c for c, _ in cs), types)))
        case Constr(index=i, inductive=ind):
            return Constr(i, renamed_apart(ind, tags))
        case Match(carrier=c, scrutinee=sc, branches=bs):
            branches = tuple((bn, renamed_apart(bb, tags)) for bn, bb in bs)
            return Match(renamed_apart(c, tags), renamed_apart(sc, tags), branches)
    return t


# the strategies of TestConversion, each in its context
CONVERSION_CASES = pytest.mark.parametrize("strategy, file", [
    (terms, None), (lambda_terms, None), (add_terms, "add.pie"),
], ids=["terms", "lambda_terms", "add_terms"])


class TestConversionSteps:
    """A conversion draws on each side's budget no more than normalising that
    side does, and a failed one reads back both sides' normal forms from the
    values it built, within the same budget."""

    @CONVERSION_CASES
    @given(data=st.data())
    @settings(max_examples=500, deadline=None)
    def test_a_failed_conversion_gives_both_normal_forms(self, strategy, file, data):
        ctxt = elaborated(file).context if file else EMPTY
        a, b = data.draw(strategy), data.draw(strategy)
        budget = max(least_budget_within(lambda n: normalise(a, ctxt, n)),
                     least_budget_within(lambda n: normalise(b, ctxt, n)))
        forms = mismatch(a, b, ctxt, budget)
        normal_a, normal_b = normalise(a, ctxt), normalise(b, ctxt)
        assert (forms is None) == alpha_eq(normal_a, normal_b)
        if forms is not None:
            assert pretty(forms[0]) == pretty(normal_a)
            assert pretty(forms[1]) == pretty(normal_b)

    @CONVERSION_CASES
    @given(data=st.data())
    @settings(max_examples=500, deadline=None)
    def test_check_equal_needs_no_more_than_normalising_either_side(self, strategy, file, data):
        ctxt = elaborated(file).context if file else EMPTY
        a, b = data.draw(strategy), data.draw(strategy)
        budget = max(least_budget_within(lambda n: normalise(a, ctxt, n)),
                     least_budget_within(lambda n: normalise(b, ctxt, n)))
        expected = alpha_eq(normalise(a, ctxt), normalise(b, ctxt))
        assert check_equal(a, b, ctxt, budget) == expected

    @CONVERSION_CASES
    @given(data=st.data())
    @settings(max_examples=500, deadline=None)
    def test_a_copy_renamed_apart_converts_without_a_step(self, strategy, file, data):
        ctxt = elaborated(file).context if file else EMPTY
        t = data.draw(strategy)
        copy = renamed_apart(t)
        assert check_equal(t, copy, ctxt, budget=0)
        assert check_equal(copy, t, ctxt, budget=0)


# the binder fragment over add.pie's names, so that arguments unfold and reduce
add_lambda_terms = st.recursive(
    st.one_of(st.sampled_from(("a", "x", "y", "Zero", "Succ", "add", "two")).map(
        lambda text: Var(Name(text))), st.just(SET)),
    lambda children: st.one_of(st.builds(App, children, children),
                               st.builds(Lam, names, children, children),
                               st.builds(Pi, names, children, children)),
    max_leaves=10,
)


class TestSharing:
    """An evaluation keeps the value of each term object it evaluates in no
    environment, and of each name the context binds, for itself alone."""

    @pytest.mark.parametrize("strategy, file", [(lambda_terms, None), (add_lambda_terms, "add.pie")],
                             ids=["lambda_terms", "add_lambda_terms"])
    @given(data=st.data())
    @settings(max_examples=500, deadline=None)
    def test_a_shared_argument_takes_no_more_steps_than_a_copy_per_occurrence(
            self, strategy, file, data):
        # subst puts one object at every occurrence; the reparse of its
        # printed form has a copy at each
        ctxt = elaborated(file).context if file else EMPTY
        x, body, arg = data.draw(names), data.draw(strategy), data.draw(strategy)
        shared = subst(x, arg, body)
        copies = parse_term(pretty(shared))
        budget = least_budget_within(lambda n: normalise(copies, ctxt, n))
        assert alpha_eq(normalise(shared, ctxt, budget), normalise(copies, ctxt, budget))

    def test_one_term_in_two_contexts_has_each_contexts_normal_form(self):
        # d is a universe in one context and a def of A in the other; the same
        # term object, evaluated in each in turn, reads d each time afresh
        t = parse_term("(P d d)")
        contexts = {"(P Set Set)": EMPTY.declare(Name("d"), Universe(1), SET),
                    "(P A A)": EMPTY.declare(Name("d"), SET, Var(Name("A")))}
        for _ in range(2):
            for normal, ctxt in contexts.items():
                assert alpha_eq(normalise(t, ctxt), parse_term(normal))
                assert check_equal(t, parse_term(normal), ctxt)
                assert not check_equal(t, parse_term("(P B B)"), ctxt)
        # one object y, free in one place and bound by a λ in the other, in
        # either order of evaluation, is read in each place's own scope
        y, (P, Q, S, B) = Var(Name("y")), (Var(Name(text)) for text in "PQSB")
        inside = App(Lam(Name("y"), SET, apply_spine(Q, [y, App(S, y)])), B)
        for t, normal in ((apply_spine(P, [y, Lam(Name("y"), SET, y)]), "(P y λy:Set.y)"),
                          (apply_spine(P, [inside, y]), "(P (Q B (S B)) y)")):
            assert alpha_eq(normalise(t, EMPTY), parse_term(normal))


class TestBeta:
    @given(names, terms, terms, terms)
    @settings(max_examples=300, deadline=None)
    def test_beta_agrees_with_substitution(self, x, domain, body, arg):
        """Evaluation binds what substitution would insert: a redex whose
        argument is already normal normalises like its contractum."""
        try:
            arg = normalise(arg, EMPTY, budget=300)
            redex, contractum = App(Lam(x, domain, body), arg), subst(x, arg, body)
            assert alpha_eq(normalise(redex, EMPTY, budget=300),
                            normalise(contractum, EMPTY, budget=300))
            assert check_equal(redex, contractum, EMPTY, budget=300)
        except BudgetExceeded:
            assume(False)
