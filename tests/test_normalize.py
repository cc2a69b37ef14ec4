"""Evaluation to normal form and definitional equality."""
from __future__ import annotations

import time

import pytest
from hypothesis import assume, given, settings

from conftest import elaborated
from pielang import (
    App,
    BudgetExceeded,
    Constr,
    Context,
    Lam,
    Name,
    Var,
    alpha_eq,
    check_equal,
    normalise,
    parse_term,
    pretty,
    subst,
)
from pielang.cli import check_source
from pielang.normalize import _DEPTH_LIMIT
from strategies import add_terms, names, terms

EMPTY = Context()


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

    def test_definitions_unfold(self):
        ctxt, t = norm_in("add.pie", "two")
        assert alpha_eq(t, normalise(parse_term("(Succ (Succ Zero))"), ctxt))


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

    def test_depth_limit_reports_the_depth_limit(self):
        ctxt = elaborated("nat.pie").context
        deep = numeral(ctxt, 2 * _DEPTH_LIMIT)
        for run in (lambda: normalise(deep, ctxt), lambda: check_equal(deep, deep, ctxt)):
            with pytest.raises(BudgetExceeded) as err:
                run()
            assert str(err.value) == (
                f"normalization exceeded the nesting depth limit of {_DEPTH_LIMIT}"
            )

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
