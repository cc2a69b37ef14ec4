"""Structural-recursion guard and fixpoint typing."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import elaborated
from pielang import (
    App,
    CheckError,
    Fix,
    Lam,
    Name,
    Pi,
    Universe,
    Var,
    parse_term,
    type_check,
)
from pielang.cli import check_source
from pielang.termination import guard_check, infer_fix_index
from strategies import F, GUARD_POOL as POOL, XK, deconstruct, recursion_bodies


def passes(guarded, body) -> bool:
    try:
        guard_check(F, 0, XK, frozenset(guarded), body)
        return True
    except CheckError:
        return False


class TestGuard:
    def test_call_on_the_raw_decreasing_argument_fails(self):
        assert not passes([], App(Var(F), Var(XK)))

    def test_call_after_deconstruction_passes(self):
        assert passes([], deconstruct(XK, App(Var(F), Var(Name("m")))))

    def test_call_on_an_unrelated_variable_fails(self):
        assert not passes([], deconstruct(XK, App(Var(F), Var(Name("p")))))

    def test_function_escaping_as_a_value_fails(self):
        body = deconstruct(XK, App(Var(Name("g")), Var(F)))
        with pytest.raises(CheckError) as err:
            guard_check(F, 0, XK, frozenset(), body)
        assert err.value.diagnostic.rule == "Guard"
        assert "escapes" in err.value.diagnostic.message

    # a call's arguments are checked before its argument k is, so f (g f)
    # reports f escaping inside the argument, as a recursive walk met it first
    def test_a_call_reports_its_arguments_before_its_decreasing_argument(self):
        body = deconstruct(XK, App(Var(F), App(Var(Name("g")), Var(F))))
        with pytest.raises(CheckError) as err:
            guard_check(F, 0, XK, frozenset(), body)
        assert "escapes" in err.value.diagnostic.message

    def test_call_argument_must_be_a_variable(self):
        # f (g m) is rejected even when m is guarded
        body = deconstruct(XK, App(Var(F), App(Var(Name("g")), Var(Name("m")))))
        assert not passes([], body)

    def test_matching_a_guarded_variable_extends_the_set(self):
        inner = deconstruct(Name("m"), App(Var(F), Var(Name("m"))))
        assert passes([], deconstruct(XK, inner))

    def test_bodies_without_f_are_always_fine(self):
        assert passes([], deconstruct(Name("p"), Var(Name("m"))))

    @given(
        recursion_bodies,
        st.sets(st.sampled_from(POOL)),
        st.sets(st.sampled_from(POOL)),
    )
    @settings(max_examples=200)
    def test_monotone_in_the_guarded_set(self, body, small, extra):
        if passes(small, body):
            assert passes(small | extra, body)


NAT = "Inductive Nat : Set := | Zero : Nat | Succ : Nat -> Nat;\n"


class TestShadowing:
    """Inside a binder's scope, a name it binds is no longer the recursive
    function, the decreasing argument or a guarded variable."""

    M = Name("m")

    def test_a_binder_hides_a_guarded_variable(self):
        # the inner m is (g m), not the predecessor
        inner = Lam(self.M, Universe(0), App(Var(F), Var(self.M)))
        assert not passes([], deconstruct(XK, App(inner, App(Var(Name("g")), Var(self.M)))))

    def test_a_binder_hides_the_decreasing_argument(self):
        body = Lam(XK, Universe(0), deconstruct(XK, App(Var(F), Var(self.M))))
        assert not passes([], body)

    def test_a_binder_hides_the_recursive_function(self):
        # f is free in the domain only; in the body, f is the binder
        shadowing = Lam(F, App(Var(F), Var(self.M)), App(Var(F), Var(XK)))
        assert passes([], deconstruct(XK, shadowing))

    @pytest.mark.parametrize("inner, passing", [(F, True), (Name("g"), False)],
                             ids=["same-name", "other-name"])
    def test_a_nested_fixpoint_hides_the_recursive_function_by_its_own_name(
            self, inner, passing):
        # the signature calls f on the guarded m, so the walk enters the inner
        # fixpoint; (f k) in its body calls the outer f only if the inner
        # fixpoint has another name, and k is not guarded
        k = Var(Name("k"))
        nested = Fix(inner, 0, App(Var(F), Var(self.M)), App(Var(F), k))
        body = deconstruct(XK, nested)
        if passing:
            guard_check(F, 0, XK, frozenset(), body)
        else:
            with pytest.raises(CheckError) as err:
                guard_check(F, 0, XK, frozenset(), body)
            assert err.value.diagnostic.rule == "Guard"

    def test_a_later_parameter_hides_an_earlier_one(self):
        # only the second n is matched on, so the first does not decrease
        call = App(App(Var(F), Var(self.M)), Var(self.M))
        body = Lam(XK, Universe(0), Lam(XK, Universe(0), deconstruct(XK, call)))
        assert infer_fix_index(F, body) == 1

    def test_recursion_on_a_shadowing_larger_variable_is_rejected(self):
        source = NAT + (
            "def loop(n : Nat) : Nat { <λx:Nat.Nat> match n with "
            "{ Zero => Zero ; Succ => λm:Nat.((λm:Nat.(loop m)) (Succ m)) } };"
        )
        report = check_source(source)
        assert [d.rule for d in report.diagnostics] == ["Guard"]

    def test_a_shadowed_name_is_not_a_recursive_call(self):
        # the Zero branch applies a local f, not the function being defined
        source = NAT + (
            "def f(n : Nat) : Nat { <λx:Nat.Nat> match n with "
            "{ Zero => ((λf:Πx:Nat.Nat.(f Zero)) (λx:Nat.x)) ; Succ => λm:Nat.(f m) } };\n"
            "def one() : Nat { (f (Succ Zero)) };"
        )
        report = check_source(source, normalize_name="one")
        assert report.exit_code == 0, report.lines()
        assert report.extra_lines == ["one ~> Zero"]


class TestInference:
    def _fix(self, file: str, name: str) -> Fix:
        value = elaborated(file).context.lookup_val(Name(name))
        assert isinstance(value, Fix)
        return value

    def test_first_argument(self):
        assert self._fix("add.pie", "add").dec_index == 0

    def test_fourth_argument(self):
        assert self._fix("nat_ind.pie", "nat_ind").dec_index == 3

    def test_no_argument_works(self):
        body = Lam(XK, parse_term("Nat"), App(Var(F), Var(XK)))
        with pytest.raises(CheckError) as err:
            infer_fix_index(F, body)
        assert err.value.diagnostic.rule == "Guard"

    def test_the_guard_is_reported_before_the_declared_type(self):
        # the index is inferred before the declared type is checked, so the
        # unbound Bogus does not hide the failed guard
        report = check_source(NAT + "def f(n : Nat) : Bogus { (f n) };")
        assert [d.rule for d in report.diagnostics] == ["Guard"]


class TestCheckFix:
    def test_well_typed_fixpoint_has_its_signature(self):
        ctxt = elaborated("nat.pie").context
        nat = parse_term("Nat")
        sig = Pi(XK, nat, nat)
        fix = Fix(F, 0, sig, Lam(XK, nat, Var(XK)))
        assert type_check(ctxt, fix) == sig

    def test_decreasing_index_must_name_an_argument(self):
        ctxt = elaborated("nat.pie").context
        nat = parse_term("Nat")
        sig = Pi(XK, nat, nat)
        fix = Fix(F, 5, sig, Lam(XK, nat, Var(XK)))
        with pytest.raises(CheckError) as err:
            type_check(ctxt, fix)
        assert err.value.diagnostic.rule == "T-Fix"

    def test_the_guard_follows_a_renamed_self_name(self):
        # the context binds f, so the fixpoint's f is renamed in its body;
        # the guard must still see (f n) as a call on the raw argument
        nat = parse_term("Nat")
        ctxt = elaborated("nat.pie").context.extend_type(F, nat)
        fix = Fix(F, 0, Pi(XK, nat, nat), Lam(XK, nat, App(Var(F), Var(XK))))
        with pytest.raises(CheckError) as err:
            type_check(ctxt, fix)
        assert err.value.diagnostic.rule == "Guard"

    def test_a_leading_lambda_that_rebinds_the_self_name_hides_it(self):
        # (f n) calls the argument f, not the fixpoint, so no guard applies to it
        ctxt = elaborated("nat.pie").context
        sig = parse_term("Πf:(Nat -> Nat).Πn:Nat.Nat")
        body = parse_term("λf:(Nat -> Nat).λn:Nat.(f n)")
        assert infer_fix_index(F, body) == 0
        assert type_check(ctxt, Fix(F, 1, sig, body)) == sig

    def test_body_must_match_the_signature(self):
        ctxt = elaborated("nat.pie").context
        nat = parse_term("Nat")
        sig = Pi(XK, nat, nat)
        fix = Fix(F, 0, sig, Lam(XK, nat, parse_term("Zero")))
        assert type_check(ctxt, fix) == sig
        bad = Fix(F, 0, Pi(XK, nat, Universe(0)), Lam(XK, nat, Var(XK)))
        with pytest.raises(CheckError) as err:
            type_check(ctxt, bad)
        assert err.value.diagnostic.rule == "T-Fix"
