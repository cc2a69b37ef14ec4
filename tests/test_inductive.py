"""Inductive declarations, constructor typing, and dependent matches."""
from __future__ import annotations

import pytest

from conftest import elaborated
from pielang import (
    CheckError,
    Constr,
    Ind,
    Name,
    Pi,
    Universe,
    alpha_eq,
    elaborate,
    normalise,
    parse_program,
    parse_term,
    subst,
    type_check,
)
from pielang.inductive import case_type, param_count, positive_check, upsilon

NAT = Name("Nat")


def _nat_ind():
    return elaborated("nat.pie").context.lookup_val(NAT)


class TestArity:
    def test_terminal_universe_of_a_plain_sort(self):
        assert upsilon(Universe(0)) == Universe(0)

    def test_terminal_universe_under_binders(self):
        assert upsilon(parse_term("Nat -> Nat -> Set")) == Universe(0)

    def test_non_universe_terminal_rejected(self):
        with pytest.raises(CheckError) as err:
            upsilon(parse_term("Nat -> Nat"))
        assert err.value.diagnostic.rule == "T-Ind"

    def test_param_count(self):
        assert param_count(Universe(0)) == 0
        assert param_count(parse_term("Nat -> Nat -> Set")) == 2


class TestPositivity:
    def test_plain_recursive_argument_is_fine(self):
        assert positive_check(parse_term("Nat -> Nat"), NAT, 0) == []

    def test_dependent_domain_must_not_mention_the_inductive(self):
        with pytest.raises(CheckError) as err:
            positive_check(parse_term("Πn:Nat.(P n)"), NAT, 0)
        assert err.value.diagnostic.rule == "T-Ind"

    def test_target_must_be_the_inductive(self):
        with pytest.raises(CheckError) as err:
            positive_check(parse_term("Nat -> Bool"), NAT, 0)
        assert err.value.diagnostic.rule == "T-Ind"

    def test_target_must_be_saturated(self):
        with pytest.raises(CheckError) as err:
            positive_check(parse_term("(Nat x)"), NAT, 0)
        assert err.value.diagnostic.rule == "T-Ind"

    def test_negative_occurrence_is_a_warning(self):
        warnings = positive_check(parse_term("(Nat -> Nat) -> Nat"), NAT, 0)
        assert [w.severity for w in warnings] == ["warning"]


class TestConstructors:
    def test_zero_and_succ_types(self):
        ctxt = elaborated("nat.pie").context
        nat = _nat_ind()
        assert alpha_eq(type_check(ctxt, Constr(1, nat)), nat)
        succ_t = type_check(ctxt, Constr(2, nat))
        assert alpha_eq(succ_t, Pi(Name("m"), nat, nat))

    def test_parametric_constructor_type(self):
        result = elaborated("day.pie")
        eq_refl_t = result.context.lookup_type(Name("eq_refl"))
        eq = result.context.lookup_val(Name("eq"))
        expected = subst(Name("eq"), eq, parse_term("ΠT:Set.Πx:T.(eq T x x)"))
        assert alpha_eq(eq_refl_t, expected)

    def test_out_of_bounds_index(self):
        ctxt = elaborated("nat.pie").context
        with pytest.raises(CheckError) as err:
            type_check(ctxt, Constr(5, _nat_ind()))
        assert err.value.diagnostic.rule == "T-Constr"

    def test_constructor_of_a_non_inductive(self):
        with pytest.raises(CheckError) as err:
            type_check(elaborated("nat.pie").context, Constr(1, Universe(0)))
        assert err.value.diagnostic.rule == "T-Constr"

    def test_an_unregistered_ill_formed_inductive_is_checked(self):
        bad = Ind(Name("Bad"), Universe(0), ((Name("C"), Universe(0)),))
        with pytest.raises(CheckError) as err:
            type_check(elaborated("nat.pie").context, Constr(1, bad))
        assert err.value.diagnostic.rule == "T-Ind"


class TestCaseTypes:
    def test_constant_carrier(self):
        ctxt = elaborated("nat.pie").context
        nat = _nat_ind()
        carrier = parse_term("λn:Nat.Nat")
        zero_case = normalise(case_type(nat, carrier, Constr(1, nat)), ctxt)
        assert alpha_eq(zero_case, nat)
        succ_closed = subst(NAT, nat, nat.constructors[1][1])
        succ_case = normalise(case_type(succ_closed, carrier, Constr(2, nat)), ctxt)
        assert alpha_eq(succ_case, Pi(Name("m"), nat, nat))

    def test_equality_eliminator_case(self):
        # matching a proof of (eq T x y) with carrier returning (P q)
        # obliges the refl branch to prove ΠT:Set.Πx:T.(P x)
        result = elaborated("day.pie")
        ctxt = result.context
        eq = ctxt.lookup_val(Name("eq"))
        closed = subst(eq.name, eq, eq.constructors[0][1])
        carrier = parse_term("λT:Set.λp:T.λq:T.λe:(eq T p q).(P q)")
        branch_type = normalise(case_type(closed, carrier, Constr(1, eq)), ctxt)
        assert alpha_eq(branch_type, parse_term("ΠT:Set.Πx:T.(P x)"))


class TestMatchChecking:
    def _check(self, source: str):
        return elaborate(parse_program(source))

    def test_branches_must_follow_declaration_order(self):
        result = self._check(
            "Inductive Nat : Set := | Zero : Nat | Succ : Nat -> Nat;"
            "def f(n : Nat) : Nat {"
            " <λx:Nat.Nat> match n with { Succ => λm:Nat.m; Zero => Zero } };"
        )
        assert [d.rule for d in result.diagnostics] == ["T-Match"]

    def test_every_constructor_needs_a_branch(self):
        result = self._check(
            "Inductive Nat : Set := | Zero : Nat | Succ : Nat -> Nat;"
            "def f(n : Nat) : Nat {"
            " <λx:Nat.Nat> match n with { Zero => Zero } };"
        )
        assert [d.rule for d in result.diagnostics] == ["T-Match"]

    def test_carrier_must_be_a_family_over_the_inductive(self):
        result = self._check(
            "Inductive Nat : Set := | Zero : Nat | Succ : Nat -> Nat;"
            "def f(n : Nat) : Nat {"
            " <λx:Set.x> match n with { Zero => Zero; Succ => λm:Nat.m } };"
        )
        assert [d.rule for d in result.diagnostics] == ["T-Match"]

    def test_scrutinee_must_be_inductive(self):
        result = self._check(
            "Inductive Nat : Set := | Zero : Nat | Succ : Nat -> Nat;"
            "def f(s : Set) : Set {"
            " <λx:Nat.Set> match s with { Zero => s; Succ => λm:Nat.s } };"
        )
        assert [d.rule for d in result.diagnostics] == ["T-Match"]

    def test_indexed_family_match_accepts(self):
        assert not elaborated("day.pie").diagnostics
