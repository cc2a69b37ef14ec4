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
from pielang.cli import check_source
from pielang.inductive import case_type, param_count, positive_check, upsilon

NAT = Name("Nat")
NAT_SOURCE = "Inductive Nat : Set := | Zero : Nat | Succ : Nat -> Nat;\n"
EQ_SOURCE = NAT_SOURCE + "Inductive Eq : Nat -> Nat -> (Type 1) := | Eq_Rfl : Πn:Nat.(Eq n n);\n"


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

    def test_the_inductive_must_not_occur_in_a_target_argument(self):
        assert check_source("Inductive T : Set -> Set := | c : Πx:Set.(T (T x));").lines() == [
            "error[T-Ind] <input>:1:11: T occurs in an argument of the constructor target"]

    def test_a_binder_named_like_the_inductive_hides_it(self):
        # the target is the bound B, not the inductive: accepting it gave a
        # closed inhabitant of Empty, and a verdict that renaming B changed
        source = ("Inductive Empty : Set := ;\nInductive B : Set := | mk : ΠB:Set.B;\n"
                  "def boom() : Empty { (mk Empty) };")
        assert check_source(source, prelude=False).lines()[0] == (
            "error[T-Ind] <input>:2:11: constructor does not end in an application of B")
        with pytest.raises(CheckError) as err:
            positive_check(parse_term("ΠNat:Set.Nat"), NAT, 0)
        assert err.value.diagnostic.message == "constructor does not end in an application of Nat"

    @pytest.mark.parametrize("inner", ["Nat", "X"])
    def test_no_negative_occurrence_under_a_binder_named_like_the_inductive(self, inner):
        # under ΠNat, Nat is the bound one, so only the renamed binder leaves Nat negative
        ctor = parse_term(f"(P Nat (Π{inner}:Set.(Nat -> M))) -> Nat")
        warnings = positive_check(ctor, NAT, 0)
        assert len(warnings) == (inner == "X")


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

    @pytest.mark.parametrize("carrier, line", [
        ("Zero", "carrier is not a type family over the inductive"),
        ("λx:Nat.λy:Nat.Nat", "carrier does not return a universe"),
        ("λx:Nat.Zero", "carrier does not return a universe"),
        ("λx:Set.x", "carrier has the wrong type (expected Nat -> Set, got Πx:Set.Set)"),
    ], ids=["not a family", "two binders", "no universe", "wrong type"])
    def test_carrier_shape_and_type(self, carrier, line):
        source = NAT_SOURCE + (f"def f(n : Nat) : Nat {{ <{carrier}> match n with "
                               "{ Zero => Zero; Succ => λm:Nat.m } };")
        assert check_source(source).lines() == [f"error[T-Match] <input>:2:24: {line}"]

    def test_a_carrier_of_the_wrong_type_over_an_indexed_family(self):
        source = EQ_SOURCE + (
            "def f(a : Nat, b : Nat, e : (Eq a b)) : Set "
            "{ <λx:Nat.λy:Nat.λq:(Eq y x).Set> match e with { Eq_Rfl => λn:Nat.Nat } };"
        )
        assert check_source(source).lines() == [
            "error[T-Match] <input>:3:47: carrier has the wrong type (expected "
            "Πx'3:Nat.Πx'2:Nat.(Eq x'3 x'2) -> (Type 1), got Πx:Nat.Πy:Nat.Πq:(Eq y x).(Type 1))"
        ]

    def test_the_expected_carrier_is_reported_in_normal_form(self):
        # the arity names the def N; the report shows what it unfolds to
        source = NAT_SOURCE + (
            "def N() : Set { Nat };\nInductive I : N -> Set := | c : (I Zero);\n"
            "def f(i : (I Zero)) : Nat { <λx:Nat.λy:Set.Set> match i with { c => Zero } };"
        )
        assert check_source(source).lines() == [
            "error[T-Match] <input>:4:29: carrier has the wrong type "
            "(expected Πx'2:Nat.(I x'2) -> (Type 1), got Πx:Nat.Πy:Set.(Type 1))"
        ]

    # Match typing names a constructor's or an arity's binders apart before it
    # applies a term to them, so none captures another or a carrier's free name.
    # Each of (l) and (m) was accepted and proved a false equation.
    CAPTURE_NAT = ("Inductive Nat : Set := | Zero : Nat | Succ : Πk:Nat.Nat;\n"
                   "Inductive Eq : Nat -> Nat -> Set := | Rfl : Πn:Nat.(Eq n n);\n")

    def test_a_constructor_binder_does_not_capture_a_carrier_name(self):  # (l)
        source = self.CAPTURE_NAT + (
            "def F(k : Nat, x : Nat) : Nat { <λy:Nat.Nat> match x with "
            "{ Zero => (Succ k); Succ => λj:Nat.(Succ j) } };\n"
            "def bad(k : Nat, n : Nat) : (Eq (Succ k) (F k n)) { <λx:Nat.(Eq (Succ k) (F k x))> "
            "match n with { Zero => (Rfl (Succ k)); Succ => λm:Nat.(Rfl (Succ m)) } };\n"
            "def wrong() : (Eq (Succ Zero) (Succ (Succ Zero))) { (bad Zero (Succ (Succ Zero))) };")
        assert check_source(source, prelude=False).lines() == [
            "error[T-Match] <input>:4:53: branch Succ has the wrong type (expected "
            "Πk'1:Nat.(Eq (Succ k) (Succ k'1)), got Πm:Nat.(Eq (Succ m) (Succ m)))",
            "error[T-Var] <input>:5:54: unbound variable bad",
        ]

    def test_constructor_binders_that_share_a_name_stay_apart(self):  # (m)
        source = self.CAPTURE_NAT + (
            "Inductive P : Set := | mk : Πx:Nat.Πx:Nat.P;\n"
            "def fst(p : P) : Nat { <λq:P.Nat> match p with { mk => λa:Nat.λb:Nat.a } };\n"
            "def snd(p : P) : Nat { <λq:P.Nat> match p with { mk => λa:Nat.λb:Nat.b } };\n"
            "def same(p : P) : (Eq (fst p) (snd p)) { <λq:P.(Eq (fst q) (snd q))> "
            "match p with { mk => λx:Nat.λx:Nat.(Rfl x) } };\n"
            "def wrong() : (Eq Zero (Succ Zero)) { (same (mk Zero (Succ Zero))) };")
        assert [(d.rule, d.span.start_line) for d in check_source(source, prelude=False).diagnostics
                if d.severity == "error"] == [("T-Match", 6), ("T-Var", 7)]

    def test_arity_binders_that_share_a_name_stay_apart(self):  # (n)
        source = (
            "Inductive Eq : ΠA:Set.Πx:A.Πx:A.Set := | Rfl : ΠA:Set.Πx:A.(Eq A x x);\n"
            "def sym(A : Set, a : A, b : A, p : (Eq A a b)) : (Eq A b a) "
            "{ <λB:Set.λc:B.λd:B.λq:(Eq B c d).(Eq B d c)> match p with "
            "{ Rfl => λB:Set.λc:B.(Rfl B c) } };")
        report = check_source(source, prelude=False)
        assert report.exit_code == 0, report.lines()

    def test_scrutinee_type_must_apply_the_inductive_fully(self):
        # no source program reaches this: (Eq Zero) is not a type, so no
        # declaration can give a term that type; a hand-built context can
        ctxt = elaborated("eq_nat.pie").context.extend_type(Name("e"), parse_term("(Eq Zero)"))
        match = parse_term("<λx:Nat.λy:Nat.λq:(Eq x y).Set> match e with { Eq_Rfl => λn:Nat.Nat }")
        with pytest.raises(CheckError) as err:
            type_check(ctxt, match)
        assert err.value.diagnostic.render() == (
            "error[T-Match] <input>:1:1: scrutinee type does not fully apply the inductive")
