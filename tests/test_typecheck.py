"""Core typing rules and top-level elaboration."""
from __future__ import annotations

import pytest

from conftest import elaborated, entry_type
from pielang import (
    CheckError,
    Context,
    Name,
    Pi,
    Universe,
    Var,
    alpha_eq,
    check_equal,
    elaborate,
    parse_program,
    parse_term,
    type_check,
)

EMPTY = Context()


class TestRules:
    def test_universe_hierarchy(self):
        for i in range(6):
            assert type_check(EMPTY, Universe(i)) == Universe(i + 1)

    def test_unbound_variable(self):
        with pytest.raises(CheckError) as err:
            type_check(EMPTY, Var(Name("ghost")))
        assert err.value.diagnostic.rule == "T-Var"

    def test_variable_from_context(self):
        ctxt = EMPTY.extend_type(Name("A"), Universe(0))
        assert type_check(ctxt, parse_term("A")) == Universe(0)

    def test_lambda_gives_pi(self):
        t = type_check(EMPTY, parse_term("λA:Set.λa:A.a"))
        assert alpha_eq(t, parse_term("ΠA:Set.Πa:A.A"))

    def test_lambda_domain_must_be_a_type(self):
        ctxt = EMPTY.extend_type(Name("A"), Universe(0)).extend_type(
            Name("a"), Var(Name("A"))
        )
        with pytest.raises(CheckError) as err:
            type_check(ctxt, parse_term("λx:a.x"))
        assert err.value.diagnostic.rule == "T-Abs"

    def test_pi_takes_the_larger_universe(self):
        t = type_check(EMPTY, Pi(Name("x"), Universe(0), Universe(1)))
        assert t == Universe(2)

    def test_pi_domain_must_be_a_type(self):
        with pytest.raises(CheckError) as err:
            type_check(EMPTY, parse_term("Πx:(λy:Set.y).Set"))
        assert err.value.diagnostic.rule == "T-PI"

    def test_application_substitutes_the_argument(self):
        ctxt = EMPTY.extend_type(Name("A"), Universe(0))
        t = type_check(ctxt, parse_term("((λT:Set.λa:T.a) A)"))
        assert check_equal(t, parse_term("A -> A"), ctxt)

    def test_application_argument_mismatch(self):
        ctxt = EMPTY.extend_type(Name("A"), Universe(0))
        with pytest.raises(CheckError) as err:
            type_check(ctxt, parse_term("((λT:Set.T) (λy:A.y))"))
        assert err.value.diagnostic.rule == "T-App"

    def test_applying_a_non_function(self):
        ctxt = EMPTY.extend_type(Name("A"), Universe(0))
        with pytest.raises(CheckError) as err:
            type_check(ctxt, parse_term("(A A)"))
        assert err.value.diagnostic.rule == "T-App"


class TestElaboration:
    def test_axiom_chain(self):
        result = elaborated("fol.pie")
        assert not result.diagnostics
        assert alpha_eq(entry_type(result, "⊃"), parse_term("o -> o -> o"))

    def test_definition_with_declared_type(self):
        result = elaborated("fol_proof.pie")
        assert not result.diagnostics
        expected = parse_term("ΠA:o.ΠB:o.(true (⊃ A (⊃ B A)))")
        assert check_equal(entry_type(result, "imp_a_b_a"), expected, result.context)

    def test_axiomatic_induction(self):
        result = elaborated("peano.pie")
        assert not result.diagnostics
        assert alpha_eq(entry_type(result, "plus_zero_x"), parse_term("Πx:Nat.(plus z x x)"))

    def test_axiom_type_must_be_a_type(self):
        program = parse_program("Axiom o : Set; Axiom bad : (λx:o.x);")
        result = elaborate(program)
        assert [d.rule for d in result.diagnostics] == ["T-Univ"]

    def test_duplicate_top_level_name(self):
        program = parse_program("Axiom o : Set; Axiom o : Set;")
        result = elaborate(program)
        assert [d.rule for d in result.diagnostics] == ["Parse"]

    def test_failed_declaration_does_not_stop_the_rest(self):
        program = parse_program(
            "Axiom o : Set; Axiom bad : missing; Axiom p : o -> Set;"
        )
        result = elaborate(program)
        assert [d.rule for d in result.diagnostics] == ["T-Var"]
        statuses = {str(n): s for n, _, s in result.entries}
        assert statuses["bad"] == "failed"
        assert statuses["p"] == "ok"

    def test_definition_body_must_match_declared_type(self):
        program = parse_program("Axiom o : Set; def f(x : o) : o { o };")
        result = elaborate(program)
        assert [d.rule for d in result.diagnostics] == ["T-App"]

    def test_spans_point_into_the_source(self):
        program = parse_program("Axiom o : Set;\nAxiom bad : missing;")
        result = elaborate(program)
        [diag] = result.diagnostics
        assert diag.span is not None
        assert diag.span.start_line == 2

    def test_arguments_replace_binders_before_the_type_unfolds(self):
        # f's binder p is also a definition's name; unfolding (Arr p) before
        # the argument N replaces p would read p as that definition, M
        source = (
            "Axiom N : Set; Axiom M : Set; Axiom z : N; def Arr(T : Set) : Set { T -> T };\n"
            "def p() : Set { M }; Axiom f : Πp:Set.(Arr p); def r() : N { (f N z) };"
        )
        assert _status(source, "r") == "ok"

    def test_diagnostic_rendering(self):
        program = parse_program("Axiom bad : missing;")
        [diag] = elaborate(program).diagnostics
        line = diag.render("ex.pie")
        assert line.startswith("error[T-Var] ex.pie:1:")
        assert "missing" in line


def _status(source: str, name: str) -> str:
    result = elaborate(parse_program(source))
    return {str(n): s for n, _, s in result.entries}[name]


# Rule T-Abs returns Π x:t.tb even when t or tb mentions an outer x, which
# the new binder then captures. Renaming such a binder rejects the first
# three programs and accepts the fourth, but it also rejects the bundled
# day.pie, whose carrier of `rewrite` is read under its own binder T.
CAPTURE = pytest.mark.xfail(strict=True, reason="rule T-Abs captures an outer binder")


class TestCapture:
    @CAPTURE
    def test_shadowing_binder_cannot_prove_void(self):
        source = (
            "Axiom Nat : Set; Axiom zero : Nat;\n"
            "def f() : ΠB:Set.B { ((λA:Set.λa:A.λA:Set.a) Nat zero) };\n"
            "def boom() : Void { (f Void) };"
        )
        assert _status(source, "f") == "failed"

    @CAPTURE
    def test_parameter_cannot_stand_for_the_axiom_it_shadows(self):
        source = "Axiom Nat : Set; Axiom zero : Nat; def bad(Nat : Set) : Nat { zero };"
        assert _status(source, "bad") == "failed"

    @CAPTURE
    def test_result_type_names_the_parameter_not_the_axiom(self):
        source = (
            "Axiom T : Set; Axiom t : T; def id(x : T) : T { x };\n"
            "def g(T : Set) : T { (id t) };"
        )
        assert _status(source, "g") == "failed"

    @CAPTURE
    def test_inner_binder_does_not_capture_the_outer_in_the_type(self):
        assert _status("def f() : ΠA:Set.ΠB:A.A { λA:Set.λA:A.A };", "f") == "ok"
