"""Surface syntax: tokens, declarations, sugar, and error reporting."""
from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import corpus_source
from pielang.cli import check_source
from pielang import (
    AxiomDecl,
    CheckError,
    DefDecl,
    Fix,
    InductiveDeclSrc,
    Lam,
    Match,
    Name,
    Pi,
    Universe,
    Var,
    alpha_eq,
    desugar_def,
    parse_program,
    parse_term,
    pretty,
)


class TestExpressions:
    def test_lambda_forms(self):
        assert alpha_eq(parse_term("λx:Set.x"), parse_term("lam x : Set . x"))

    def test_pi_forms(self):
        assert alpha_eq(parse_term("Πx:Set.x"), parse_term("Pi x : Set . x"))

    def test_arrow_is_sugar_for_pi(self):
        t = parse_term("A -> B")
        assert isinstance(t, Pi)
        assert t.domain == Var(Name("A"))
        assert t.body == Var(Name("B"))
        assert t.binder.fresh_tag != 0

    def test_arrow_is_right_associative(self):
        assert alpha_eq(parse_term("A -> B -> C"), parse_term("A -> (B -> C)"))

    def test_application_is_left_nested(self):
        t = parse_term("(f a b)")
        assert alpha_eq(t, parse_term("((f a) b)"))

    def test_universe_spellings(self):
        assert parse_term("Set") == Universe(0)
        assert parse_term("Prop") == Universe(0)
        assert parse_term("Type") == Universe(1)
        assert parse_term("Type 4") == Universe(4)
        assert parse_term("Type ٣") == Universe(3)

    def test_unicode_arrow_and_superset_name(self):
        t = parse_term("(⊃ A B) → o")
        assert isinstance(t, Pi)

    def test_match_expression(self):
        t = parse_term("<λn:Nat.Nat> match x with { Zero => y; Succ => f }")
        assert isinstance(t, Match)
        assert [str(n) for n, _ in t.branches] == ["Zero", "Succ"]

    def test_match_pattern_arguments_are_ignored(self):
        a = parse_term("<λn:Nat.Nat> match x with { (Succ z) => f }")
        b = parse_term("<λn:Nat.Nat> match x with { Succ => f }")
        assert alpha_eq(a, b)

    def test_pi_carrier_becomes_abstraction(self):
        t = parse_term("<Πf:FormatString.Set> match e with { End => Void }")
        assert isinstance(t.carrier, Lam)

    def test_duplicate_branch_rejected(self):
        with pytest.raises(CheckError) as err:
            parse_term("<λn:Nat.Nat> match x with { Zero => a; Zero => b }")
        assert err.value.diagnostic.rule == "Parse"


class TestDeclarations:
    def test_axiom(self):
        program = parse_program("Axiom o : Set;", prelude=False)
        [decl] = program.decls
        assert isinstance(decl, AxiomDecl)
        assert str(decl.name) == "o"
        assert decl.type == Universe(0)

    def test_inductive(self):
        program = parse_program(corpus_source("nat.pie"), prelude=False)
        [decl] = program.decls
        assert isinstance(decl, InductiveDeclSrc)
        assert [str(c) for c, _ in decl.constructors] == ["Zero", "Succ"]

    def test_prelude_is_prepended_without_shifting_spans(self):
        program = parse_program("Axiom o : Set;")
        assert [str(d.name) for d in program.decls[:2]] == ["Void", "Null"]
        assert program.decls[2].span.start_line == 1

    def test_missing_separator_is_a_parse_error(self):
        with pytest.raises(CheckError) as err:
            parse_program("Axiom o : Set Axiom p : Set;")
        assert err.value.diagnostic.rule == "Parse"

    @pytest.mark.parametrize("source, message", [
        ("Axiom o : Set;\nAxiom p : o - o;", "2:13: stray '-' (expected '->')"),
        ("Axiom o : Set;\n  Axiom p = o;", "2:11: stray '=' (expected '=>' or ':=')"),
    ])
    def test_stray_character_location(self, source, message):
        with pytest.raises(CheckError) as err:
            parse_program(source)
        diag = err.value.diagnostic
        assert diag.rule == "Parse"
        assert f"{diag.span}: {diag.message}" == message

    @pytest.mark.parametrize("source, line", [
        ("Axiom a : Set;\nAxiom b : undefinedname;",
         "error[T-Var] x.pie:2:11: unbound variable undefinedname"),
        ("Axiom a : Set;\n  Axiom b : a;\nAxiom c : b;",
         "error[T-Univ] x.pie:3:7: axiom type must live in a universe"),
    ])
    def test_name_location(self, source, line):
        assert check_source(source, "x.pie").lines() == [line]

    def test_empty_file(self):
        assert parse_program("", prelude=False).decls == []


class TestDesugaring:
    def _def(self, source: str) -> DefDecl:
        program = parse_program(source, prelude=False)
        return next(d for d in program.decls if isinstance(d, DefDecl))

    def test_parameters_become_binders(self):
        d = self._def("def const(A : Set, a : A, b : A) : A { a }")
        declared, value = desugar_def(d)
        assert alpha_eq(declared, parse_term("ΠA:Set.Πa:A.Πb:A.A"))
        assert alpha_eq(value, parse_term("λA:Set.λa:A.λb:A.a"))

    def test_recursive_definition_becomes_fix(self):
        d = self._def(corpus_source("add.pie"))
        _, value = desugar_def(d)
        assert isinstance(value, Fix)
        assert value.dec_index == 0

    def test_recursion_on_a_later_argument(self):
        d = next(
            dd
            for dd in parse_program(corpus_source("nat_ind.pie"), prelude=False).decls
            if isinstance(dd, DefDecl)
        )
        _, value = desugar_def(d)
        assert isinstance(value, Fix)
        assert value.dec_index == 3

    def test_non_recursive_definition_stays_a_lambda(self):
        d = self._def("def id(A : Set, a : A) : A { a }")
        _, value = desugar_def(d)
        assert isinstance(value, Lam)


class TestRobustness:
    @given(st.text(max_size=60))
    @example("Axiom A : Type ²;")
    @settings(max_examples=200)
    def test_never_crashes_on_arbitrary_text(self, source):
        try:
            parse_program(source)
        except CheckError as err:
            assert err.diagnostic.rule == "Parse"

    def test_superscript_digit_is_a_name_not_a_level(self):
        report = check_source("Axiom A : Type ²;")
        assert report.exit_code == 1
        assert [d.rule for d in report.diagnostics] == ["Parse"]

    def test_round_trip_for_declared_corpus_types(self):
        for name in ("fol.pie", "fol_proof.pie", "eq_nat.pie", "peano.pie"):
            program = parse_program(corpus_source(name), prelude=False)
            for decl in program.decls:
                if isinstance(decl, AxiomDecl):
                    reparsed = parse_term(pretty(decl.type))
                    assert alpha_eq(reparsed, decl.type)
