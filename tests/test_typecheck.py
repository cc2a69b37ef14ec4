"""Core typing rules and top-level elaboration."""
from __future__ import annotations

import contextlib
import itertools
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import corpus_source, elaborated, entry_type
from pielang import (
    App,
    BudgetExceeded,
    CheckError,
    Constr,
    Context,
    Fix,
    Ind,
    Lam,
    Match,
    Name,
    Pi,
    Term,
    Universe,
    Var,
    alpha_eq,
    check_equal,
    elaborate,
    parse_program,
    parse_term,
    pretty,
    subst,
    type_check,
)
from pielang import typecheck
from pielang.cli import check_source, load_corpus
from pielang.syntax import telescope
from pielang.typecheck import _universe, ensure_equal
from strategies import terms

EMPTY = Context()
ABC = elaborate(parse_program("Axiom a : Set; Axiom b : a; Axiom c : Set -> Set;")).context
NAT = "Inductive Nat : Set := | Zero : Nat | Succ : Nat -> Nat;\n"


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

    # nothing prints a rejected declaration's type, so none is kept for any kind
    @pytest.mark.parametrize("decl", [
        "Axiom bad : a;",
        "def bad(x : o) : o { o };",
        "Inductive bad : Set := | c : o;",
    ], ids=["axiom", "def", "inductive"])
    def test_a_rejected_declaration_has_no_type(self, decl):
        result = elaborate(parse_program("Axiom o : Set; Axiom a : o; " + decl))
        assert len(result.diagnostics) == 1
        assert result.entries[-1] == (Name("bad"), None, "failed")

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


# Checking a def against its declared type, built from drawn Π and λ chains:
# a λ chain is the Π chain, or that chain with one binder's name or domain
# changed, cut short or run on. The names a, x and A shadow axioms, so their
# binders are renamed; y shadows only other binders.
CHECKED = ("Axiom A : Set; Axiom B : Set; Axiom a : A; Axiom b : B; Axiom x : A;"
           " Axiom P : A -> Set;\n")
binder_pairs = st.tuples(st.sampled_from(("x", "y", "a", "A")),
                         st.sampled_from(("A", "B", "Set", "(P a)", "x", "(P x)")))


@st.composite
def checked_defs(draw):
    pis = draw(st.lists(binder_pairs, max_size=4))
    lams = pis[:draw(st.integers(0, len(pis)))] if draw(st.booleans()) else list(pis)
    if lams and draw(st.booleans()):
        lams[draw(st.integers(0, len(lams) - 1))] = draw(binder_pairs)
    lams += draw(st.lists(binder_pairs, max_size=2))
    result = draw(st.sampled_from(("A", "B", "(P a)", "Set", "x")))
    body = draw(st.sampled_from(("a", "b", "A", "x", "y", "λz:A.z", "(P a)", "B")))
    type_ = "".join(f"Π{x}:{d}." for x, d in pis) + result
    value = "".join(f"λ{x}:{d}." for x, d in lams) + body
    return CHECKED + f"def d() : {type_} {{ {value} }};", draw(st.sampled_from((None, 3, 0)))


def _inferred_and_compared(ctxt, e, t, rule, message, at=None, typed=True):
    """What `check` replaces, and falls back to: a declared type, not yet
    known to be a type, typed whole; then a whole Π type that T-Abs infers,
    compared with t. A rule, as `check` is: it yields what it types and is
    sent its type."""
    if not typed:
        _universe(ctxt, (yield ctxt, t), "T-PI", "declared type must live in a universe", at)
    ensure_equal(ctxt, (yield ctxt, e), t, rule, message, at)


@contextlib.contextmanager
def _inferring():
    """Every caller of `check` calls the reference instead."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(typecheck, "check", _inferred_and_compared)
        yield


def _checked(source: str, budget):
    result = elaborate(parse_program(source, "d.pie"), Context(budget=budget))
    return result.entries, [(d.rule, d.message, d.span, d.render("d.pie"))
                            for d in result.diagnostics]


class TestCheck:
    """`check` is the one walk of a λ chain along a Π chain: it infers only
    the rest of the value, and types a def's declared Π chain in the same
    walk, but it reports as typing the declared type, inferring the whole
    value and comparing did."""

    @given(case=checked_defs())
    @example(case=(CHECKED + "def d() : Πa:A.Πx:(P a).B { λa:A.λx:(P a).b };", None))
    @example(case=(CHECKED + "def d() : Πa:A.Πx:(P a).B { λa:A.λx:(P a).a };", None))
    @example(case=(CHECKED + "def d() : Πx:A.Πx:B.A { λx:A.λx:B.x };", None))
    # a walked domain, or the rest, that is not a type
    @example(case=(CHECKED + "def d() : Πy:A.Πz:a.A { λy:A.λz:a.y };", None))
    @example(case=(CHECKED + "def d() : Πy:A.a { λy:A.y };", None))
    # ill-typed, but converts to the type the value has
    @example(case=(CHECKED + "def d() : Πy:A.((λT:Set.A) a) { λy:A.y };", None))
    @example(case=(CHECKED + "def d() : Πy:((λT:Set.A) a).A { λy:((λT:Set.A) a).y };", None))
    # recursive: the value is a fixpoint, which T-Fix types with its declared type
    @example(case=(NAT + "def d(n : Nat) : Nat { <λm:Nat.Nat> match n with "
                         "{ Zero => Zero; Succ => λm:Nat.(d m) } };", None))
    @example(case=(NAT + "def d(n : Nat) : Set { <λm:Nat.Nat> match n with "
                         "{ Zero => Zero; Succ => λm:Nat.(d m) } };", None))
    @settings(max_examples=500, deadline=None)
    def test_checking_reports_as_inferring_and_comparing(self, case):
        source, budget = case
        checked = _checked(source, budget)
        with _inferring():
            assert checked == _checked(source, budget)

    # match branches go through check too, and only the corpus has matches
    @pytest.mark.parametrize("path", [path for path, tag in load_corpus() if tag != "Parse"],
                             ids=lambda p: p.name)
    def test_the_corpus_reports_as_inferring_and_comparing(self, path):
        source = path.read_text(encoding="utf-8")
        checked = [_checked(source, budget) for budget in (None, 5, 0)]
        with _inferring():
            assert checked == [_checked(source, budget) for budget in (None, 5, 0)]

    # the read-back takes no Python frame per binder, so a 5000-binder Π type
    # is read back for the report as a 3000-binder one is
    @pytest.mark.parametrize("depth, reported", [
        (3000, "T-App] <input>:4:5: definition d does not have its declared type "
               "(expected {}A, got {}B)"),
        (5000, "T-App] <input>:4:5: definition d does not have its declared type "
               "(expected {}A, got {}B)"),
    ], ids=["3000", "5000"])
    def test_a_body_that_mismatches_deep_under_lambdas_reports_the_whole_type(
            self, depth, reported):
        assert sys.getrecursionlimit() == 1000
        binders = [f"x{i}" for i in range(depth)]
        pis = "".join(f"Π{x}:A." for x in binders)
        source = ("Axiom A : Set;\nAxiom B : Set;\nAxiom b : B;\ndef d() : " + pis + "A { "
                  + "".join(f"λ{x}:A." for x in binders) + "b };")
        assert check_source(source).lines() == ["error[" + reported.format(pis, pis)]

    def test_a_recursive_def_has_its_declared_type_typed_once(self, monkeypatch):
        declared, typed = parse_term("Πx:Nat.Πy:Nat.Nat"), []

        rule = typecheck._RULES[Pi]

        def spy(ctxt, e):
            typed.append(alpha_eq(e, declared))
            return rule(ctxt, e)
        monkeypatch.setitem(typecheck._RULES, Pi, spy)
        result = elaborate(parse_program(corpus_source("add.pie"), "add.pie"))
        assert not result.diagnostics
        assert typed.count(True) == 1

    # a def that does not recurse has its declared type typed in the walk, a
    # domain and then the rest at a time, never as the whole Π chain
    def test_a_def_that_does_not_recurse_has_its_declared_type_typed_in_the_walk(
            self, monkeypatch):
        declared, typed = parse_term("ΠA:Set.Πa:A.Πb:B.A"), []
        rule = typecheck._RULES[Pi]

        def spy(ctxt, e):
            typed.append(alpha_eq(e, declared))
            return rule(ctxt, e)
        monkeypatch.setitem(typecheck._RULES, Pi, spy)
        result = elaborate(parse_program("Axiom B : Set;\ndef k(A : Set, a : A, b : B) : A { a };"))
        assert not result.diagnostics
        assert result.entries[-1] == (Name("k"), declared, "ok")
        assert True not in typed

    # a fixpoint's signature is a def's declared type, and is reported as one
    def test_a_recursive_def_whose_declared_type_is_not_a_type(self):
        source = NAT + ("def f() : Zero { λn:Nat.<λm:Nat.Nat> match n with "
                        "{ Zero => Zero; Succ => λm:Nat.(f m) } };")
        assert check_source(source).lines() == [
            "error[T-PI] <input>:2:5: declared type must live in a universe"]

    def test_a_recursive_def_with_a_wrong_result_type_fails_its_fixpoint(self):
        # the parameter b shadows the axiom, so both chains rename it; the
        # reported types are read back, which names their binders afresh
        source = NAT + (
            "Axiom B : Set; Axiom b : B; Axiom const : B -> Nat -> B;\n"
            "def f(n : Nat, b : B) : Nat { <λm:Nat.B> match n with "
            "{ Zero => b; Succ => λm:Nat.(const b (f m b)) } };"
        )
        assert check_source(source).lines() == [
            "error[T-Fix] <input>:3:5: fixpoint body of f does not have the declared type "
            "(expected Πn:Nat.Πb:B.Nat, got Πn:Nat.B -> B)"
        ]


def _status(source: str, name: str) -> str:
    result = elaborate(parse_program(source))
    return {str(n): s for n, _, s in result.entries}[name]


class TestCapture:
    """A binder whose name the context already binds must not capture the
    outer name: the types in the context, and the binder's own domain,
    still mean the outer one."""

    def test_shadowing_binder_cannot_prove_void(self):
        source = (
            "Axiom Nat : Set; Axiom zero : Nat;\n"
            "def f() : ΠB:Set.B { ((λA:Set.λa:A.λA:Set.a) Nat zero) };\n"
            "def boom() : Void { (f Void) };"
        )
        assert _status(source, "f") == "failed"

    def test_parameter_cannot_stand_for_the_axiom_it_shadows(self):
        source = "Axiom Nat : Set; Axiom zero : Nat; def bad(Nat : Set) : Nat { zero };"
        assert _status(source, "bad") == "failed"

    def test_result_type_names_the_parameter_not_the_axiom(self):
        source = (
            "Axiom T : Set; Axiom t : T; def id(x : T) : T { x };\n"
            "def g(T : Set) : T { (id t) };"
        )
        assert _status(source, "g") == "failed"

    def test_inner_binder_does_not_capture_the_outer_in_the_type(self):
        assert _status("def f() : ΠA:Set.ΠB:A.A { λA:Set.λA:A.A };", "f") == "ok"

    def test_an_inferred_type_keeps_the_outer_name_its_inner_binder_shadows(self):
        # T-Abs: the inner A is renamed on entry, so the codomain is the outer A
        assert pretty(type_check(EMPTY, parse_term("λA:Set.λA:A.A"))) == "ΠA:Set.A -> A"

    def test_a_renamed_binder_avoids_the_free_names_of_its_scope(self):
        # A'1 is unbound; renaming the inner A to A'1 would make it bound
        ctxt = EMPTY.extend_type(Name("A"), Universe(0))
        with pytest.raises(CheckError) as err:
            type_check(ctxt, Lam(Name("A"), Var(Name("A")), Var(Name("A", 1))))
        assert err.value.diagnostic.rule == "T-Var"

    def test_binders_that_all_shadow_one_name_take_the_next_tag_each(self, monkeypatch):
        # λx:A.λx:A.…x: the k-th binder is renamed x'(k-1), past the k-2 renamed
        # ones in the context; probing those one at a time would be quadratic
        probes = []
        contains = Context.__contains__
        monkeypatch.setattr(Context, "__contains__",
                            lambda ctxt, name: probes.append(name) or contains(ctxt, name))
        x, n = Name("x"), 256
        t: Term = Var(x)
        for _ in range(n):
            t = Lam(x, Var(Name("A")), t)
        binders, _ = telescope(type_check(EMPTY.extend_type(Name("A"), Universe(0)), t))
        assert [b for b, _ in binders] == [Name("x", tag) for tag in range(n)]
        assert len(probes) < 20 * n  # n * n / 2 for a search from tag 1

    def test_fixpoint_self_binder_does_not_capture_the_definition_it_shadows(self):
        # the signature's f is the definition, which unfolds to Zero
        source = NAT + "Axiom P : Nat -> Set; Axiom pz : (P Zero); def f() : Nat { Zero };"
        ctxt = elaborate(parse_program(source)).context
        sig, body = parse_term("Πn:Nat.(P f)"), parse_term("λn:Nat.pz")
        for self_name in ("g", "f"):  # a fresh self-name, then the shadowing one
            assert check_equal(type_check(ctxt, Fix(Name(self_name), 0, sig, body)), sig, ctxt)

    def test_inductive_self_binder_does_not_capture_the_axiom_it_shadows(self):
        # P takes the axiom A, not the inductive being defined
        ctxt = elaborate(parse_program("Axiom A : Set; Axiom P : A -> Set;")).context

        def failure(self_name: str):
            ctor = parse_term(f"Πy:{self_name}.Πz:(P y).{self_name}")
            with pytest.raises(CheckError) as err:
                type_check(ctxt, Ind(Name(self_name), Universe(0), ((Name("C"), ctor),)))
            return err.value.diagnostic.rule, err.value.diagnostic.message

        assert failure("A") == failure("B") == ("T-App", "argument type mismatch")
        well_formed = Ind(Name("A"), Universe(0), ((Name("C"), Var(Name("A"))),))
        assert type_check(ctxt, well_formed) == Universe(0)


def _renamed_apart(t: Term, tags) -> Term:
    """t with every λ and Π binder renamed to a name used nowhere else."""
    match t:
        case Lam(binder=x, domain=d, body=b) | Pi(binder=x, domain=d, body=b):
            v = Name("v", next(tags))
            return type(t)(v, _renamed_apart(d, tags), _renamed_apart(subst(x, Var(v), b), tags))
        case App(fn=f, arg=a):
            return App(_renamed_apart(f, tags), _renamed_apart(a, tags))
        case Ind(name=n, arity=a, constructors=cs):
            ctors = tuple((c, _renamed_apart(ct, tags)) for c, ct in cs)
            return Ind(n, _renamed_apart(a, tags), ctors)
        case Constr(index=i, inductive=ind):
            return Constr(i, _renamed_apart(ind, tags))
        case Match(carrier=c, scrutinee=s, branches=bs):
            branches = tuple((n, _renamed_apart(e, tags)) for n, e in bs)
            return Match(_renamed_apart(c, tags), _renamed_apart(s, tags), branches)
        case Fix(name=n, dec_index=k, signature=sig, body=b):
            return Fix(n, k, _renamed_apart(sig, tags), _renamed_apart(b, tags))
    return t


def _verdict(ctxt: Context, t: Term):
    try:
        return "ok", type_check(ctxt, t)
    except CheckError as err:
        return err.diagnostic.rule, None
    except BudgetExceeded:
        return "Budget", None


class TestAlphaInvariance:
    """Typing is invariant under renaming bound variables: a term and its
    copy with every λ and Π binder renamed apart get the same verdict and
    convertible types."""

    @pytest.mark.parametrize("ctxt", [EMPTY, ABC], ids=["empty", "abc"])
    @given(t=terms)
    @example(t=parse_term("λa:a.a"))
    @example(t=parse_term("λA:Set.λA:A.A"))
    # a constructor binder named like its inductive hides it
    @example(t=Ind(Name("b"), Universe(0), ((Name("C1"), parse_term("Πb:Set.b")),)))
    @settings(max_examples=500, deadline=None)
    def test_renaming_binders_apart_keeps_the_verdict(self, ctxt, t):
        rule, type_ = _verdict(ctxt, t)
        renamed_rule, renamed_type = _verdict(ctxt, _renamed_apart(t, itertools.count(1)))
        assert rule == renamed_rule
        if rule == "ok":
            assert check_equal(type_, renamed_type, ctxt)
