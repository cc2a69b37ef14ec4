"""Surface syntax: tokens, declarations, sugar, and error reporting."""
from __future__ import annotations

import copy
import pickle
import random
import sys
import threading
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import corpus_source, elaborated, replace
from pielang.cli import check_source, load_corpus
from pielang.parser import _tokens, tokenize
from pielang import syntax
from pielang.syntax import _TEXT, FrozenInstanceError, SourceSpan, _token_span
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


def assert_tokens_cover_lines(source: str) -> None:
    """On each line that is not a comment, every token's span slices back to
    its text, and the tokens' texts together are the line without whitespace
    (a token reads `→` as `->`)."""
    try:
        tokens = tokenize(source)
    except CheckError as err:  # a stray '-' or '='
        assert err.diagnostic.rule == "Parse"
        return
    *tokens, eof = tokens
    assert eof.kind == "eof"
    by_line: dict[int, list] = {}
    for tok in tokens:
        by_line.setdefault(tok.line, []).append(tok)
    for lineno, line in enumerate(source.split("\n"), start=1):
        on_line = by_line.pop(lineno, [])
        if line.lstrip().startswith("--"):
            assert on_line == []
            continue
        for tok in on_line:
            span = tok.span
            assert (span.start_line, span.end_line) == (lineno, lineno)
            assert line[span.start_col - 1:span.end_col].replace("→", "->") == tok.value
        assert "".join(tok.value for tok in on_line) == "".join(line.split()).replace("→", "->")
    assert by_line == {}


TOKEN_TEXT = st.lists(st.sampled_from(list("(){}<>;,.:|=-λΠ→ \t\r\n\x0b\xa0xA0²٣") + [
    "->", "=>", ":=", "--", "lam", "Pi", "Type", "Set", "match", "with", "Axiom", "def"]),
    max_size=40).map("".join)


class TestTokens:
    @given(st.one_of(st.text(max_size=80), TOKEN_TEXT))
    @settings(max_examples=300)
    def test_spans_slice_back_to_the_text(self, source):
        assert_tokens_cover_lines(source)

    @pytest.mark.parametrize("path", [path for path, _ in load_corpus()], ids=lambda p: p.name)
    def test_spans_slice_back_to_the_text_in_the_corpus(self, path):
        assert_tokens_cover_lines(path.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("joint", ["\n", " ", "\n\n  "])
    def test_placing_a_token_reads_nothing_before_its_window(self, joint):
        """A token is placed from its window alone: with all the source before
        the window blanked to one line of spaces, every token (the end of file
        too) gets the same span, so a report's placements cost its window each,
        not its offset."""
        source = joint.join(f"Axiom a{i} : (B x{i} → C);" for i in range(400))
        tokens = list(_tokens(source))
        blanked = {}
        for tok in tokens:
            window = tok[2]
            if id(window) not in blanked:
                text, start, *rest = window
                blanked[id(window)] = (" " * start + text[start:], start, *rest)
            assert _token_span((*tok[:2], blanked[id(window)], tok[3])) == _token_span(tok)
        assert len(blanked) > 10

    def test_a_report_places_a_diagnostic_on_each_of_many_lines(self):
        source = "\n".join(f"Axiom a{i} :{' ' * (i % 7)} B;" for i in range(3000))
        report = check_source(source, "m.pie")
        assert report.exit_code == 1
        columns = [11 + len(str(i)) + i % 7 for i in range(3000)]
        assert report.lines() == [f"error[T-Var] m.pie:{i + 1}:{col}: unbound variable B"
                                  for i, col in enumerate(columns)]

    def test_a_report_scans_each_window_once(self, monkeypatch):
        """Placing a report's diagnostics scans each window at most once, and
        fewer than _STRIDE tokens more for each: every match that placing
        makes is counted. Scanning each from its window's start, as once, would
        make about six times as many."""
        source = "\n".join(f"Axiom a{i} : (A -> (A -> (A -> B)));" for i in range(3000))
        tokens = len(list(_tokens(source)))

        class Counting:  # _TEXT, counting the matches its finditer yields
            matched = 0

            def finditer(self, *args):
                for m in _TEXT.finditer(*args):
                    self.matched += 1
                    yield m
        counting = Counting()
        monkeypatch.setattr(syntax, "_TEXT", counting)
        report = check_source("Axiom A : Set;\n" + source, "m.pie")
        assert report.lines() == [f"error[T-Var] m.pie:{i + 2}:{29 + len(str(i))}: unbound variable B"
                                  for i in range(3000)]
        assert counting.matched <= tokens + 3000 * (syntax._STRIDE - 1)

    def test_threads_placing_the_same_windows_agree(self):
        """Threads that place the same tokens at once, each in its own order,
        find the spans that placing them one by one finds, though they record
        into the same windows."""
        source = " ".join(f"(a{i} b)" for i in range(400))
        expected = [_token_span(tok) for tok in _tokens(source)]
        tokens = list(_tokens(source))  # fresh windows: nothing recorded yet
        results, interval = [], sys.getswitchinterval()

        def place(seed):
            order = random.Random(seed).sample(range(len(tokens)), len(tokens))
            spans = dict(zip(order, [_token_span(tokens[i]) for i in order]))
            results.append([spans[i] for i in range(len(tokens))])
        threads = [threading.Thread(target=place, args=(seed,)) for seed in range(8)]
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 8

    def test_a_copy_keeps_its_token_unplaced(self, monkeypatch):
        program = parse_program("Axiom A : Set; def f(x : A) : A { x }; Inductive N : Set := | Z : N")
        nodes = [*program.decls, program.decls[-2].body]

        def refuse(tok):
            raise AssertionError(f"the position of {tok[1]!r} was computed")
        monkeypatch.setattr(syntax, "_token_span", refuse)
        for node in nodes:
            for copied in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
                assert type(copied.kept_span) is tuple and copied.kept_span == node.kept_span


class TestStreaming:
    """The scanner cuts a long line into windows, so that a line's tokens are
    never all alive next to the tree being built."""

    @staticmethod
    def peak(source: str) -> int:
        tracemalloc.start()
        try:
            parse_program(source, prelude=False)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("chain", [
        " -> ".join(["A"] * 10000),  # 19999 tokens
        "Π x : A . " * 20000 + "A",  # 20000 binders
    ], ids=["arrows", "binders"])
    def test_one_line_peaks_as_one_token_per_line_does(self, chain):
        tokens = ["Axiom", "A", ":", "Set", ";", "Axiom", "f", ":", *chain.split(), ";"]
        assert self.peak(" ".join(tokens)) <= 1.1 * self.peak("\n".join(tokens))


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

    def test_equal_text_parses_to_equal_terms(self):
        # arrow binders are numbered per parse, not drawn from the process
        assert parse_term("A -> A -> A") == parse_term("A -> A -> A")
        source = "Axiom A : Set; Axiom f : A -> A -> A;"
        assert parse_program(source).decls == parse_program(source).decls

    def test_programs_share_one_parse_of_the_prelude(self):
        first, second = parse_program("Axiom o : Set;"), parse_program("")
        assert all(a is b for a, b in zip(first.decls[:2], second.decls, strict=True))

    def test_missing_separator_is_a_parse_error(self):
        with pytest.raises(CheckError) as err:
            parse_program("Axiom o : Set Axiom p : Set;")
        assert err.value.diagnostic.rule == "Parse"

    @pytest.mark.parametrize("source, message", [
        ("Axiom o : Set;\nAxiom p : o - o;", "2:13: stray '-' (expected '->')"),
        ("Axiom o : Set;\n  Axiom p = o;", "2:11: stray '=' (expected '=>' or ':=')"),
        # the first stray character wins over a grammar error before it
        ("Axiom a : (;\nAxiom b : A - B;", "2:13: stray '-' (expected '->')"),
        ("-- a - b := c\nInductive N : Set := | Z :=> N;\nAxiom p : N =- N;", "3:13: stray '=' (expected '=>' or ':=')"),
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

    @pytest.mark.parametrize("source, line", [
        ("def f(x : Set, x : Set) : Set { x };",
         "error[Parse] x.pie:1:16: duplicate parameter x"),
        ("Inductive T : Set := | c : T | c : T;",
         "error[Parse] x.pie:1:32: duplicate constructor c"),
    ], ids=["parameter", "constructor"])
    def test_a_duplicate_name_is_refused_where_it_recurs(self, source, line):
        assert check_source(source, "x.pie").lines() == [line]

    def test_empty_file(self):
        assert parse_program("", prelude=False).decls == []


A = Var(Name("A"))
# one record of each declaration form, its fields in order, and its repr
DECLS = [
    (AxiomDecl(Name("a"), A, SourceSpan(1, 7, 1, 7)), ("name", "type", "span"),
     "AxiomDecl(name=Name(text='a', fresh_tag=0), type=Var(name=Name(text='A', fresh_tag=0)), "
     "span=SourceSpan(start_line=1, start_col=7, end_line=1, end_col=7))"),
    (DefDecl(Name("f"), ((Name("x"), A),), A, Var(Name("x"))),
     ("name", "params", "result_type", "body", "span"),
     "DefDecl(name=Name(text='f', fresh_tag=0), params=((Name(text='x', fresh_tag=0), "
     "Var(name=Name(text='A', fresh_tag=0))),), result_type=Var(name=Name(text='A', fresh_tag=0)), "
     "body=Var(name=Name(text='x', fresh_tag=0)), span=None)"),
    (InductiveDeclSrc(Name("N"), Universe(0), ((Name("Z"), Var(Name("N"))),)),
     ("name", "arity", "constructors", "span"),
     "InductiveDeclSrc(name=Name(text='N', fresh_tag=0), arity=Universe(level=0), "
     "constructors=((Name(text='Z', fresh_tag=0), Var(name=Name(text='N', fresh_tag=0))),), span=None)"),
]


@pytest.mark.parametrize("decl, names, text", DECLS, ids=lambda v: type(v).__name__)
class TestDeclarationRecords:
    """Declarations are immutable records whose span, unlike a term's, takes
    part in equality, hash and repr; the fields and class patterns they had as
    frozen dataclasses stay."""

    def test_fields_cannot_be_assigned_or_deleted(self, decl, names, text):
        for name in (*names, "unknown"):
            with pytest.raises(FrozenInstanceError):
                setattr(decl, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(decl, name)

    def test_equality_and_hash_include_the_span(self, decl, names, text):
        assert decl == replace(decl) and hash(decl) == hash(replace(decl))
        assert replace(decl, span=SourceSpan(2, 1, 2, 5)) != decl
        assert copy.copy(decl) == copy.deepcopy(decl) == pickle.loads(pickle.dumps(decl)) == decl

    def test_repr_and_field_order(self, decl, names, text):
        assert decl.__match_args__ == names
        assert repr(decl) == text

    def test_keyword_and_positional_patterns(self, decl, names, text):
        values = [getattr(decl, name) for name in names]
        match decl:
            case AxiomDecl(n, t, s) | InductiveDeclSrc(n, t, _, s):
                assert [n, t, s] == [values[0], values[1], values[-1]]
            case DefDecl(n, ps, t, b, s):
                assert [n, ps, t, b, s] == values
            case _:
                pytest.fail("no positional pattern matched")
        match decl:
            case AxiomDecl(name=n, span=s) | DefDecl(name=n, span=s) | InductiveDeclSrc(name=n, span=s):
                assert (n, s) == (values[0], values[-1])
            case _:
                pytest.fail("no keyword pattern matched")


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
        value = elaborated("add.pie").context.lookup_val(Name("add"))
        assert isinstance(value, Fix)
        assert value.dec_index == 0

    def test_recursion_on_a_later_argument(self):
        value = elaborated("nat_ind.pie").context.lookup_val(Name("nat_ind"))
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

    def test_universe_level_beyond_int_digits_is_a_parse_error(self):
        # int() reads at most 4300 digits by default
        report = check_source("Axiom A : Type " + "9" * 5000 + ";")
        assert report.exit_code == 1
        assert report.lines() == ["error[Parse] <input>:1:16: universe level has too many digits"]

    def test_universe_level_whose_successor_cannot_be_printed_is_a_parse_error(self):
        # T-App prints the def's type, Type 10**4300, which has 4301 digits
        def_of = "Inductive Nat : Set := | Zero : Nat; def x() : Nat {{ Type {} }};".format
        report = check_source(def_of("9" * 4300))
        assert report.lines() == ["error[Parse] <input>:1:59: universe level has too many digits"]
        assert check_source(def_of("9" * 4299)).lines() == [
            "error[T-App] <input>:1:42: definition x does not have its declared type "
            "(expected Nat, got (Type 1" + "0" * 4299 + "))"
        ]

    def test_round_trip_for_declared_corpus_types(self):
        for name in ("fol.pie", "fol_proof.pie", "eq_nat.pie", "peano.pie"):
            program = parse_program(corpus_source(name), prelude=False)
            for decl in program.decls:
                if isinstance(decl, AxiomDecl):
                    reparsed = parse_term(pretty(decl.type))
                    assert alpha_eq(reparsed, decl.type)
