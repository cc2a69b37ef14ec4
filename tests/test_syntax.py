"""Term-level operations: free variables, substitution, alpha equivalence."""
from __future__ import annotations

import copy
import gc
import pickle
import sys
import time
from dataclasses import FrozenInstanceError, fields, replace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from nameless import nameless_free, oracle_subst, to_nameless
from pielang import (
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
    alpha_eq,
    free_vars,
    fresh_name,
    parse_term,
    pretty,
    subst,
)
from pielang.syntax import BINDER, BINDING, INSIDE, SourceSpan, children, occurs_free
from strategies import ctor_labels, lambda_terms, names, terms

x, y, z = Name("x"), Name("y"), Name("z")


class TestRecords:
    """Names and spans are immutable records whose equality, hash, str and
    repr read as they did when they were frozen dataclasses."""

    def test_fresh_tag_distinguishes_names(self):
        assert Name("x") != Name("x", 1)
        assert Name("x") == Name("x", 0)

    def test_equal_names_hash_equal(self):
        assert hash(Name("x", 3)) == hash(Name("x", 3)) == hash(("x", 3))
        assert len({Name("x"), Name("x", 0), Name("x", 1)}) == 2

    @pytest.mark.parametrize("record, field", [
        (Name("x"), "text"), (Name("x"), "fresh_tag"), (SourceSpan(1, 2, 1, 4), "end_col"),
    ])
    def test_fields_cannot_be_assigned(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)

    def test_str_and_repr(self):
        assert str(Name("x")) == "x"
        assert str(Name("x", 3)) == "x'3"
        assert repr(Name("x")) == "Name(text='x', fresh_tag=0)"
        assert str(SourceSpan(2, 5, 2, 9)) == "2:5"
        assert repr(SourceSpan(2, 5, 2, 9)) == (
            "SourceSpan(start_line=2, start_col=5, end_line=2, end_col=9)"
        )


class TestFreeVars:
    def test_var_is_free(self):
        assert free_vars(Var(x)) == {x}

    def test_lambda_binds(self):
        t = Lam(x, Universe(0), App(Var(x), Var(y)))
        assert free_vars(t) == {y}

    def test_pi_domain_is_outside_the_binder(self):
        t = Pi(x, Var(x), Var(x))
        assert free_vars(t) == {x}

    def test_universe_is_closed(self):
        assert free_vars(Universe(3)) == frozenset()

    @given(terms)
    @settings(max_examples=200)
    def test_matches_nameless_oracle(self, t):
        assert {(n.text, n.fresh_tag) for n in free_vars(t)} == nameless_free(to_nameless(t))

    # first with t's memos as they come, which it must leave as they are;
    # then with those of t's children filled, and of t itself, which it reads
    @given(terms)
    @settings(max_examples=500, deadline=None)
    def test_occurrence_search_agrees_with_free_vars(self, t):
        names, nodes = {z}, [t]  # every name of t, bound or free, and one it lacks
        for node in nodes:
            names.update(getattr(node, f) for f, role in BINDING.get(type(node), ())
                         if role == BINDER)
            if isinstance(node, Var):
                names.add(node.name)
            nodes.extend(children(node))
        memos = [node._free_vars for node in nodes]
        found = {x: occurs_free(x, t) for x in names}
        assert [node._free_vars for node in nodes] == memos
        for sub in children(t):
            free_vars(sub)
        partly = {x: occurs_free(x, t) for x in names}
        expected = {x: x in free_vars(t) for x in names}
        assert found == partly == expected == {x: occurs_free(x, t) for x in names}


def test_binding_table_covers_every_compound_term():
    assert {*BINDING, Var, Universe} == set(Term.__subclasses__())


@pytest.mark.parametrize("kind", BINDING, ids=lambda kind: kind.__name__)
def test_binding_table_lists_the_fields_in_field_order(kind):
    assert [name for name, _ in BINDING[kind]] == [f.name for f in fields(kind) if f.name != "span"]


A, B = Var(Name("A")), Var(Name("B"))
IND = Ind(Name("N"), Universe(0), ((Name("Z"), Var(Name("N"))),))
# one node of each class, its fields in order, and its repr
NODES = [
    (Var(x), ("name", "span"), "Var(name=Name(text='x', fresh_tag=0))"),
    (Universe(2), ("level", "span"), "Universe(level=2)"),
    (Lam(x, A, B), ("binder", "domain", "body", "span"),
     "Lam(binder=Name(text='x', fresh_tag=0), domain=Var(name=Name(text='A', fresh_tag=0)), "
     "body=Var(name=Name(text='B', fresh_tag=0)))"),
    (Pi(Name("x", 1), A, B), ("binder", "domain", "body", "span"),
     "Pi(binder=Name(text='x', fresh_tag=1), domain=Var(name=Name(text='A', fresh_tag=0)), "
     "body=Var(name=Name(text='B', fresh_tag=0)))"),
    (App(A, B), ("fn", "arg", "span"),
     "App(fn=Var(name=Name(text='A', fresh_tag=0)), arg=Var(name=Name(text='B', fresh_tag=0)))"),
    (IND, ("name", "arity", "constructors", "span"),
     "Ind(name=Name(text='N', fresh_tag=0), arity=Universe(level=0), "
     "constructors=((Name(text='Z', fresh_tag=0), Var(name=Name(text='N', fresh_tag=0))),))"),
    (Constr(1, IND), ("index", "inductive", "span"), f"Constr(index=1, inductive={IND!r})"),
    (Match(A, B, ((Name("Z"), A),)), ("carrier", "scrutinee", "branches", "span"),
     "Match(carrier=Var(name=Name(text='A', fresh_tag=0)), scrutinee=Var(name=Name(text='B', "
     "fresh_tag=0)), branches=((Name(text='Z', fresh_tag=0), Var(name=Name(text='A', fresh_tag=0))),))"),
    (Fix(Name("f"), 0, A, B), ("name", "dec_index", "signature", "body", "span"),
     "Fix(name=Name(text='f', fresh_tag=0), dec_index=0, signature=Var(name=Name(text='A', "
     "fresh_tag=0)), body=Var(name=Name(text='B', fresh_tag=0)))"),
]


def test_the_contract_covers_every_term_class():
    assert {type(node) for node, _, _ in NODES} == set(Term.__subclasses__())


def test_children_are_listed_in_field_order():
    N = Var(Name("N"))  # IND's one constructor type
    expected = [[], [], [A, B], [A, B], [A, B], [Universe(0), N], [IND], [A, B, A], [A, B]]
    assert [children(node) for node, _, _ in NODES] == expected
    assert children(IND, (INSIDE,)) == [N] and children(Fix(Name("f"), 0, A, B), (INSIDE,)) == [B]


@pytest.mark.parametrize("node, names, text", NODES, ids=lambda v: type(v).__name__)
class TestNodes:
    """Every term class is a frozen dataclass: immutable, compared and hashed
    without its span, with the fields, repr and class patterns it always had."""

    def test_fields_cannot_be_assigned_or_deleted(self, node, names, text):
        for name in (*names, "_free_vars", "unknown"):  # the memo slot and no slot at all
            with pytest.raises(FrozenInstanceError):
                setattr(node, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(node, name)

    def test_equality_and_hash_ignore_the_span(self, node, names, text):
        spanned = replace(node, span=SourceSpan(3, 4, 3, 9))
        assert spanned.span == SourceSpan(3, 4, 3, 9) and node.span is None
        assert spanned == node and hash(spanned) == hash(node)
        assert replace(node, **{names[0]: Name("y")}) != node

    def test_repr_and_field_order(self, node, names, text):
        assert tuple(f.name for f in fields(node)) == names
        assert repr(replace(node, span=SourceSpan(1, 1, 1, 2))) == text

    def test_keyword_and_positional_patterns(self, node, names, text):
        first, *_ = values = [getattr(node, name) for name in names[:-1]]
        match node:
            case Var(n) | Universe(n) | App(n, _) | Constr(n, _) if n == first:
                pass
            case Lam(b, d, body) | Pi(b, d, body) if [b, d, body] == values:
                pass
            case Ind(n, a, cs) | Match(n, a, cs) if [n, a, cs] == values:
                pass
            case Fix(n, k, sig, body) if [n, k, sig, body] == values:
                pass
            case _:
                pytest.fail("no positional pattern matched")
        match node:
            case Var(name=n) | Universe(level=n) | App(fn=n) | Ind(name=n) | Fix(name=n) if n == first:
                pass
            case Lam(binder=n) | Pi(binder=n) | Constr(index=n) | Match(carrier=n) if n == first:
                pass
            case _:
                pytest.fail("no keyword pattern matched")

    def test_copies_compute_their_free_names(self, node, names, text):
        expected = free_vars(node)
        for copied in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert copied == node and free_vars(copied) == expected
        assert free_vars(type(node)(*[getattr(node, name) for name in names])) == expected


@pytest.mark.parametrize("node", [node for node, _, _ in NODES], ids=lambda v: type(v).__name__)
def test_a_node_keeps_its_free_names_in_a_slot(node):
    fresh = replace(node)
    assert not hasattr(fresh, "__dict__") and fresh._free_vars is None
    assert free_vars(fresh) is fresh._free_vars == free_vars(node)


class TestSubst:
    def test_replaces_free_occurrence(self):
        assert subst(x, Universe(0), Var(x)) == Universe(0)

    def test_stops_under_shadowing(self):
        t = Lam(x, Universe(0), Var(x))
        assert subst(x, Var(y), t) == t

    def test_avoids_capture_by_renaming(self):
        # [x := y] λy.x must not let the binder capture the substituted y
        t = Lam(y, Universe(0), Var(x))
        result = subst(x, Var(y), t)
        assert isinstance(result, Lam)
        assert result.binder != y
        assert result.body == Var(y)
        assert alpha_eq(result, Lam(z, Universe(0), Var(y)))

    def test_fresh_name_takes_the_least_tag_not_avoided(self):
        assert fresh_name(x, ()) == Name("x", 1)  # never tag 0, which source names carry
        assert fresh_name(x, {x, Name("x", 1), Name("x", 3), Name("y", 2)}) == Name("x", 2)
        assert fresh_name(Name("x", 5), {Name("y", 1)}) == Name("x", 1)

    @given(st.sets(st.integers(1, 40)))
    def test_fresh_name_takes_a_free_tag_just_above_a_taken_one(self, tags):
        tag = fresh_name(x, {Name("x", t) for t in tags}).fresh_tag
        assert tag not in tags and (tag == 1 or tag - 1 in tags)

    def test_fresh_name_probes_logarithmically_many_tags(self):
        probes = []

        class Taken(set):
            def __contains__(self, name):
                probes.append(name)
                return set.__contains__(self, name)

        assert fresh_name(x, Taken(Name("x", t) for t in range(1, 1000))) == Name("x", 1000)
        assert len(probes) <= 20  # a search up from tag 1 would probe 1000

    def test_renamed_binder_avoids_the_scope_and_the_replacement(self):
        # [x := (y y'1)] λy.(x y'2): the binder may take neither y'1 nor y'2
        y1, y2 = Name("y", 1), Name("y", 2)
        t = Lam(y, Universe(0), App(Var(x), Var(y2)))
        result = subst(x, App(Var(y), Var(y1)), t)
        assert result == Lam(Name("y", 3), Universe(0), App(App(Var(y), Var(y1)), Var(y2)))

    def test_plain_beta_style_example(self):
        t = parse_term("λf:(A -> A).(f x)")
        result = subst(x, Var(y), t)
        assert alpha_eq(result, parse_term("λf:(A -> A).(f y)"))

    @given(names, terms, terms)
    @settings(max_examples=200)
    def test_matches_nameless_oracle(self, v, s, t):
        assert to_nameless(subst(v, s, t)) == oracle_subst(v, s, t)

    @given(names, terms, terms)
    @settings(max_examples=200)
    def test_noop_outside_free_vars(self, v, s, t):
        if v not in free_vars(t):
            assert subst(v, s, t) == t


class TestAlphaEq:
    def test_renamed_binders_are_equal(self):
        assert alpha_eq(parse_term("λx:Set.x"), parse_term("λy:Set.y"))

    def test_free_variables_must_match(self):
        assert not alpha_eq(parse_term("λx:Set.a"), parse_term("λx:Set.b"))

    def test_bound_and_free_do_not_mix(self):
        assert not alpha_eq(parse_term("λx:Set.x"), parse_term("λy:Set.x"))

    def test_nested_binders_keep_their_depth(self):
        assert not alpha_eq(parse_term("λx:Set.λy:Set.x"), parse_term("λx:Set.λy:Set.y"))

    def test_pi_and_lam_differ(self):
        assert not alpha_eq(parse_term("λx:Set.x"), parse_term("Πx:Set.x"))

    def test_shadowing_binds_the_innermost(self):
        inner = parse_term("λx:Set.λx:Set.x")
        assert alpha_eq(inner, parse_term("λy:Set.λz:Set.z"))
        assert not alpha_eq(inner, parse_term("λy:Set.λz:Set.y"))
        assert alpha_eq(parse_term("λx:Set.λy:Set.λx:Set.y"), parse_term("λy:Set.λx:Set.λz:Set.x"))

    def test_a_shared_subterm_is_compared_under_its_binders(self):
        # one object on both sides, but bound on one side and free on the other
        shared = Var(x)
        assert not alpha_eq(Lam(x, Universe(0), shared), Lam(y, Universe(0), shared))
        assert alpha_eq(Lam(x, Universe(0), shared), Lam(x, Universe(0), shared))
        assert alpha_eq(App(shared, shared), App(shared, Var(x)))

    @pytest.mark.parametrize("node", [Lam, Pi])
    def test_chains_20000_deep_at_the_default_recursion_limit(self, node):
        assert sys.getrecursionlimit() == 1000
        k = 20000

        def chain(binder, last: int, n: int = k):
            t = Var(binder(last))
            for i in reversed(range(n)):
                domain = App(Var(Name("A")), Var(binder(i - 1))) if i else Var(Name("A"))
                t = node(binder(i), domain, t)
            return t

        def seconds(a, b) -> float:
            # the fastest of five with the collector off, so that neither a
            # pause nor a collection of the suite's live objects counts
            best = float("inf")
            gc.collect()
            gc.disable()
            try:
                for _ in range(5):
                    start = time.perf_counter()
                    assert alpha_eq(a, b)
                    best = min(best, time.perf_counter() - start)
            finally:
                gc.enable()
            return best

        original = chain(lambda i: Name(f"x{i}"), 0)
        renamed = chain(lambda i: Name("y", i + 2), 0)
        assert not alpha_eq(original, chain(lambda i: Name("y", i + 2), 1))
        # every binder shadowing one name: the last variable is the innermost
        shadowing = chain(lambda i: x, 0)
        assert alpha_eq(shadowing, chain(lambda i: Name("y", i + 2), k - 1))
        assert not alpha_eq(shadowing, renamed)
        # linear: four times the depth takes about four times as long, where
        # copying a renaming map per binder takes about sixteen times
        quarter = (chain(lambda i: Name(f"x{i}"), 0, k // 4), chain(lambda i: Name("y", i + 2), 0, k // 4))
        assert seconds(original, renamed) < 8 * seconds(*quarter)

    def test_inductive_fields(self):
        ind = Ind(x, Universe(0), ((Name("C1"), Var(x)), (Name("C2"), Pi(y, Var(x), Var(x)))))
        renamed = Ind(z, Universe(0), ((Name("C1"), Var(z)), (Name("C2"), Pi(x, Var(z), Var(z)))))
        assert alpha_eq(ind, renamed)
        assert not alpha_eq(ind, Ind(z, Universe(0), ((Name("C1"), Var(z)),
                                                     (Name("C3"), Pi(x, Var(z), Var(z))))))
        assert not alpha_eq(ind, Ind(z, Universe(0), ((Name("C1"), Var(z)),)))
        assert not alpha_eq(ind, Ind(z, Universe(1), renamed.constructors))
        # the inductive's own name is not in scope in its arity
        assert not alpha_eq(Ind(x, Var(x), ()), Ind(y, Var(y), ()))
        assert alpha_eq(Constr(2, ind), Constr(2, renamed))
        assert not alpha_eq(Constr(1, ind), Constr(2, renamed))

    def test_fixpoint_fields(self):
        fix = Fix(x, 0, Pi(y, Var(x), Var(y)), Lam(y, Var(z), App(Var(x), Var(y))))
        renamed = Fix(z, 0, Pi(y, Var(x), Var(y)), Lam(x, Var(z), App(Var(z), Var(x))))
        assert not alpha_eq(fix, renamed)  # the free z in the body is now bound
        renamed = Fix(Name("f"), 0, Pi(z, Var(x), Var(z)), Lam(y, Var(z), App(Var(Name("f")), Var(y))))
        assert alpha_eq(fix, renamed)
        assert not alpha_eq(fix, Fix(Name("f"), 1, renamed.signature, renamed.body))
        # the fixpoint's own name is not in scope in its signature
        assert not alpha_eq(Fix(x, 0, Var(x), Var(x)), Fix(y, 0, Var(y), Var(y)))

    def test_match_fields(self):
        def match(first, second, body):
            return Match(Var(Name("P")), Var(Name("n")), ((first, Var(x)), (second, body)))
        m = match(Name("C1"), Name("C2"), Lam(x, Universe(0), Var(x)))
        assert alpha_eq(m, match(Name("C1"), Name("C2"), Lam(y, Universe(0), Var(y))))
        assert not alpha_eq(m, match(Name("C1"), Name("C3"), Lam(y, Universe(0), Var(y))))
        assert not alpha_eq(m, match(Name("C2"), Name("C1"), Lam(y, Universe(0), Var(y))))
        assert not alpha_eq(m, Match(Var(Name("P")), Var(Name("n")), m.branches[:1]))

    @given(terms)
    @settings(max_examples=200)
    def test_reflexive(self, t):
        assert alpha_eq(t, t)

    @given(terms, terms)
    @settings(max_examples=200)
    def test_symmetric(self, a, b):
        assert alpha_eq(a, b) == alpha_eq(b, a)

    @given(terms, terms)
    @settings(max_examples=300)
    def test_matches_nameless_oracle(self, a, b):
        assert alpha_eq(a, b) == (to_nameless(a) == to_nameless(b))

    @given(st.data())
    @settings(max_examples=300)
    def test_near_copies_match_nameless_oracle(self, data):
        a = data.draw(terms)
        b = _near_copy(a, lambda name, pool: data.draw(st.sampled_from((name,)) | pool))
        assert alpha_eq(a, b) == (to_nameless(a) == to_nameless(b))

    @given(lambda_terms)
    @settings(max_examples=200)
    def test_transitive_through_a_renamed_copy(self, t):
        renamed = _rename_all(t, [0])
        again = _rename_all(renamed, [0])
        assert alpha_eq(t, renamed)
        assert alpha_eq(renamed, again)
        assert alpha_eq(t, again)


def _near_copy(t, redraw):
    """A copy of t in which redraw(name, pool) may replace each binder,
    variable, constructor and branch name."""
    match t:
        case Var(name=n):
            return Var(redraw(n, names))
        case Lam(binder=x, domain=d, body=b) | Pi(binder=x, domain=d, body=b):
            return type(t)(redraw(x, names), _near_copy(d, redraw), _near_copy(b, redraw))
        case App(fn=f, arg=a):
            return App(_near_copy(f, redraw), _near_copy(a, redraw))
        case Ind(name=n, arity=a, constructors=cs):
            ctors = tuple((redraw(c, ctor_labels), _near_copy(ct, redraw)) for c, ct in cs)
            return Ind(redraw(n, names), _near_copy(a, redraw), ctors)
        case Constr(index=i, inductive=ind):
            return Constr(i, _near_copy(ind, redraw))
        case Match(carrier=c, scrutinee=s, branches=bs):
            branches = tuple((redraw(bn, ctor_labels), _near_copy(bb, redraw)) for bn, bb in bs)
            return Match(_near_copy(c, redraw), _near_copy(s, redraw), branches)
        case Fix(name=n, dec_index=k, signature=s, body=b):
            return Fix(redraw(n, names), k, _near_copy(s, redraw), _near_copy(b, redraw))
    return t


def _rename_all(t, counter):
    """Refresh every binder, keeping the term alpha-equal."""
    match t:
        case Lam(binder=b, domain=d, body=body) | Pi(binder=b, domain=d, body=body):
            renamed = fresh_name(b, free_vars(body) | {b})
            body = subst(b, Var(renamed), body)
            node = type(t)
            return node(renamed, _rename_all(d, counter), _rename_all(body, counter))
        case App(fn=f, arg=a):
            return App(_rename_all(f, counter), _rename_all(a, counter))
        case _:
            return t


class TestPretty:
    def test_universe_zero_prints_as_set(self):
        assert pretty(Universe(0)) == "Set"

    def test_application_spine(self):
        t = parse_term("(f a b)")
        assert pretty(t) == "(f a b)"

    @pytest.mark.parametrize("source", [
        "(Succ " * 5000 + "Zero" + ")" * 5000,
        " -> ".join(["A"] * 5001),
        "".join(f"λx{i}:A." for i in range(5000)) + "x0",
    ], ids=["numeral", "arrows", "lambdas"])
    def test_deep_chains_print_at_the_default_recursion_limit(self, source):
        assert sys.getrecursionlimit() == 1000
        assert pretty(parse_term(source)) == source

    def test_round_trip_samples(self):
        samples = [
            "λx:Set.x",
            "Πp:o.Πq:o.((true p) -> (true q)) -> (true (⊃ p q))",
            "(Type 2)",
            "ΠP:(Nat -> Set).Πf:(P Zero).Πn:Nat.(P n)",
        ]
        for src in samples:
            t = parse_term(src)
            assert alpha_eq(parse_term(pretty(t)), t)
