"""Differential tests of the front end: tokens, trees (spans and arrow tags
included) and parse diagnostics.

The corpus and the benchmark workloads' inputs at two seeds must parse to
the digests pinned in `golden/parse_digests.txt`, which the recursive-descent
parser this one replaced wrote (in a thread with a raised recursion limit, for
the inputs nested deeper than Python's default limit allows). Token soup must
parse as `reference_parser` parses it. Regenerate the digests only for an
intended change of output:

    PYTHONPATH=src python tests/test_parse_differential.py
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_parser as reference
from pielang.cli import load_corpus
from pielang.diagnostics import CheckError
from pielang.parser import parse_program, tokenize

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

DIGESTS = Path(__file__).with_name("golden") / "parse_digests.txt"


def flat(value) -> list:
    """A parse result as one list of node names, fields and spans, built
    without recursion, so that deep trees compare too."""
    out, stack = [], [value]
    while stack:
        v = stack.pop()
        if hasattr(v, "__dataclass_fields__"):  # a term, a declaration or a program
            fields = [f for f in v.__dataclass_fields__ if f != "span"]
            out += [type(v).__name__, getattr(v, "span", None)]
            stack.extend(getattr(v, f) for f in reversed(fields))
        elif type(v) in (list, tuple):
            out.append(len(v))
            stack.extend(reversed(v))
        else:  # a name, a token, a number or a string
            out.append(v)
    return out


def outcome(parse, source: str):
    """The flattened result, or the diagnostic; no other exception may escape."""
    try:
        return flat(parse(source))
    except CheckError as err:
        assert err.diagnostic.rule == "Parse"
        return err.diagnostic.render("x.pie"), err.diagnostic.span


def digest(source: str) -> str:
    both = outcome(tokenize, source), outcome(parse_program, source)
    return hashlib.sha256(repr(both).encode()).hexdigest()[:16]


def sources():
    for path, _ in load_corpus():
        yield f"corpus/{path.name}", path.read_text(encoding="utf-8")
    for name, generate in workloads.WORKLOADS.items():
        for seed in (1, 2):
            for case in generate(seed):
                yield f"{name}/{seed}/{case.name}", case.source


def render_digests() -> str:
    return "".join(f"{name} {digest(source)}\n" for name, source in sources())


def test_corpus_and_workload_inputs_parse_to_the_pinned_digests():
    expected = DIGESTS.read_text(encoding="utf-8").splitlines()
    actual = render_digests().splitlines()
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        assert got == want


FRAGMENTS = [
    "Axiom a : ", "Axiom b : ", "def f(x : A, y : A) : A { ", "def g() : Set {", "Inductive N : Set := ",
    "| Z : N ", "| S : N -> N ", "A", "x", "y", "(", ")", "(f x y)", "->", "→", "λx:A.", "Πy:A.",
    "lam z : ", "Pi w : ", ".", ":", ",", "<", ">", "<λn:N.Set> match ", "<Πn:N.Πm:N.Set> match ",
    "match", " with { ", "with", "{", "}", "Z => ", "(S p q) => ", "S =>", ";", "Set", "Prop", "Type",
    "Type 2", "Type ٣", "3", "²", ":=", "=>", "|", "-", "=", ">=", "-->", "\n", "\t", " ", "",
    "\n-- a - b = c\n", "  -- ->\n", "--",
    # whitespace that is not ' ', '\t' or '\n': str.isspace, and so `\s`, holds all of it
    "\r", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2003", "\u3000", "\n\x85\u3000-- a - b := c\n",
]
STARTS = ["", "Axiom a : ", "Axiom a : A -> ", "def f(x : A) : A { ", "Inductive N : Set := | Z : "]
SOUP = st.builds(str.__add__, st.sampled_from(STARTS),
                 st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join))

EXPRS = st.recursive(
    st.sampled_from(["A", "x", "Set", "Prop", "Type", "Type 3", "(f x y)"]),
    lambda e: st.one_of(
        st.builds("({} {})".format, e, e), st.builds("({})".format, e),
        st.builds("{} -> {}".format, e, e), st.builds("{} → {}".format, e, e),
        st.builds("λx:{}.{}".format, e, e), st.builds("Πy : {} . {}".format, e, e),
        st.builds("<{}> match {} with {{ Z => {}; (S p) => {}; }}".format, e, e, e, e),
    ),
    max_leaves=12)
DECLS = st.one_of(
    st.builds("Axiom a : {};".format, EXPRS),
    st.builds("def f(x : {}) : {} {{ {} }};".format, EXPRS, EXPRS, EXPRS),
    st.builds("Inductive N : {} := | Z : {} | S : {}".format, EXPRS, EXPRS, EXPRS),
)
PROGRAMS = st.lists(DECLS, max_size=3).map("\n".join)
# a well-formed program with one fragment inserted somewhere
MUTANTS = st.builds(lambda p, at, f: p[:at] + f + p[at:], PROGRAMS, st.integers(0, 200),
                    st.sampled_from(FRAGMENTS))

# fragments that start no stray '-' or '=' wherever they go, and what may separate parts
STRAYS = ["-", "=", ">=", "-->", "--", "  -- ->\n"]
QUIET = [f for f in FRAGMENTS if f not in STRAYS]
GAPS = ["\n", " ", "\t", "\r\n", "\r", "\x0b", "\xa0", "\u3000", "\n-- a - b = c\n",
        "\n  -- -> λx:A.\n", "\n\x85-- a - b := c\n"]


@st.composite
def long_sources(draw) -> str:
    """600 to 3000 characters, so that the scanner cuts the source into several
    windows: token soup, or declarations, with comment lines and every kind of
    whitespace between the parts, and maybe one fragment more (a stray, say)
    put in anywhere."""
    size = draw(st.integers(600, 3000))
    parts = (st.sampled_from(QUIET + GAPS) if draw(st.booleans())
             else st.builds(lambda decl, gap: decl.rstrip(";") + ";" + gap, DECLS,
                            st.sampled_from(GAPS)))
    source = ""
    while len(source) < size:
        source += draw(parts)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(source)))
        source = source[:at] + draw(st.sampled_from(FRAGMENTS)) + source[at:]
    return source[:3000]


@given(st.one_of(SOUP, PROGRAMS, MUTANTS, long_sources()))
@settings(max_examples=600, deadline=None)
@example("Axiom a : (;\nAxiom b : A - B;")
@example("Axiom N : Set; Axiom f : (N -> N) -> N → (N -> N);")
@example("def h() : Set { <Πa:A.Πb:A.λc:A.Πd:A.A> match x with { (S p) => x; Z => (f x y); } }")
@example("Axiom A : λ(x:Set).Set;")  # a binder with no name after it
@example("Axiom A : λx Set.Set;")  # a binder's name with no ':' after it
def test_token_soup_parses_as_the_reference_parser_does(source):
    assert outcome(tokenize, source) == outcome(reference.tokenize, source)
    assert (outcome(lambda s: parse_program(s, prelude=False).decls, source)
            == outcome(reference.parse_program, source))


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(render_digests(), encoding="utf-8")
