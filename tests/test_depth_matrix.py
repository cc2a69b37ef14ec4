"""The depth matrix: every position a term can nest in, read from the binding
table, and every declaration position, nested 3000 deep, is checked, has its
types printed and is normalised at the default recursion limit, and each run
ends in its report, never in a traceback. A position that source cannot
write is listed, so a position the binding table gains is either probed here
or listed, and cannot be missed."""
from __future__ import annotations

import sys

import pytest

from pielang.cli import check_source
from pielang.syntax import BINDING, INSIDE, OUTSIDE, App, Constr, Fix, Ind, Lam, Match, Pi

DEPTH = 3000
AXIOMS = "Axiom A : Set;\nAxiom a : A;\n"
NAT = "Inductive Nat : Set := | Zero : Nat | Succ : Nat -> Nat;\n"
MATCH = "<λn:Nat.Nat> match "
ZERO_SUCC = " with { Zero => Zero; Succ => λp:Nat.p }"


def arrows(n: int, last: str = "A") -> str:
    """A -> ... -> A -> last, with n arrows."""
    return "A -> " * n + last


def typed_and_kept(t: str) -> str:
    """An axiom of type t, whose type is printed, and a def d whose value is t."""
    return AXIOMS + f"Axiom c : {t};\ndef d() : Set {{ {t} }};"


# each term position, nested n deep as the same kind of node, in a def d, with
# the exit code its report ends in; a λ is never a type, so a λ nested in a
# λ's domain is reported, one level above the bottom
TERM_POSITIONS = {
    (App, "fn"): (lambda n: AXIOMS + f"Axiom f : {arrows(n)};\ndef d() : A {{ (f"
                  + " a" * n + ") };", 0),
    (App, "arg"): (lambda n: AXIOMS + "Axiom g : A -> A;\ndef d() : A { " + "(g " * n + "a"
                   + ")" * n + " };", 0),
    (Lam, "domain"): (lambda n: AXIOMS + "def d() : Set { " + "λx:(" * n + "A" + ").x" * n
                      + " };", 1),
    (Lam, "body"): (lambda n: AXIOMS + "def d() : " + "".join(f"Πx{i}:A." for i in range(n))
                    + "A { " + "".join(f"λx{i}:A." for i in range(n)) + "x0 };", 0),
    (Pi, "domain"): (lambda n: typed_and_kept("(" * n + "A" + " -> A)" * n + " -> A"), 0),
    (Pi, "body"): (lambda n: typed_and_kept(arrows(n)), 0),
    (Match, "carrier"): (lambda n: NAT + "def d() : Nat { " + "<λn:Nat.((λx:Nat.Nat) " * n
                         + MATCH + "Zero" + ZERO_SUCC + (")> match Zero" + ZERO_SUCC) * n
                         + " };", 0),
    (Match, "scrutinee"): (lambda n: NAT + "def d() : Nat { " + MATCH * n + "Zero"
                           + ZERO_SUCC * n + " };", 0),
    (Match, "branches"): (lambda n: NAT + "def d() : Nat { "
                          + (MATCH + "Zero with { Zero => ") * n + "Zero"
                          + "; Succ => λp:Nat.p }" * n + " };", 0),
}

# the fields of an inductive, a constructor and a fixpoint, which elaboration
# builds from declarations; the declaration positions below nest in them
UNWRITABLE = {(Ind, "arity"), (Ind, "constructors"), (Constr, "inductive"), (Fix, "signature"),
              (Fix, "body")}

DECLARATION_POSITIONS = {
    "arity": (lambda n: AXIOMS + f"Inductive T : {arrows(n, 'Set')} := | mk : (T"
              + " a" * n + ");\ndef d() : (T" + " a" * n + ") { mk };", 0),
    "constructor argument": (lambda n: "Axiom A : Set;\nInductive T : Set := | mk : ("
                             + arrows(n, "T") + f") -> T;\ndef d() : ({arrows(n, 'T')}) -> T "
                             "{ mk };", 0),
    "parameter type": (lambda n: AXIOMS + f"def d(f : {arrows(n)}) : {arrows(n)} {{ f }};", 0),
    "recursive branch": (lambda n: NAT + "def d(m : Nat) : Nat { " + MATCH
                         + "m with { Zero => Zero; Succ => λp0:Nat."
                         + "".join(f"{MATCH}p{i} with {{ Zero => Zero; Succ => λp{i + 1}:Nat."
                                   for i in range(n))
                         + f"(d p{n})" + " }" * (n + 1) + " };", 0),
}

POSITIONS = {f"{kind.__name__}.{field}": case for (kind, field), case in TERM_POSITIONS.items()}
POSITIONS.update(DECLARATION_POSITIONS)


def test_every_position_of_the_binding_table_is_probed_or_listed():
    positions = {(kind, field) for kind, fields in BINDING.items()
                 for field, role in fields if role in (OUTSIDE, INSIDE)}
    assert not TERM_POSITIONS.keys() & UNWRITABLE
    assert positions == TERM_POSITIONS.keys() | UNWRITABLE


# d is checked, has its type printed and is normalised; the scrutinee position
# is only checked, since each level's type evaluates the whole scrutinee below
# it, which is quadratic and takes seconds a run at this depth
RUNS = [(position, how) for position in POSITIONS for how in ("plain", "dump_types", "normalize")
        if how == "plain" or position != "Match.scrutinee"]


@pytest.mark.parametrize("position, how", RUNS)
def test_a_position_nested_3000_deep_ends_in_a_report(position, how):
    assert sys.getrecursionlimit() == 1000
    source, exit_code = POSITIONS[position]
    report = check_source(source(DEPTH), normalize_name="d" if how == "normalize" else None)
    lines = report.lines(dump_types=how == "dump_types")
    assert report.exit_code == exit_code, [line[:200] for line in lines[:3]]
