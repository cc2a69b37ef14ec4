"""Seeded input generators for the `pie check` benchmark.

Every case carries its known answer: "accepts", or the rule tag of the
expected rejection. The answer comes from the bundled corpus table or from
how the input was built (Python int arithmetic for `arith`), never from the
checker under test. The seed picks operand splits, names and input order;
the sizes and the number of inputs per size are fixed per workload, so the
same seed always gives byte-identical sources.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from pielang.cli import load_corpus

ACCEPTS = "accepts"


@dataclass(frozen=True)
class Case:
    name: str      # file name shown in diagnostics
    source: str
    expected: str  # ACCEPTS or the rule tag of the expected rejection
    size: int      # the workload's size dimension: words, k, N or depth
    # Rule tags of a resource-limit rejection. On an input that should be
    # accepted, a rejection with only these tags is a refusal, not a wrong answer.
    limits: frozenset[str] = frozenset({"Budget"})


def corpus(seed: int) -> list[Case]:
    """The 26 bundled programs; size is the number of whitespace-separated words."""
    cases = []
    for path, expected in load_corpus():
        source = path.read_text(encoding="utf-8")
        cases.append(Case(path.name, source, expected, len(source.split())))
    random.Random(seed).shuffle(cases)
    return cases


NAT = "Inductive Nat : Set := | Zero : Nat | Succ : Nat -> Nat;\n"

ARITH_PRELUDE = NAT + """\
Inductive Eq : Nat -> Nat -> Set := | Eq_Rfl : Πn:Nat.(Eq n n);
def add(x : Nat, y : Nat) : Nat {
  <λn:Nat.Nat> match x with { Zero => y; Succ => (λn:Nat. (Succ (add n y))) }
};
"""

# sum k = m + n -> number of theorems of that size (half true, half false)
ARITH_SIZES = {8: 16, 16: 16, 32: 8, 64: 8}


def numeral(k: int) -> str:
    return "(Succ " * k + "Zero" + ")" * k


def arith(seed: int) -> list[Case]:
    """Theorems (Eq (add m n) k) proved by Eq_Rfl. A true one is accepted;
    one whose k is off by one is rejected with T-App."""
    rng = random.Random(seed)
    cases = []
    for k, count in ARITH_SIZES.items():
        # The cost grows with m. The same splits, spread evenly within k/16 of
        # add n n, serve the true and the false theorems of every seed, so a
        # size group costs nearly the same for every seed. The seed assigns
        # splits and off-by-one directions to theorems.
        half, width = count // 2, k // 16
        splits = [k // 2 + round(width * (2 * j / max(half - 1, 1) - 1)) for j in range(half)]
        for off_by in (0, 1):
            rng.shuffle(splits)
            directions = [1, -1] * (half // 2)
            rng.shuffle(directions)
            for j, (m, direction) in enumerate(zip(splits, directions)):
                n = k - m
                claimed = k + off_by * direction
                expected = ACCEPTS if m + n == claimed else "T-App"
                source = ARITH_PRELUDE + (
                    f"def thm() : (Eq (add {numeral(m)} {numeral(n)}) {numeral(claimed)}) "
                    f"{{ (Eq_Rfl {numeral(claimed)}) }};\n"
                )
                cases.append(Case(f"arith_{k}_{off_by}_{j}.pie", source, expected, k))
    rng.shuffle(cases)
    return cases


# N axioms plus N defs -> number of files of that size
DECLS_SIZES = {32: 32, 64: 16, 128: 8, 256: 4}


def decls(seed: int) -> list[Case]:
    """N axioms, then N one-line defs that each name a seed-chosen axiom."""
    rng = random.Random(seed)
    cases = []
    for n, count in DECLS_SIZES.items():
        for i in range(count):
            lines = ["Axiom T : Set;"]
            lines += [f"Axiom a{j} : T;" for j in range(n)]
            lines += [f"def d{j}() : T {{ a{rng.randrange(n)} }};" for j in range(n)]
            cases.append(Case(f"decls_{n}_{i}.pie", "\n".join(lines) + "\n", ACCEPTS, n))
    rng.shuffle(cases)
    return cases


DEEP_SIZES = (100, 200, 400, 800, 1600, 3200)
# A nesting-depth limit may be reported by the parser as well as by the budget.
DEEP_LIMITS = frozenset({"Budget", "Parse"})


def _deep_source(shape: str, depth: int, name: str) -> str:
    if shape == "numeral":
        return NAT + f"def {name}() : Nat {{ {numeral(depth)} }};\n"
    if shape == "arrow":
        return f"Axiom A : Set;\nAxiom {name} : " + " -> ".join(["A"] * (depth + 1)) + ";\n"
    if shape == "binder":
        binders = [f"{name}{i}" for i in range(depth)]
        type_ = "".join(f"Π{x}:A." for x in binders) + "A"
        value = "".join(f"λ{x}:A." for x in binders) + binders[0]
        return f"Axiom A : Set;\ndef {name}() : {type_} {{ {value} }};\n"
    if shape == "paren":
        return NAT + f"def {name}() : Nat {{ " + "(" * depth + "Zero" + ")" * depth + " };\n"
    raise ValueError(shape)


DEEP_SHAPES = ("numeral", "arrow", "binder", "paren")


def deep(seed: int) -> list[Case]:
    """Well-typed declarations nested `depth` levels deep, in four shapes;
    the known answer for each is acceptance."""
    rng = random.Random(seed)
    cases = []
    for depth in DEEP_SIZES:
        for shape in DEEP_SHAPES:
            name = "".join(rng.choice("bcdghjkmpqrstvwxyz") for _ in range(6))
            source = _deep_source(shape, depth, name)
            cases.append(Case(f"deep_{shape}_{depth}.pie", source, ACCEPTS, depth, DEEP_LIMITS))
    rng.shuffle(cases)
    return cases


WORKLOADS = {"corpus": corpus, "arith": arith, "decls": decls, "deep": deep}

# The (half, full) sizes whose time ratio gives growth_exp. On `deep` they are
# sizes every shape decides today, so the exponent measures checking, not how
# fast a crash comes; failures show in decided_share and crash_free_share.
# `corpus` has no such pair: it compares its largest program with the one
# nearest half its size.
GROWTH_SIZES = {"arith": (32, 64), "decls": (128, 256), "deep": (200, 400)}
