"""Tests of the benchmark itself: generators, verdict checks, tracing and the
output contract. Run with `python3 -m pytest bench/tests` from the repository
root."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from pielang.cli import CheckReport  # noqa: E402
from pielang.typecheck import Diagnostic  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def smallest(name: str, seed: int) -> list[workloads.Case]:
    """The workload's inputs at its smallest size (all of them for corpus)."""
    cases = workloads.WORKLOADS[name](seed)
    if name == "corpus":
        return cases
    least = min(c.size for c in cases)
    return [c for c in cases if c.size == least]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smallest_size_gets_the_stated_verdicts(name):
    cases = smallest(name, 7)
    assert cases
    for case in cases:
        _, outcome, lines, _ = run.check_case(case)
        assert outcome == "ok", (case.name, case.expected, lines)


def _report(exit_code: int, *rules: str) -> CheckReport:
    return CheckReport("x.pie", diagnostics=[Diagnostic(r, "m") for r in rules],
                       exit_code=exit_code)


def test_classify_tells_refusals_from_wrong_answers():
    arith = workloads.Case("a.pie", "", workloads.ACCEPTS, 8)
    deep = workloads.deep(0)[0]
    rejects = workloads.Case("r.pie", "", "T-App", 8)
    assert run.classify(arith, _report(0)) == "ok"
    assert run.classify(arith, _report(1, "Budget")) == "refused"
    assert run.classify(arith, _report(1, "Parse")) == "wrong"
    assert run.classify(deep, _report(1, "Parse")) == "refused"
    assert run.classify(deep, _report(1, "Budget", "Parse")) == "refused"
    assert run.classify(deep, _report(1, "T-App")) == "wrong"
    assert run.classify(deep, _report(1)) == "wrong"
    assert run.classify(rejects, _report(1, "T-App")) == "ok"
    assert run.classify(rejects, _report(1, "Budget")) == "wrong"
    assert run.classify(rejects, _report(0)) == "wrong"


def test_growth_sizes_are_sizes_of_their_workload():
    for name, sizes in workloads.GROWTH_SIZES.items():
        assert set(sizes) <= {c.size for c in workloads.WORKLOADS[name](0)}


def test_stated_verdicts_mix_accepts_and_rejects():
    corpus = [c.expected for c in workloads.corpus(0)]
    assert corpus.count(workloads.ACCEPTS) == 11 and len(corpus) == 26
    arith = [c.expected for c in workloads.arith(0)]
    assert arith.count(workloads.ACCEPTS) == arith.count("T-App") == len(arith) // 2


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_sources(name):
    generate = workloads.WORKLOADS[name]
    first = [(c.name, c.source) for c in generate(3)]
    assert first == [(c.name, c.source) for c in generate(3)]
    assert first != [(c.name, c.source) for c in generate(4)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_leaves_report_lines_unchanged(name):
    cases = smallest(name, 5)
    plain = [run.check_case(c)[2] for c in cases]
    tracer = Tracer()
    with tracer:
        traced = [run.check_case(c)[2] for c in cases]
    assert traced == plain
    assert tracer.calls["cli.check_source"] == len(cases)
    assert tracer.calls["context.lookup"] > 0
    assert all(t >= 0 for t in tracer.self_s.values())


def test_tracer_wraps_aliases_and_restores_them():
    import pielang
    from pielang import normalize, syntax, typecheck
    originals = (syntax.subst, normalize.subst, typecheck.subst, pielang.subst)
    assert len(set(originals)) == 1
    with Tracer():
        wrapped = (syntax.subst, normalize.subst, typecheck.subst, pielang.subst)
        assert len(set(wrapped)) == 1 and wrapped[0] is not originals[0]
    assert (syntax.subst, normalize.subst, typecheck.subst, pielang.subst) == originals


def test_self_times_partition_the_traced_time():
    case = smallest("arith", 1)[0]
    tracer = Tracer()
    with tracer:
        start = perf_counter()
        run.check_case(case)
        elapsed = perf_counter() - start
    total = sum(tracer.self_s.values())
    assert 0.5 * elapsed < total <= elapsed
    # nested calls within the syntax layer are counted but not timed on their own
    assert tracer.calls["syntax.free_vars"] > tracer.calls["syntax.subst"] > 0
    assert {key.split(".")[0] for key in tracer.self_s} <= set(LAYERS)


def _bench(*args: str) -> dict:
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                         capture_output=True, text=True, check=True, cwd=ROOT).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_output_has_every_metric_named_in_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = _bench("--workload", "corpus", "--seed", "1", "--seconds", "0.2",
                    "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 26
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
