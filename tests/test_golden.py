"""Golden output: `pie check` reports stay byte-identical.

`golden/corpus_reports.txt` holds, for every bundled program, the report
lines with `--dump-types`, and for every top-level def of the accepted
programs the report lines with `--normalize NAME`. `golden/report_digests.txt`
holds one digest per benchmark input of each workload at seeds 1 and 2, over
its `--dump-types` lines and its exit code, and `golden/budget_digests.txt`
the same digest for each input of the two workloads that evaluate, `corpus`
and `arith`, at a starved, two small and a large step budget. Regenerate
them only for an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from pielang import parser, syntax
from pielang.cli import POSITIVE_CORPUS, check_source, load_corpus
from pielang.parser import DefDecl, parse_program

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

GOLDEN = Path(__file__).with_name("golden") / "corpus_reports.txt"
REPORT_DIGESTS = Path(__file__).with_name("golden") / "report_digests.txt"
BUDGET_DIGESTS = Path(__file__).with_name("golden") / "budget_digests.txt"


def render_golden() -> str:
    out = []
    for path, _ in load_corpus():
        source = path.read_text(encoding="utf-8")
        out.append(f"== {path.name} --dump-types")
        out.extend(check_source(source, path.name).lines(dump_types=True))
        if path.name not in POSITIVE_CORPUS:
            continue
        for decl in parse_program(source, path.name).decls:
            if isinstance(decl, DefDecl):
                out.append(f"== {path.name} --normalize {decl.name}")
                report = check_source(source, path.name, normalize_name=str(decl.name))
                out.extend(report.lines())
    return "\n".join(out) + "\n"


def _digest(case, budget: int | None = None) -> str:
    report = check_source(case.source, case.name, budget=budget)
    both = report.lines(dump_types=True), report.exit_code
    return hashlib.sha256(repr(both).encode()).hexdigest()[:16]


def render_report_digests() -> str:
    out = []
    for name, generate in workloads.WORKLOADS.items():
        for seed in (1, 2):
            for case in generate(seed):
                out.append(f"{name}/{seed}/{case.name} {_digest(case)}")
    return "\n".join(out) + "\n"


def render_budget_digests() -> str:
    # `decls` and `deep` evaluate nothing, so no budget moves their reports
    out = []
    for name in ("corpus", "arith"):
        for seed in (1, 2):
            for budget in (0, 5, 50, 1000):
                for case in workloads.WORKLOADS[name](seed):
                    out.append(f"{name}/{seed}/{budget}/{case.name} {_digest(case, budget)}")
    return "\n".join(out) + "\n"


def test_corpus_reports_match_the_golden_file():
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    actual = render_golden().splitlines()
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        assert got == want


def test_benchmark_inputs_report_the_pinned_digests():
    expected = REPORT_DIGESTS.read_text(encoding="utf-8").splitlines()
    actual = render_report_digests().splitlines()
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        assert got == want


def test_starved_budgets_report_the_pinned_digests():
    """At budget 0 most of these reports are a Budget refusal where the
    default budget decides, so the step at which evaluation stops is pinned."""
    expected = BUDGET_DIGESTS.read_text(encoding="utf-8").splitlines()
    actual = render_budget_digests().splitlines()
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        assert got == want


def test_a_check_that_succeeds_places_no_token(monkeypatch):
    """A kept token is placed only for a report: with placing refused, every
    accepted corpus program and every seed-1 `decls` and `deep` input checks
    to its usual report, so no successful check computes a position."""
    sources = [(path.name, path.read_text(encoding="utf-8")) for path, tag in load_corpus()
               if tag == "accepts"]
    sources += [(case.name, case.source) for name in ("decls", "deep")
                for case in workloads.WORKLOADS[name](1)]

    def reports():
        return [(report.exit_code, report.lines(dump_types=True))
                for report in (check_source(source, name) for name, source in sources)]
    usual = reports()

    def refuse(tok):
        raise AssertionError(f"the position of {tok[1]!r} was computed")
    for module in (syntax, parser):
        monkeypatch.setattr(module, "_token_span", refuse)
    assert reports() == usual
    assert all(code == 0 for code, _ in usual)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render_golden(), encoding="utf-8")
    REPORT_DIGESTS.write_text(render_report_digests(), encoding="utf-8")
    BUDGET_DIGESTS.write_text(render_budget_digests(), encoding="utf-8")
