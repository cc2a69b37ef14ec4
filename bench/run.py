"""Benchmark for `pie check`: time to verdict on seeded workloads.

Usage, from the repository root:

    python3 bench/run.py --workload {corpus,arith,decls,deep} --seed N \
        --seconds S --trace {0,1}

One process, one thread. Each case goes to `pielang.cli.check_source`, the
library entry behind `pie check`, and its report is rendered with
`lines(dump_types=True)`. The run repeats passes over the workload's cases
for --seconds seconds and checks every verdict against the case's known
answer. Every pass must render byte-identical lines for a case, so that
state leaking between calls in one process shows as a wrong answer.

--trace 0 prints the end-to-end metrics. --trace 1 first runs untraced
passes, then traced ones with a wrapper around each layer's public
functions, and prints the per-layer metrics; no end-to-end metric comes
from a traced pass. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. README.md defines
every metric.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import pielang  # noqa: E402
from pielang import cli  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import ACCEPTS, GROWTH_SIZES, WORKLOADS  # noqa: E402

LIMIT_S = 10.0       # per-input time limit; a failed input counts as this plus its time
SETUP_STARTS = 15    # child interpreters started to measure setup_s
HARD_STOP_S = 120.0  # start no pass after this, so a slow kernel still exits in time
TAIL_BEYOND = 10     # the tail is the highest percentile with this many samples beyond
REF_S = 400e-6       # reported times are scaled to this duration of one reference run


class Timeout(BaseException):
    """Raised by the alarm; a BaseException so no handler in the kernel catches it."""


def _alarm(signum, frame):
    raise Timeout


def check_case(case):
    """Check one case. Returns (seconds, outcome, lines, decls decided)."""
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
        try:
            report = cli.check_source(case.source, case.name)
            lines = report.lines(dump_types=True)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Timeout:
        elapsed, outcome = perf_counter() - start, "timeout"
    except Exception:  # an uncaught exception from the kernel is a crash, not an answer
        elapsed, outcome = perf_counter() - start, "crash"
    else:
        return perf_counter() - start, classify(case, report), lines, len(report.decls)
    # The traceback left cycles of frames behind. Collect them now, untimed, so
    # that peak_rss_mb does not hang on when the collector happens to run.
    gc.collect()
    return elapsed, outcome, None, 0


def classify(case, report) -> str:
    """ok, wrong or refused: the report's verdict against the case's known answer."""
    errors = [d.rule for d in report.diagnostics if d.severity == "error"]
    if case.expected == ACCEPTS:
        if report.exit_code == 0:
            return "ok"
        if errors and set(errors) <= case.limits:
            return "refused"
    elif report.exit_code == 1 and case.expected in errors:
        return "ok"
    return "wrong"


# -- machine-speed reference ---------------------------------------------------
# On a shared machine the speed of this process drifts by tens of percent over
# seconds, for every run alike. Each check is therefore also timed against a
# fixed computation run just before and just after it: the scaled time is the
# check's wall time times REF_S over the mean of those two reference times.
# The reference is the benchmark's own code, so no change to pielang moves it.

@dataclass(frozen=True)
class _Node:
    left: object
    right: object


def _tree(depth: int, i: int):
    if depth == 0:
        return ("leaf", i % 7)
    return _Node(_tree(depth - 1, 2 * i), _tree(depth - 1, 2 * i + 1))


def _leaves(t) -> frozenset:
    match t:
        case _Node(left=left, right=right):
            return _leaves(left) | _leaves(right)
        case ("leaf", v):
            return frozenset((v,))
    raise TypeError(t)


def reference_seconds() -> float:
    start = perf_counter()
    _leaves(_tree(8, 1))
    return perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between reference runs taking `before` and `after`."""
    return seconds * REF_S * 2 / (before + after)


OUTCOMES = ("ok", "wrong", "refused", "crash", "timeout")


class Run:
    """Per-pass results of one process over one workload's cases."""

    def __init__(self, cases):
        self.cases = cases
        # Per pass, each case's scaled time and index in OUTCOMES. Both are
        # filled in place: an object made inside a pass and kept would pin
        # memory the kernel has freed, and ru_maxrss would grow with every pass.
        self.times: list[array] = []
        self.codes: list[bytearray] = []
        self.decided = 0  # declarations in the reports of the first pass
        self.lines: list[list[str] | None] = [None] * len(cases)
        self.inconsistent = 0

    def one_pass(self) -> float:
        """Check every case once; returns the pass's scaled check time."""
        first = not self.times
        times, codes = array("d", bytes(8 * len(self.cases))), bytearray(len(self.cases))
        self.times.append(times)
        self.codes.append(codes)
        before = reference_seconds()
        for i, case in enumerate(self.cases):
            seconds, outcome, lines, decided = check_case(case)
            after = reference_seconds()
            if lines is not None:
                if self.lines[i] is None:
                    self.lines[i] = lines
                elif self.lines[i] != lines:
                    self.inconsistent += 1
            times[i] = scaled(seconds, before, after)
            codes[i] = OUTCOMES.index(outcome)
            if first:
                self.decided += decided
            before = after
        return sum(times)

    def repeat(self, seconds: float, hard_stop: float, between=None) -> list[float]:
        """Passes for `seconds` (at least one); returns each pass's scaled time."""
        times = []
        deadline = min(perf_counter() + seconds, hard_stop)
        while not times or perf_counter() < deadline:
            times.append(self.one_pass())
            if between is not None:
                between()
        return times

    def outcomes(self) -> list[str]:
        return [OUTCOMES[code] for codes in self.codes for code in codes]

    def per_input(self, charged: bool) -> list[float]:
        """Median over passes of each case's scaled time. With `charged`, a
        failed check counts as the time limit plus its time."""
        return [statistics.median(t[i] + (LIMIT_S if charged and c[i] else 0.0)
                                  for t, c in zip(self.times, self.codes))
                for i in range(len(self.cases))]

    def summary(self, metrics: dict) -> dict:
        outcomes = self.outcomes()
        return {
            "correct": self.inconsistent == 0 and "wrong" not in outcomes,
            "attempted": len(outcomes),
            "failed": sum(o != "ok" for o in outcomes),
            "metrics": metrics,
        }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class SetupTimer:
    """Times fresh interpreters importing pielang.cli, scaled like the checks.
    The starts are spread over the run, so their median does not hang on one
    moment's machine speed."""

    def __init__(self, seconds: float):
        code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import pielang.cli"
        self.argv = [sys.executable, "-c", code]
        self.interval = seconds / SETUP_STARTS
        self.times: list[float] = []
        subprocess.run(self.argv, check=True)  # bytecode cache warm, as for a user
        self.next_start = perf_counter()

    def start(self) -> None:
        before = reference_seconds()
        begin = perf_counter()
        subprocess.run(self.argv, check=True)
        elapsed = perf_counter() - begin
        self.times.append(scaled(elapsed, before, reference_seconds()))
        self.next_start = begin + self.interval

    def maybe_start(self) -> None:
        if len(self.times) < SETUP_STARTS and perf_counter() >= self.next_start:
            self.start()

    def median(self) -> float:
        while len(self.times) < SETUP_STARTS:
            self.start()
        return statistics.median(self.times)


def end_to_end(run: Run, setup_s: float, growth_sizes: tuple[int, int] | None) -> dict:
    cases = run.cases
    ranked = sorted(run.per_input(charged=True))
    p50 = ranked[math.ceil(len(ranked) / 2) - 1]
    tail = ranked[len(ranked) - TAIL_BEYOND - 1]

    times = run.per_input(charged=False)

    if growth_sizes is None:
        sizes = sorted({c.size for c in cases})
        growth_sizes = min(sizes[:-1], key=lambda s: abs(s - sizes[-1] / 2)), sizes[-1]
    half, full = growth_sizes

    def size_time(size: int) -> float:
        # geometric mean, so that each input's growth counts alike
        return statistics.geometric_mean(t for t, c in zip(times, cases) if c.size == size)

    outcomes = run.outcomes()
    return {
        "setup_s": _metric(setup_s, "s"),
        "decls_per_s": _metric(run.decided / sum(times), "1/s"),
        "verdict_p50_ms": _metric(p50 * 1000, "ms"),
        "verdict_tail_ms": _metric(tail * 1000, "ms"),
        "growth_exp": _metric(math.log2(size_time(full) / size_time(half)), "log2"),
        "decided_share": _metric(outcomes.count("ok") / len(outcomes), "share"),
        "crash_free_share": _metric(1 - outcomes.count("crash") / len(outcomes), "share"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# Per-layer metrics: <module>.<function> -> extra counters reported beside calls/self_s
TRACED = {
    "parser.tokenize": ("tokens",),
    "parser.parse_program": ("nodes",),
    "parser.desugar_def": (),
    "cli.check_source": (),
    "typecheck.elaborate": (),
    "typecheck.type_check": ("max_depth",),
    "normalize.normalise": ("budget_exceeded",),
    "normalize.check_equal": ("false",),
    "syntax.subst": (),
    "syntax.free_vars": ("per_subst",),
    "syntax.alpha_eq": (),
    "syntax.pretty": (),
    "context.lookup": ("mean_len",),
    "context.extend": (),
    "inductive.register_inductive": (),
    "inductive.check_ind": ("per_inductive",),
    "inductive.check_match": (),
    "termination.check_fix": (),
    "termination.guard_check": ("per_fix",),
}
COUNTED = ("syntax.fresh_name", "termination.infer_fix_index")


def per_layer(tracer: Tracer, passes: int, overhead: float) -> dict:
    """Counts and self times per pass, plus ratios over the whole traced run."""
    calls, extra = tracer.calls, tracer.extra
    ratios = {
        "syntax.free_vars.per_subst": (calls["syntax.free_vars"], calls["syntax.subst"]),
        "context.lookup.mean_len": (extra["context.lookup.len"], calls["context.lookup"]),
        "inductive.check_ind.per_inductive": (
            calls["inductive.check_ind"], calls["inductive.register_inductive"]),
        "termination.guard_check.per_fix": (
            calls["termination.guard_check"], calls["termination.check_fix"]),
    }
    metrics = {}
    for key, extras in TRACED.items():
        metrics[f"{key}.calls"] = _metric(calls[key] / passes, "count")
        metrics[f"{key}.self_s"] = _metric(tracer.self_s[key] / passes, "s")
        for name in extras:
            full = f"{key}.{name}"
            if full in ratios:
                num, den = ratios[full]
                unit = "count" if name == "mean_len" else "ratio"
                metrics[full] = _metric(num / den if den else 0.0, unit)
            elif name == "max_depth":
                metrics[full] = _metric(extra[full], "count")
            else:
                metrics[full] = _metric(extra[full] / passes, "count")
    for key in COUNTED:
        metrics[f"{key}.calls"] = _metric(calls[key] / passes, "count")
    metrics["trace.overhead"] = _metric(overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if SRC not in Path(pielang.__file__).resolve().parents:
        print(f"bench: pielang was imported from {pielang.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    hard_stop = perf_counter() + HARD_STOP_S
    run = Run(WORKLOADS[args.workload](args.seed))

    if args.trace == 0:
        setup = SetupTimer(args.seconds)
        run.repeat(args.seconds, hard_stop, between=setup.maybe_start)
        metrics = end_to_end(run, setup.median(), GROWTH_SIZES.get(args.workload))
        result = run.summary(metrics)
    else:
        untraced = run.repeat(args.seconds / 3, hard_stop)
        tracer = Tracer()
        with tracer:
            traced = run.repeat(args.seconds * 2 / 3, hard_stop)
        overhead = statistics.median(traced) / statistics.median(untraced)
        result = run.summary(per_layer(tracer, len(traced), overhead))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
