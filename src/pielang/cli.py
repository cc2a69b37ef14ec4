"""Batch checker for `.pie` files.

Usage: pie check FILE... [--dump-types] [--normalize NAME] [--no-prelude]
[--budget N]. Exit code 0 when every file checks, 1 otherwise.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .context import Context
from .diagnostics import CheckError, Diagnostic
from .normalize import normalise
from .parser import parse_program
from .syntax import Name, Term, pretty
from .typecheck import elaborate


@dataclass
class CheckReport:
    file: str
    # name, type (None if failed), ok|failed
    decls: list[tuple[Name, Term | None, str]] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    exit_code: int = 0
    extra_lines: list[str] = field(default_factory=list)

    def lines(self, dump_types: bool = False) -> list[str]:
        out = []
        if dump_types:
            out.extend(f"{name} : {pretty(type_)}" for name, type_, status in self.decls
                       if status == "ok")
        out.extend(d.render(self.file) for d in self.diagnostics)
        out.extend(self.extra_lines)
        return out


def check_file(path: str, *, prelude: bool = True, budget: int | None = None,
               normalize_name: str | None = None) -> CheckReport:
    try:
        source = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        return CheckReport(path, diagnostics=[Diagnostic("Parse", f"cannot read file: {err}")],
                           exit_code=1)
    return check_source(source, path, prelude=prelude, budget=budget,
                        normalize_name=normalize_name)


def check_source(source: str, name: str = "<input>", *, prelude: bool = True,
                 budget: int | None = None, normalize_name: str | None = None) -> CheckReport:
    """`budget` replaces the normalization step budget for this call only."""
    try:
        program = parse_program(source, name, prelude=prelude)
    except CheckError as err:
        return CheckReport(name, diagnostics=[err.diagnostic], exit_code=1)

    result = elaborate(program, Context(budget=budget))
    report = CheckReport(name, result.entries, result.diagnostics)
    if any(d.severity == "error" for d in report.diagnostics):
        report.exit_code = 1

    if normalize_name is not None and report.exit_code == 0:
        target = Name(normalize_name)
        value = result.context.lookup_val(target)
        if value is None:
            report.diagnostics.append(
                Diagnostic("Parse", f"--normalize: no value bound to {normalize_name}")
            )
            report.exit_code = 1
        else:
            try:
                normal = normalise(value, result.context)
                report.extra_lines.append(f"{normalize_name} ~> {pretty(normal)}")
            except CheckError as err:
                report.diagnostics.append(err.diagnostic)
                report.exit_code = 1
    return report


# ---------------------------------------------------------------------------
# Bundled corpus
# ---------------------------------------------------------------------------

POSITIVE_CORPUS = [
    "fol.pie",
    "fol_proof.pie",
    "peano.pie",
    "nat.pie",
    "add.pie",
    "nat_ind.pie",
    "eq_nat.pie",
    "nat_proofs.pie",
    "printf.pie",
    "day.pie",
    "appendix_c.pie",
]

# file name -> diagnostic rule tag expected on rejection
NEGATIVE_CORPUS = {
    "unbound_var.pie": "T-Var",
    "lam_domain_not_type.pie": "T-Abs",
    "pi_domain_not_type.pie": "T-PI",
    "app_mismatch.pie": "T-App",
    "app_non_function.pie": "T-App",
    "ind_wrong_target.pie": "T-Ind",
    "ind_universe_mismatch.pie": "T-Ind",
    "match_swapped_branches.pie": "T-Match",
    "match_missing_branch.pie": "T-Match",
    "match_not_inductive.pie": "T-Match",
    "guard_undeconstructed.pie": "Guard",
    "guard_escape.pie": "Guard",
    "def_type_mismatch.pie": "T-App",
    "axiom_not_a_type.pie": "T-Univ",
    "parse_error.pie": "Parse",
}


def corpus_path(name: str, negative: bool = False) -> Path:
    base = Path(__file__).with_name("corpus")
    return (base / "negative" if negative else base) / name


def load_corpus() -> list[tuple[Path, str]]:
    """All bundled programs with their expected outcome: 'accepts' or the
    diagnostic rule tag of the expected rejection."""
    entries = [(corpus_path(n), "accepts") for n in POSITIVE_CORPUS]
    entries.extend(
        (corpus_path(n, negative=True), tag) for n, tag in NEGATIVE_CORPUS.items()
    )
    return entries


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="pie", description="Check .pie files.")
    sub = ap.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="type check one or more .pie files")
    check.add_argument("files", nargs="+")
    check.add_argument("--dump-types", action="store_true",
                       help="print every top-level name with its checked type")
    check.add_argument("--normalize", metavar="NAME", default=None,
                       help="also print the normal form of NAME's value")
    check.add_argument("--no-prelude", action="store_true",
                       help="do not prepend the Void/Null prelude")
    check.add_argument("--budget", type=int, default=None, metavar="N",
                       help="normalization step budget (default 100000)")
    args = ap.parse_args(argv)

    exit_code = 0
    for path in args.files:
        report = check_file(path, prelude=not args.no_prelude, budget=args.budget,
                            normalize_name=args.normalize)
        for line in report.lines(dump_types=args.dump_types):
            print(line)
        exit_code = max(exit_code, report.exit_code)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
