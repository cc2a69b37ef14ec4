"""Golden output: `pie check` reports on the bundled corpus stay byte-identical.

The golden file holds, for every bundled program, the report lines with
`--dump-types`, and for every top-level def of the accepted programs the
report lines with `--normalize NAME`. Regenerate it only for an intended
change of output:

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

from pathlib import Path

from pielang.cli import POSITIVE_CORPUS, check_source, load_corpus
from pielang.parser import DefDecl, parse_program

GOLDEN = Path(__file__).with_name("golden") / "corpus_reports.txt"


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


def test_corpus_reports_match_the_golden_file():
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    actual = render_golden().splitlines()
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        assert got == want


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render_golden(), encoding="utf-8")
