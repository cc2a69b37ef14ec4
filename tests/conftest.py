"""Shared fixtures: cached elaboration of the bundled example programs, and
a copy of a term or declaration with some fields changed."""
from __future__ import annotations

import functools

from pielang import elaborate, parse_program
from pielang.cli import corpus_path


def corpus_source(name: str, negative: bool = False) -> str:
    return corpus_path(name, negative=negative).read_text(encoding="utf-8")


@functools.lru_cache(maxsize=None)
def elaborated(name: str):
    """Elaborate one bundled program; cached because elaboration is pure."""
    program = parse_program(corpus_source(name), name)
    return elaborate(program)


def entry_type(result, name_text: str):
    for name, type_, status in result.entries:
        if str(name) == name_text and status == "ok":
            return type_
    raise KeyError(name_text)


def replace(node, **changes):
    """node rebuilt from its fields, each changed as changes say: by keyword,
    so a name that is no field fails."""
    return type(node)(**{f: getattr(node, f) for f in node.__match_args__} | changes)
