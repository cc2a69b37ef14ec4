"""Per-layer spans and counters, installed as wrappers from outside the package.

A layer is one pielang module. `Tracer.install()` wraps every public function
of each layer module and the lookup/extend methods of `Context`, and rebinds
every alias other modules took with `from .syntax import subst` and the like,
so calls between and within modules all go through the wrappers.

Every call is counted. Only the outermost call into a layer opens a span; a
nested call into the same layer is counted and its time stays with the
enclosing span. A span's self time leaves out its child spans in other layers
and the time the tracer spends on its own extra counters.
"""
from __future__ import annotations

import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

from pielang import context, normalize
from pielang.syntax import Term

LAYERS = ("cli", "parser", "typecheck", "normalize", "syntax", "context",
          "inductive", "termination")

# Context methods, grouped under one metric name each
CONTEXT_METHODS = {
    "lookup_type": "lookup",
    "lookup_val": "lookup",
    "__contains__": "lookup",
    "extend_type": "extend",
    "extend_type_value": "extend",
}


def count_nodes(value) -> int:
    """Number of Term nodes reachable from a parsed program or term."""
    stack, n = [value], 0
    while stack:
        v = stack.pop()
        if isinstance(v, Term):
            n += 1
            stack.extend(getattr(v, f) for f in v.__dataclass_fields__ if f != "span")
        elif isinstance(v, (list, tuple)):
            stack.extend(v)
        elif hasattr(v, "__dataclass_fields__"):  # Program and declarations
            stack.extend(getattr(v, f) for f in v.__dataclass_fields__)
    return n


class _Span:
    __slots__ = ("layer", "key", "start", "excluded", "child")

    def __init__(self, layer: str, key: str, start: float, excluded: float):
        self.layer, self.key, self.start, self.excluded = layer, key, start, excluded
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self._stack: list[_Span] = []
        self._excluded = 0.0  # tracer bookkeeping kept out of every span
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _wrap(self, layer: str, key: str, fn, observe=None, track_depth=False):
        tracer = self
        calls, stack = self.calls, self._stack

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if track_depth:
                tracer._depth[key] += 1
                if tracer._depth[key] > tracer.extra[key + ".max_depth"]:
                    tracer.extra[key + ".max_depth"] = tracer._depth[key]
            outermost = not stack or stack[-1].layer != layer
            if outermost:
                span = _Span(layer, key, perf_counter(), tracer._excluded)
                stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if observe is not None:
                    tracer._observe(observe, args, None, exc)
                raise
            finally:
                if track_depth:
                    tracer._depth[key] -= 1
                if outermost:
                    tracer._close(span)
            if observe is not None:
                tracer._observe(observe, args, result, None)
            return result

        return wrapper

    def _close(self, span: _Span) -> None:
        stack = self._stack
        while stack and stack[-1] is not span:  # unwound by a RecursionError
            stack.pop()
        if stack:
            stack.pop()
        duration = perf_counter() - span.start - (self._excluded - span.excluded)
        self.self_s[span.key] += duration - span.child
        if stack:
            stack[-1].child += duration

    def _observe(self, observe, args, result, exc) -> None:
        start = perf_counter()
        observe(self.extra, args, result, exc)
        self._excluded += perf_counter() - start

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        layers = {layer: importlib.import_module(f"pielang.{layer}") for layer in LAYERS}
        modules = [m for name, m in sys.modules.items()
                   if name == "pielang" or name.startswith("pielang.")]
        for layer, module in layers.items():
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                if name.startswith("_") or fn.__module__ != module.__name__:
                    continue
                key = f"{layer}.{name}"
                wrapper = self._wrap(layer, key, fn, OBSERVERS.get(key),
                                     track_depth=key == "typecheck.type_check")
                for owner in modules:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, attr, wrapper)
        for method, group in CONTEXT_METHODS.items():
            fn = vars(context.Context)[method]
            key = f"context.{group}"
            self._patch(context.Context, method,
                        self._wrap("context", key, fn, OBSERVERS.get(key)))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# -- extra counters, keyed by the wrapped function ---------------------------

def _tokens(extra, args, result, exc):
    if exc is None:
        extra["parser.tokenize.tokens"] += len(result)


def _nodes(extra, args, result, exc):
    if exc is None:
        extra["parser.parse_program.nodes"] += count_nodes(result)


def _budget(extra, args, result, exc):
    if isinstance(exc, normalize.BudgetExceeded):
        extra["normalize.normalise.budget_exceeded"] += 1


def _false(extra, args, result, exc):
    if exc is None and not result:
        extra["normalize.check_equal.false"] += 1


def _context_len(extra, args, result, exc):
    extra["context.lookup.len"] += len(args[0].bindings)


OBSERVERS = {
    "parser.tokenize": _tokens,
    "parser.parse_program": _nodes,
    "normalize.normalise": _budget,
    "normalize.check_equal": _false,
    "context.lookup": _context_len,
}
