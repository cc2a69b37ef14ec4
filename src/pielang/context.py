"""Persistent typing environment: (name, type, optional value) bindings."""
from __future__ import annotations

from dataclasses import dataclass

from .syntax import Name, Term

DEFAULT_BUDGET = 100_000


@dataclass(frozen=True)
class Binding:
    name: Name
    type: Term
    value: Term | None = None


class Context:
    """Two name-keyed dicts: top-level names (axioms, defs, inductives and
    constructors; see `declare`) and local binders (λ, Π, fixpoint and
    inductive self-binders). Locals shadow top-level names. Extending never
    mutates the receiver; pushing a local copies only the local dict. Every
    context extended from this one carries its normalization step budget."""

    __slots__ = ("_top", "_local", "budget")

    def __init__(self, bindings: tuple[Binding, ...] = (), budget: int | None = None):
        self._top = {b.name: b for b in bindings}  # a later binding wins
        self._local: dict[Name, Binding] = {}
        self.budget = DEFAULT_BUDGET if budget is None else budget

    def _with(self, top: dict[Name, Binding], local: dict[Name, Binding]) -> "Context":
        new = object.__new__(Context)
        new._top, new._local, new.budget = top, local, self.budget
        return new

    @property
    def bindings(self) -> tuple[Binding, ...]:
        """Top-level bindings in declaration order, then the locals."""
        return (*self._top.values(), *self._local.values())

    def declare(self, name: Name, type_: Term, value: Term | None = None) -> "Context":
        return self._with({**self._top, name: Binding(name, type_, value)}, self._local)

    def extend_type(self, name: Name, type_: Term) -> "Context":
        return self._with(self._top, {**self._local, name: Binding(name, type_)})

    def extend_type_value(self, name: Name, type_: Term, value: Term) -> "Context":
        return self._with(self._top, {**self._local, name: Binding(name, type_, value)})

    def _lookup(self, name: Name) -> Binding | None:
        return self._local.get(name) or self._top.get(name)

    def lookup_type(self, name: Name) -> Term | None:
        b = self._lookup(name)
        return b.type if b is not None else None

    def lookup_val(self, name: Name) -> Term | None:
        b = self._lookup(name)
        return b.value if b is not None else None

    def __contains__(self, name: Name) -> bool:
        return self._lookup(name) is not None
