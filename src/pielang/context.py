"""Persistent typing environment: (name, type, optional value) bindings.

A context is a version of one persistent map built by shallow binding (Baker
1991) and rerooted as in Conchon & Filliâtre (2007), in which the binding made
last wins. The version used last owns the single dict, and extending it takes
constant time; every other version keeps the one entry by which it differs
from its neighbour towards that one. Using another version first moves the
dict to it, so a family of contexts (all extended from one `Context(...)`) is
for one thread at a time.
"""
from __future__ import annotations

from typing import NamedTuple

from .syntax import Name, Term

DEFAULT_BUDGET = 100_000


class Binding(NamedTuple):
    name: Name
    type: Term
    value: Term | None = None


class _Version:
    """One version of a persistent map. The current one holds the dict in `data`;
    any other is the version `next` with `key` bound to `value` (unbound if None)."""

    __slots__ = ("data", "key", "value", "next")

    def __init__(self, data: dict[Name, Binding]):
        self.data, self.key, self.value, self.next = data, None, None, None

    def reroot(self) -> dict[Name, Binding]:
        """Make this the current version and return its dict: reverse the path to
        the current version, then walk it back, leaving each step's inverse behind."""
        node, back = self, None
        while node.data is None:
            node.next, back, node = back, node, node.next
        data = node.data
        while back is not None:
            key, value, ahead = back.key, back.value, back.next
            node.data, node.key, node.value, node.next = None, key, data.get(key), back
            if value is None:
                del data[key]
            else:
                data[key] = value
            node, back = back, ahead
        node.data = data
        return data

    def set(self, key: Name, value: Binding) -> "_Version":
        data = self.data if self.data is not None else self.reroot()
        new = _Version(data)
        self.data, self.key, self.value, self.next = None, key, data.get(key), new
        data[key] = value
        return new


class Context:
    """One persistent map keyed by name, for top-level names (axioms, defs,
    inductives and constructors) and local binders (λ, Π, fixpoint and
    inductive self-binders) alike: the binding made last wins. Extending
    never changes what the receiver sees. Every context extended from this
    one carries its normalization step budget."""

    __slots__ = ("_map", "budget")

    def __init__(self, bindings: tuple[Binding, ...] = (), budget: int | None = None):
        self._map = _Version({b.name: b for b in bindings})  # a later binding wins
        self.budget = DEFAULT_BUDGET if budget is None else budget

    @property
    def bindings(self) -> tuple[Binding, ...]:
        """Each name's last binding, in the order the names were first bound."""
        return tuple(self._map.reroot().values())

    def declare(self, name: Name, type_: Term, value: Term | None = None) -> "Context":
        new = object.__new__(Context)
        new._map = self._map.set(name, tuple.__new__(Binding, (name, type_, value)))
        new.budget = self.budget
        return new

    # typing's binders enter through extend_type, and the tracer wraps both names
    extend_type = extend_type_value = declare

    def _lookup(self, name: Name) -> Binding | None:
        m = self._map
        return (m.data if m.data is not None else m.reroot()).get(name)

    def lookup_type(self, name: Name) -> Term | None:
        b = self._lookup(name)
        return b.type if b is not None else None

    def lookup_val(self, name: Name) -> Term | None:
        b = self._lookup(name)
        return b.value if b is not None else None

    def __contains__(self, name: Name) -> bool:
        return self._lookup(name) is not None
