"""Persistent typing environment: (name, type, optional value) bindings.

Each context is a version of one persistent map built by shallow binding
(Baker 1991) and rerooted as in Conchon & Filliâtre (2007), in which the
binding made last wins. The context used last owns the single dict, and
extending it takes constant time; every other context keeps the one entry by
which it differs from its neighbour towards that one. Using another context
first moves the dict to it, so a family of contexts (all extended from one
`Context(...)`) is for one thread at a time.
"""
from __future__ import annotations

from typing import NamedTuple

from .syntax import Name, Term

DEFAULT_BUDGET = 100_000


class Binding(NamedTuple):
    name: Name
    type: Term
    value: Term | None = None


class Context:
    """One persistent map keyed by name, for top-level names (axioms, defs,
    inductives and constructors) and local binders (λ, Π, fixpoint and
    inductive self-binders) alike: the binding made last wins. Extending
    never changes what the receiver sees. Every context extended from this
    one carries its normalization step budget."""

    # the current context holds the dict in _data; any other is the context
    # _next with _key bound to _value (unbound if None)
    __slots__ = ("_data", "_key", "_value", "_next", "budget")

    def __init__(self, bindings: tuple[Binding, ...] = (), budget: int | None = None):
        self._data = {b.name: b for b in bindings}  # a later binding wins
        self._key = self._value = self._next = None
        self.budget = DEFAULT_BUDGET if budget is None else budget

    def _reroot(self) -> dict[Name, Binding]:
        """Make this the current context and return its dict: reverse the path to
        the current context, then walk it back, leaving each step's inverse behind."""
        node, back = self, None
        while node._data is None:
            node._next, back, node = back, node, node._next
        data = node._data
        while back is not None:
            key, value, ahead = back._key, back._value, back._next
            node._data, node._key, node._value, node._next = None, key, data.get(key), back
            if value is None:
                del data[key]
            else:
                data[key] = value
            node, back = back, ahead
        node._data = data
        return data

    @property
    def bindings(self) -> tuple[Binding, ...]:
        """Each name's last binding, in the order the names were first bound."""
        return tuple(self._reroot().values())

    def declare(self, name: Name, type_: Term, value: Term | None = None) -> "Context":
        data = self._data if self._data is not None else self._reroot()
        new = object.__new__(Context)
        new._data, new._key, new._value, new._next, new.budget = data, None, None, None, self.budget
        self._data, self._key, self._value, self._next = None, name, data.get(name), new
        data[name] = tuple.__new__(Binding, (name, type_, value))
        return new

    # typing's binders enter through extend_type, and the tracer wraps both names
    extend_type = extend_type_value = declare

    def _lookup(self, name: Name) -> Binding | None:
        data = self._data
        return (data if data is not None else self._reroot()).get(name)

    def lookup_type(self, name: Name) -> Term | None:
        b = self._lookup(name)
        return b.type if b is not None else None

    def lookup_val(self, name: Name) -> Term | None:
        b = self._lookup(name)
        return b.value if b is not None else None

    def __contains__(self, name: Name) -> bool:
        return self._lookup(name) is not None
