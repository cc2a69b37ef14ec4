"""Checker diagnostics and the exception that carries one out of a check."""
from __future__ import annotations

from .syntax import SourceSpan, Term, pretty


class Record:
    """A mutable record whose fields are its __slots__, in order: == compares
    them and repr shows them."""

    __slots__ = ()
    __hash__ = None  # mutable, so unhashable

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        fields = self.__slots__
        return [getattr(self, f) for f in fields] == [getattr(other, f) for f in fields]

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({shown})"


class Diagnostic(Record):
    # rule: T-Var | T-Abs | T-PI | T-Univ | T-App | T-Ind | T-Constr | T-Match | T-Fix | Guard | Parse | Budget
    __slots__ = ("rule", "message", "span", "expected", "actual", "severity")

    def __init__(self, rule: str, message: str, span: SourceSpan | None = None,
                 expected: Term | None = None, actual: Term | None = None, severity: str = "error"):
        self.rule, self.message, self.span = rule, message, span
        self.expected, self.actual, self.severity = expected, actual, severity

    def render(self, file: str = "<input>") -> str:
        loc = f"{file}:{self.span}" if self.span is not None else file
        msg = self.message
        if self.expected is not None and self.actual is not None:
            msg += f" (expected {pretty(self.expected)}, got {pretty(self.actual)})"
        return f"{self.severity}[{self.rule}] {loc}: {msg}"


class CheckError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


def fail(rule: str, message: str, span=None, expected=None, actual=None):
    raise CheckError(Diagnostic(rule, message, span, expected, actual))
