"""Checker diagnostics and the exception that carries one out of a check."""
from __future__ import annotations

from dataclasses import dataclass

from .syntax import SourceSpan, Term, pretty


@dataclass
class Diagnostic:
    rule: str  # T-Var | T-Abs | T-PI | T-Univ | T-App | T-Ind | T-Constr | T-Match | T-Fix | Guard | Parse | Budget
    message: str
    span: SourceSpan | None = None
    expected: Term | None = None
    actual: Term | None = None
    severity: str = "error"

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
