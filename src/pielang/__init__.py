"""A small dependently typed kernel language with inductive types,
dependent case matches and guard-checked recursion, plus a parser and
batch checker for `.pie` files."""

from .context import DEFAULT_BUDGET, Binding, Context
from .normalize import BudgetExceeded, check_equal, normalise
from .parser import (
    AxiomDecl,
    DefDecl,
    InductiveDeclSrc,
    Program,
    desugar_def,
    parse_program,
    parse_term,
)
from .syntax import (
    App,
    Constr,
    Fix,
    Ind,
    Lam,
    Match,
    Name,
    Pi,
    SourceSpan,
    Term,
    Universe,
    Var,
    alpha_eq,
    free_vars,
    fresh_name,
    pretty,
    subst,
)
from .diagnostics import CheckError, Diagnostic
from .typecheck import ElabResult, elaborate, type_check

__all__ = [
    "App",
    "AxiomDecl",
    "Binding",
    "BudgetExceeded",
    "CheckError",
    "Constr",
    "Context",
    "DEFAULT_BUDGET",
    "DefDecl",
    "Diagnostic",
    "ElabResult",
    "Fix",
    "Ind",
    "InductiveDeclSrc",
    "Lam",
    "Match",
    "Name",
    "Pi",
    "Program",
    "SourceSpan",
    "Term",
    "Universe",
    "Var",
    "alpha_eq",
    "check_equal",
    "desugar_def",
    "elaborate",
    "free_vars",
    "fresh_name",
    "normalise",
    "parse_program",
    "parse_term",
    "pretty",
    "subst",
    "type_check",
]

__version__ = "0.1.0"
