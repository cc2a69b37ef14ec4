"""A small dependently typed kernel language with inductive types,
dependent case matches and guard-checked recursion, plus a parser and
batch checker for `.pie` files."""

from .context import Binding, Context
from .normalize import BudgetExceeded, check_equal, normalise
from .parser import (
    AxiomDecl,
    DefDecl,
    InductiveDeclSrc,
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
from .typecheck import elaborate, type_check

__all__ = [
    "App",
    "AxiomDecl",
    "Binding",
    "BudgetExceeded",
    "CheckError",
    "Constr",
    "Context",
    "DefDecl",
    "Diagnostic",
    "Fix",
    "Ind",
    "InductiveDeclSrc",
    "Lam",
    "Match",
    "Name",
    "Pi",
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
