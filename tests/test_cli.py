"""Command-line checker: reports, exit codes, corpus bundle."""
from __future__ import annotations

import ast
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import pielang
from conftest import corpus_source
from pielang import Context, DefDecl, Name, Var, cli, parse_program, pretty
from pielang.syntax import children
from pielang.cli import (
    NEGATIVE_CORPUS,
    POSITIVE_CORPUS,
    check_file,
    check_source,
    corpus_path,
    load_corpus,
    main,
)


class TestCheckSource:
    def test_accepting_file(self):
        report = check_source(corpus_source("fol.pie"))
        assert report.exit_code == 0
        assert not report.diagnostics

    def test_rejecting_file(self):
        report = check_source(corpus_source("unbound_var.pie", negative=True))
        assert report.exit_code == 1
        assert report.diagnostics[0].rule == "T-Var"

    def test_dump_types_format(self):
        report = check_source(corpus_source("fol.pie"), "fol.pie")
        lines = report.lines(dump_types=True)
        assert "o : Set" in lines
        assert "true : o -> Set" in lines

    def test_types_are_printed_only_when_asked_for(self, monkeypatch):
        printed = []
        monkeypatch.setattr(cli, "pretty", lambda t: printed.append(t) or pretty(t))
        report = check_source(corpus_source("nat_proofs.pie"))
        assert report.exit_code == 0 and printed == []
        lines = report.lines(dump_types=True)
        assert printed == [t for _, t, _ in report.decls] and len(printed) > 2
        assert lines == [f"{name} : {pretty(t)}" for name, t, _ in report.decls]

    def test_reports_are_deterministic(self):
        first = check_source(corpus_source("printf.pie")).lines(dump_types=True)
        second = check_source(corpus_source("printf.pie")).lines(dump_types=True)
        assert first == second

    def test_normalize_flag(self):
        report = check_source(corpus_source("add.pie"), normalize_name="four")
        assert report.extra_lines == ["four ~> (Succ (Succ (Succ (Succ Zero))))"]

    def test_budget_applies_to_one_call_only(self, tmp_path):
        path = tmp_path / "appendix_c.pie"
        path.write_text(corpus_source("appendix_c.pie"), encoding="utf-8")
        starved = check_file(str(path), budget=7)
        assert starved.exit_code == 1
        assert starved.diagnostics[0].rule == "Budget"
        later = check_source(corpus_source("appendix_c.pie"), "appendix_c.pie")
        assert later.exit_code == 0, later.lines()

    def test_budget_stays_with_its_own_thread(self, monkeypatch):
        # The starved check pauses at its first declaration, outside
        # normalisation, while the main thread checks with the default budget.
        source = corpus_source("appendix_c.pie")
        starved, later = interleave(
            monkeypatch,
            lambda: check_source(source, "appendix_c.pie", budget=7),
            lambda: check_source(source, "appendix_c.pie"),
        )
        assert later.exit_code == 0, later.lines()
        assert starved.diagnostics[0].rule == "Budget"

    def test_interleaved_checks_report_what_sequential_checks_do(self, monkeypatch):
        # Both checks draw arrow binders and rename a binder; neither may
        # pick a name that depends on the other.
        source = ("Axiom P : Set -> Set -> Set; Axiom f : Πx:Set.Πy:Set.(P x y);\n"
                  "def g(y : Set) : Set { (f y) };")

        def check():
            return check_source(source, "g.pie")

        sequential = check().lines()
        assert "Πy:Set.Πy'1:Set.(P y y'1)" in sequential[0]
        paused, later = interleave(monkeypatch, check, check)
        assert paused.lines() == later.lines() == sequential

    def test_prelude_supplies_void(self):
        source = "Axiom absurd : Void -> Set;"
        assert check_source(source).exit_code == 0
        without = check_source(source, prelude=False)
        assert without.exit_code == 1
        assert without.diagnostics[0].rule == "T-Var"


def interleave(monkeypatch, paused_check, other_check):
    """Run paused_check on a thread that pauses at its first declaration,
    run other_check meanwhile on this thread, then let the first finish.
    Returns both reports."""
    paused, resume = threading.Event(), threading.Event()
    declare = Context.declare

    def pausing_declare(ctxt, *args):
        if threading.current_thread() is thread and not paused.is_set():
            paused.set()
            resume.wait(timeout=30)
        return declare(ctxt, *args)

    monkeypatch.setattr(Context, "declare", pausing_declare)
    reports = []
    thread = threading.Thread(target=lambda: reports.append(paused_check()))
    thread.start()
    try:
        assert paused.wait(timeout=30)
        other = other_check()
    finally:
        resume.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    [first] = reports
    return first, other


NAT = "Inductive Nat : Set := | Zero : Nat | Succ : Nat -> Nat;\n"
ADD = NAT + ("def add(x : Nat, y : Nat) : Nat { <λm:Nat.Nat> match x with "
             "{ Zero => y; Succ => λp:Nat.(Succ (add p y)) } };\n")


def numeral(k: int) -> str:
    return "(Succ " * k + "Zero" + ")" * k


def nested(shape: str, depth: int) -> str:
    """One declaration nested depth levels deep in the given shape."""
    if shape == "numeral":
        return NAT + "def d() : Nat { " + "(Succ " * depth + "Zero" + ")" * depth + " };"
    if shape == "arrow":
        return "Axiom A : Set;\nAxiom d : " + " -> ".join(["A"] * (depth + 1)) + ";"
    if shape == "binder":
        xs = [f"x{i}" for i in range(depth)]
        type_ = "".join(f"Π{x}:A." for x in xs) + "A"
        value = "".join(f"λ{x}:A." for x in xs) + xs[0]
        return f"Axiom A : Set;\ndef d() : {type_} {{ {value} }};"
    return NAT + "def d() : Nat { " + "(" * depth + "Zero" + ")" * depth + " };"


MATCH = "<λn:Nat.Nat> match "
ZERO_SUCC = " with { Zero => Zero; Succ => λp:Nat.p }"


def nested_matches(position: str, depth: int) -> str:
    """A def d whose matches nest depth levels deep in the given position:
    the scrutinee, the Zero branch, the carrier's body (as the argument of a
    β-redex that gives Nat) or, in a recursive d, the Succ branch."""
    if position == "scrutinee":
        body = MATCH * depth + "Zero" + ZERO_SUCC * depth
    elif position == "branch":
        body = (MATCH + "Zero with { Zero => ") * depth + "Zero" + "; Succ => λp:Nat.p }" * depth
    elif position == "carrier":
        body = ("<λn:Nat.((λx:Nat.Nat) " * depth + MATCH + "Zero" + ZERO_SUCC
                + (")> match Zero" + ZERO_SUCC) * depth)
    else:
        body = (MATCH + "m with { Zero => Zero; Succ => λp0:Nat."
                + "".join(f"{MATCH}p{i} with {{ Zero => Zero; Succ => λp{i + 1}:Nat."
                          for i in range(depth))
                + f"(d p{depth})" + " }" * (depth + 1))
        return NAT + "def d(m : Nat) : Nat { " + body + " };"
    return NAT + "def d() : Nat { " + body + " };"


def nesting(term) -> int:
    """The number of nodes on term's longest path, counted without recursion."""
    deepest, stack = 0, [(term, 1)]
    while stack:
        term, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((child, depth + 1) for child in children(term))
    return deepest


class TestDepth:
    # Depth 400 is accepted in each of these shapes at Python's default
    # recursion limit. A failure here means the parser or the checker takes
    # more Python frames per nesting level than before.
    @pytest.mark.parametrize("shape", ["numeral", "arrow", "binder", "paren"])
    def test_depth_400_checks_at_the_default_recursion_limit(self, shape):
        assert sys.getrecursionlimit() == 1000
        source, reports = nested(shape, 400), []
        thread = threading.Thread(target=lambda: reports.append(check_source(source)))
        thread.start()
        thread.join(timeout=60)
        assert len(reports) == 1, "the check raised; see the thread's traceback"
        assert reports[0].exit_code == 0, reports[0].lines()

    # The parser takes no Python frame per nesting level, so any depth parses
    # at the default limit. Parentheses around one atom leave no node.
    @pytest.mark.parametrize("source, depth", [
        (nested("numeral", 5000), 5001),
        (nested("arrow", 5000), 5001),
        (nested("binder", 5000), 5001),
        (nested("paren", 5000), 1),
        (NAT + "def d() : Nat { " + "<λn:Nat.Nat> match Zero with { Zero => " * 2000
         + "Zero" + " }" * 2000 + " };", 2002),
        (NAT + "def d() : Nat { <" + "".join(f"Πn{i}:Nat." for i in range(2000))
         + "Nat> match Zero with { Zero => Zero } };", 2002),
    ], ids=["numeral", "arrow", "binder", "paren", "matches", "carrier"])
    def test_any_depth_parses_at_the_default_recursion_limit(self, source, depth):
        assert sys.getrecursionlimit() == 1000
        decl = parse_program(source).decls[-1]
        assert nesting(decl.body if isinstance(decl, DefDecl) else decl.type) == depth

    # type_check and elaborate's recursion check take no Python frame per level
    # either, so these shapes also check at any depth
    @pytest.mark.parametrize("shape", ["numeral", "arrow", "binder"])
    def test_any_depth_checks_at_the_default_recursion_limit(self, shape):
        assert sys.getrecursionlimit() == 1000
        report = check_source(nested(shape, 20000))
        assert report.exit_code == 0, report.lines()

    # T-App asks whether each binder is named in its scope, and reads the
    # free names up the function's Π chain to answer, not down it by recursion;
    # with no binder named, it substitutes into no part of the chain
    @pytest.mark.parametrize("args", [5000, 1], ids=["full", "partial"])
    def test_a_long_application_spine_checks_at_the_default_recursion_limit(self, args):
        assert sys.getrecursionlimit() == 1000
        source = ("Axiom A : Set;\nAxiom a : A;\nAxiom f : " + " -> ".join(["A"] * 5001)
                  + ";\ndef d() : " + " -> ".join(["A"] * (5001 - args))
                  + " { (f" + " a" * args + ") };")
        report = check_source(source)
        assert report.exit_code == 0, report.lines()

    # a rule that fails deep in a chain gives the rule, message and span that
    # the recursive checker gave with a raised limit: the '->' after the one `a`,
    # the '(' of the application at the bottom of the λ chain, and the 'Π' whose
    # domain is `a`, where the walk of a def falls back to typing its declared type
    @pytest.mark.parametrize("source, rule, message, span", [
        ("Axiom A : Set;\nAxiom a : A;\nAxiom d : "
         + " -> ".join("a" if i == 2500 else "A" for i in range(5001)) + ";",
         "T-PI", "Pi domain is not a type", (3, 12513, 3, 12514)),
        ("Axiom A : Set;\ndef d() : " + "".join(f"Πx{i}:A." for i in range(5000)) + "A { "
         + "".join(f"λx{i}:A." for i in range(5000)) + "(x0 x1) };",
         "T-App", "applying a non-function", (2, 87795, 2, 87795)),
        ("Axiom A : Set;\nAxiom a : A;\ndef d() : "
         + "".join(f"Πx{i}:{'a' if i == 2500 else 'A'}." for i in range(5000)) + "A { "
         + "".join(f"λx{i}:{'a' if i == 2500 else 'A'}." for i in range(5000)) + "x0 };",
         "T-PI", "Pi domain is not a type", (3, 21401, 3, 21401)),
    ], ids=["arrow", "lambda", "declared"])
    def test_a_rule_fails_deep_in_a_chain_as_near_the_top(self, source, rule, message, span):
        assert sys.getrecursionlimit() == 1000
        report = check_source(source)
        [diag] = report.diagnostics
        assert (diag.rule, diag.message, tuple(diag.span)) == (rule, message, span)
        assert diag.actual == Var(Name("A"))
        assert report.decls[-1] == (Name("d"), None, "failed")

    # a binder whose name the context already binds is renamed by enter, which
    # reads the free names of its scope and substitutes into it; both loop
    # down the chain of binders, and here every binder after the first is renamed
    @pytest.mark.parametrize("binders", [2000, 20000])
    def test_a_chain_of_binders_sharing_one_name_checks_at_the_default_recursion_limit(
            self, binders):
        assert sys.getrecursionlimit() == 1000
        report = check_source("Axiom A : Set;\ndef d() : " + "Πx:A." * binders + "A { "
                              + "λx:A." * binders + "x };")
        assert report.exit_code == 0, report.lines()

    # the first argument of a dependent function is substituted into the
    # rest of its Π chain, by a loop down that chain
    def test_a_dependent_partial_application_checks_at_the_default_recursion_limit(self):
        assert sys.getrecursionlimit() == 1000
        binders = [f"x{i}" for i in range(3000)]
        source = ("Axiom A : Set;\nAxiom P : A -> Set;\nAxiom a : A;\nAxiom f : "
                  + "".join(f"Π{x}:A." for x in binders) + "(P x0);\ndef d() : "
                  + "".join(f"Π{x}:A." for x in binders[1:]) + "(P a) { (f a) };")
        report = check_source(source)
        assert report.exit_code == 0, report.lines()

    # a binder that enter renames has its scope's free names read and
    # substituted into, down the function head of a long spine as well
    def test_a_long_spine_under_a_renamed_binder_checks_at_the_default_recursion_limit(self):
        assert sys.getrecursionlimit() == 1000
        source = ("Axiom A : Set;\nAxiom a : A;\nAxiom x : A;\nAxiom f : "
                  + " -> ".join(["A"] * 1201) + ";\ndef d() : Πx:A.A { λx:A.(f" + " a" * 1199
                  + " x) };")
        report = check_source(source)
        assert report.exit_code == 0, report.lines()

    # evaluation and read-back take no Python frame per level, so a term
    # deeper than the nesting limit of 4000 that normalisation once had gets
    # the verdict the same shape gets under it: a sum that normalises, and
    # two numerals that differ, reported with both normal forms
    @pytest.mark.parametrize("n", [1000, 3000])
    def test_a_deep_sum_normalises_at_the_default_recursion_limit(self, n):
        assert sys.getrecursionlimit() == 1000
        source = ADD + f"def t() : Nat {{ (add {numeral(n)} {numeral(n)}) }};"
        report = check_source(source, normalize_name="t")
        assert report.exit_code == 0
        assert report.lines() == ["t ~> " + numeral(2 * n)]

    @pytest.mark.parametrize("n", [1000, 5000])
    def test_deep_numerals_that_differ_are_reported_at_the_default_recursion_limit(self, n):
        assert sys.getrecursionlimit() == 1000
        source = (NAT + "Inductive Eq : Nat -> Nat -> Set := | Rfl : Πn:Nat.(Eq n n);\n"
                  f"def t() : (Eq {numeral(n)} {numeral(n + 1)}) {{ (Rfl {numeral(n)}) }};")
        report = check_source(source)
        assert report.lines() == [
            "error[T-App] <input>:3:5: definition t does not have its declared type (expected "
            f"(Eq {numeral(n)} {numeral(n + 1)}), got (Eq {numeral(n)} {numeral(n)}))"]

    # every typing rule, T-Match among them, is a step on type_check's one
    # stack, so matches nested in any position check, print their types and
    # normalise at the default recursion limit; the scrutinee position is
    # checked less deep, because each level's type evaluates the whole
    # scrutinee below it (ROADMAP defect (h)), which is quadratic
    @pytest.mark.parametrize("position, depth, value", [
        ("scrutinee", 1500, "Zero"),
        ("branch", 3000, "Zero"),
        ("carrier", 3000, "Zero"),
        ("recursive", 3000, None),
    ])
    @pytest.mark.parametrize("how", ["plain", "dump_types", "normalize"])
    def test_nested_matches_check_at_the_default_recursion_limit(
            self, position, depth, value, how):
        assert sys.getrecursionlimit() == 1000
        report = check_source(nested_matches(position, depth),
                              normalize_name="d" if how == "normalize" else None)
        lines = report.lines(dump_types=how == "dump_types")
        assert report.exit_code == 0, lines[:3]
        if how == "normalize" and value is not None:
            assert lines == [f"d ~> {value}"]
        elif how == "dump_types":
            assert lines[-1] == ("d : Πm:Nat.Nat" if value is None else "d : Nat")

    # a failure deep in nested matches is thrown into each rule that waits
    # on it, one after another, and reported as a failure near the top is
    def test_a_rule_fails_deep_in_nested_matches_as_near_the_top(self):
        assert sys.getrecursionlimit() == 1000
        source = nested_matches("branch", 3000).replace("Zero; Succ", "ghost; Succ", 1)
        assert check_source(source).lines() == [
            "error[T-Var] <input>:2:117017: unbound variable ghost"]

    # the guard check and the positivity check walk a term by a loop
    def test_a_deeply_guarded_recursive_call_checks_at_the_default_recursion_limit(self):
        assert sys.getrecursionlimit() == 1000
        source = (NAT + "def f(n : Nat) : Nat { <λx:Nat.Nat> match n with { Zero => Zero; "
                  "Succ => λm:Nat." + "(Succ " * 3000 + "(f m)" + ")" * 3000 + " } };")
        report = check_source(source)
        assert report.exit_code == 0, report.lines()

    # 500 parentheses used to raise RecursionError out of the parser
    @pytest.mark.parametrize("depth", [500, 5000])
    def test_deep_parentheses_check_like_shallow_ones(self, depth):
        assert sys.getrecursionlimit() == 1000
        report = check_source(nested("paren", depth))
        assert report.exit_code == 0
        assert report.lines(dump_types=True) == check_source(nested("paren", 10)).lines(dump_types=True)


    # pretty prints a spine's last argument and a binder's body in a loop, so
    # normal forms hundreds of levels deep print at the default limit
    def test_deep_normal_forms_print(self):
        assert sys.getrecursionlimit() == 1000
        defs = NAT + "Inductive Eq : Nat -> Nat -> Set := | Eq_Rfl : Πn:Nat.(Eq n n);\n"
        defs += "def d0() : Nat { Zero };\n"
        defs += "".join(f"def d{i}() : Nat {{ (Succ d{i - 1}) }};\n" for i in range(1, 401))
        report = check_source(defs + "def t() : (Eq d400 d399) { (Eq_Rfl d400) };")
        assert report.exit_code == 1
        [line] = report.lines()
        numerals = ["(Succ " * k + "Zero" + ")" * k for k in (400, 399, 400, 400)]
        assert line == ("error[T-App] <input>:404:5: definition t does not have its declared type"
                        " (expected (Eq {} {}), got (Eq {} {}))".format(*numerals))
        report = check_source(defs, normalize_name="d340")
        assert report.exit_code == 0
        assert report.lines() == ["d340 ~> " + "(Succ " * 340 + "Zero" + ")" * 340]

    # pretty prints a Π domain, as it prints everything, from its stack of what
    # is left to print, so a domain nested 3000 deep prints as it was written
    def test_a_deeply_nested_domain_prints_at_the_default_recursion_limit(self):
        assert sys.getrecursionlimit() == 1000
        arrows = "(" * 3000 + "A" + " -> A)" * 3000 + " -> A"
        report = check_source(f"Axiom A : Set;\nAxiom d : {arrows};")
        assert report.exit_code == 0
        assert report.lines(dump_types=True)[-1] == f"d : {arrows}"


class TestMain:
    def test_exit_zero_on_success(self, capsys):
        assert main(["check", str(corpus_path("fol.pie"))]) == 0

    def test_exit_one_on_failure(self, capsys):
        path = str(corpus_path("parse_error.pie", negative=True))
        assert main(["check", path]) == 1
        out = capsys.readouterr().out
        assert "error[Parse]" in out

    def test_diagnostic_line_format(self, capsys):
        path = str(corpus_path("unbound_var.pie", negative=True))
        main(["check", path])
        out = capsys.readouterr().out.strip()
        assert out.startswith(f"error[T-Var] {path}:")

    def test_multiple_files_and_dump(self, capsys):
        paths = [str(corpus_path(n)) for n in ("fol.pie", "nat.pie")]
        assert main(["check", "--dump-types", *paths]) == 0
        out = capsys.readouterr().out
        assert "Zero : Nat" in out

    @pytest.mark.parametrize("argv, line", [
        (["--normalize", "A"], "error[Parse] {}: --normalize: no value bound to A"),
        (["--normalize", "two", "--budget", "2"],
         "error[Budget] {}: normalization exceeded the step budget of 2"),
    ], ids=["no value", "out of budget"])
    def test_a_name_that_cannot_be_normalised_fails_the_file(self, tmp_path, capsys, argv, line):
        # the declarations check at that budget; only the normal form of two needs three steps
        path = tmp_path / "two.pie"
        path.write_text(NAT + "Axiom A : Set;\ndef two() : Nat { (Succ (Succ Zero)) };")
        assert main(["check", *argv, str(path)]) == 1
        assert capsys.readouterr().out.splitlines() == [line.format(path)]

    def test_missing_file(self, capsys):
        assert main(["check", "no_such_file.pie"]) == 1

    def test_file_that_is_not_utf8_is_one_parse_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "bad.pie"
        path.write_bytes(b"Axiom A : Set;\n\xff\xfe\n")
        assert main(["check", str(path)]) == 1
        [line] = capsys.readouterr().out.splitlines()
        assert line.startswith(f"error[Parse] {path}: cannot read file: ")


class TestCorpusBundle:
    def test_every_bundled_file_exists(self):
        for path, _ in load_corpus():
            assert path.is_file(), path

    def test_expected_outcomes(self):
        assert len(POSITIVE_CORPUS) >= 10
        assert len(NEGATIVE_CORPUS) >= 12
        tags = set(NEGATIVE_CORPUS.values())
        assert {"T-Var", "T-Abs", "T-PI", "T-App", "T-Ind", "T-Match", "Guard"} <= tags


PACKAGE = Path(pielang.__file__).parent


def _nodes(module: Path):
    """(enclosing function or None, node) for every node in module."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            found.append((function, child))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  else function)

    visit(ast.parse(module.read_text(encoding="utf-8")), None)
    return found


def _imports(module: Path):
    """(function or None, imported module) for every import in module."""
    found = []
    for function, node in _nodes(module):
        if isinstance(node, ast.Import):
            found.extend((function, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.append((function, "." * node.level + (node.module or "")))
    return found


# calls that change a setting of the whole process, which every other check
# in it then sees; matched by the called name, however the module is imported
PROCESS_SETTERS = {"setrecursionlimit", "set_int_max_str_digits", "stack_size"}
PROCESS_SETTERS_ALLOWED: set[tuple[str, str]] = set()


class TestPackage:
    @pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
    def test_no_module_imports_inside_a_function(self, module):
        assert [(f, m) for f, m in _imports(PACKAGE / module) if f is not None] == []

    # `import pielang.X` runs `__init__.py` first, which imports the modules in
    # one fixed order; a stub package in a fresh interpreter lets X go first,
    # so an import cycle that only that order hides shows up
    @pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")
                                              if p.stem != "__init__"))
    def test_each_module_imports_first(self, module):
        code = ("import importlib, sys, types\n"
                "package = types.ModuleType('pielang')\n"
                "package.__path__ = [sys.argv[1]]\n"
                "sys.modules['pielang'] = package\n"
                "importlib.import_module('pielang.' + sys.argv[2])\n")
        result = subprocess.run([sys.executable, "-c", code, str(PACKAGE), module],
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
    def test_no_module_changes_a_process_wide_setting(self, module):
        calls = {(module, function) for function, node in _nodes(PACKAGE / module)
                 if isinstance(node, ast.Call)
                 and ast.unparse(node.func).rsplit(".", 1)[-1] in PROCESS_SETTERS}
        assert calls - PROCESS_SETTERS_ALLOWED == set()

    # a cycle hides behind an import placed after the code its other end
    # needs; `from . import x` names the package, whose __init__ imports all
    def test_the_modules_import_each_other_without_a_cycle(self):
        left = {path.stem: {m[1:] or "__init__" for _, m in _imports(path) if m.startswith(".")}
                for path in PACKAGE.glob("*.py")}
        while ready := [m for m, imported in left.items() if not imported & left.keys()]:
            for module in ready:
                del left[module]
        assert left == {}, "these modules import each other in a cycle"

    @pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
    def test_no_module_imports_after_its_first_definition(self, module):
        body = ast.parse((PACKAGE / module).read_text(encoding="utf-8")).body
        first = next((i for i, node in enumerate(body)
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef))), len(body))
        assert [ast.unparse(node) for node in body[first:]
                if isinstance(node, (ast.Import, ast.ImportFrom))] == []

    def test_the_parser_imports_no_typing_module(self):
        local = {m for _, m in _imports(PACKAGE / "parser.py") if m.startswith(".")}
        assert local == {".diagnostics", ".syntax"}
