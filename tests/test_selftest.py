"""Every oracle of the built-in selftest, one test per case of each check.

A case's test id is its check's name and its arguments, joined by "-"
(``false-alarm threshold closed form-0.05``); a check with one input has
the single case ``()`` and its name alone.
"""

import ast
from pathlib import Path

import pytest

import mmwia
from mmwia import selftest

PACKAGE = Path(mmwia.__file__).parent
# the simulator modules: what they define, the program runs
SIMULATOR = ("geometry", "antenna", "channel", "preamble", "estimation", "protocol",
             "experiments")


@pytest.mark.parametrize("check,case", [
    pytest.param(check, case, id="-".join([name, *map(str, case)]))
    for name, check, cases in selftest.CHECKS for case in cases])
def test_check(check, case):
    check(*case)


def test_run_selftest_reports_one_line_per_check(monkeypatch, capsys):
    """Every case of a check runs; a failing case fails its check, with its
    traceback on stderr, and the checks after it still run."""
    calls = []

    def record(*case):
        calls.append(case)

    def second_fails(x):
        calls.append(("second_fails", x))
        assert x == 1, "the second case fails"

    monkeypatch.setattr(selftest, "CHECKS", [
        ("two cases", record, ((1, "a"), (2, "b"))),
        ("fails at its second case", second_fails, ((1,), (2,))),
        ("after", record, ((),)),
    ])
    lines = []
    assert selftest.run_selftest(lines.append) is False
    assert lines == ["[PASS] two cases", "[FAIL] fails at its second case", "[PASS] after"]
    assert calls == [(1, "a"), (2, "b"), ("second_fails", 1), ("second_fails", 2), ()]
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and "AssertionError: the second case fails" in err


def _public_definitions(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def _names_used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):  # module.name
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_simulator_modules_define_only_what_the_program_uses():
    """Every public top-level function, class and constant of a simulator
    module is loaded or imported by name somewhere in the package outside
    the selftest; an oracle only checks use belongs in the selftest."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "selftest.py":
            used |= _names_used(ast.parse(path.read_text()))
    unused = {f"{module}.{name}" for module in SIMULATOR
              for name in _public_definitions(ast.parse((PACKAGE / f"{module}.py").read_text()))
              if name not in used}
    assert not unused, sorted(unused)
