"""Every oracle of the built-in selftest, one test per check.

Many inputs of these checks also run under tests named after them (the ZC,
false-alarm, miss, closed-form solve and sampler cases, the edge round
trip, the link-budget scalars, the pattern constants and the UE
centroid). The selftest caches each input's result, so within one session
an input runs once, under whichever test reaches it first.
"""

import ast
from pathlib import Path

import pytest

import mmwia
from mmwia.selftest import CHECKS, FALSE_ALARM_CASES, LOCATE_CASES

PACKAGE = Path(mmwia.__file__).parent
# the simulator modules: what they define, the program runs
SIMULATOR = ("geometry", "antenna", "channel", "preamble", "estimation", "protocol",
             "experiments")


@pytest.mark.parametrize("check", [pytest.param(fn, id=name) for name, fn in CHECKS])
def test_check(check):
    check()


def test_every_case_has_a_test_of_its_own():
    # a new case needs a test named after it before it joins its table
    assert set(FALSE_ALARM_CASES) == {0.1, 0.01, 0.05}
    assert set(LOCATE_CASES) == {"symmetric", "side midpoint", "exterior"}


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
