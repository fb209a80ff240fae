"""The harness names no learner class: it defines none, its round loop takes only the
stacking functions from the learner modules, and no harness module imports a private name.
One function plays every run: it alone steps a learner.

Each family declares its own steps and how its runs stack, and the learner layer stacks and
splits them, so a learner written inside the harness, or a round loop that picks learner
classes or states apart, is a second copy of that family or of the stacking rule.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import expopt.harness
from expopt.harness import experiments
from expopt.learners import Learner

HARNESS = sorted(
    info.name for info in pkgutil.walk_packages(expopt.harness.__path__, prefix="expopt.harness.")
)
LEARNER_MODULES = {"expopt.learners", "expopt.baselines", "expopt.spectral"}


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def imports(tree, package):
    """``(module, name)`` of each import in ``tree``; a plain ``import m`` gives ``(m, None)``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = importlib.util.resolve_name("." * node.level + (node.module or ""), package)
            yield from ((module, alias.name) for alias in node.names)


def test_no_harness_module_defines_a_learner_class():
    assert {"expopt.harness.experiments", "expopt.harness.registry"} <= set(HARNESS)
    for name in HARNESS:
        importlib.import_module(name)
    defined = [cls for cls in subclasses(Learner) if cls.__module__.startswith("expopt.harness")]
    assert defined == []


def test_the_round_loop_takes_only_the_stacking_functions_from_the_learner_modules():
    tree = ast.parse(Path(experiments.__file__).read_text())
    found = set(imports(tree, "expopt.harness"))
    assert ("expopt.harness", "registry") in found  # the imports were read
    taken = {(module, name) for module, name in found
             if module in LEARNER_MODULES or f"{module}.{name}" in LEARNER_MODULES}
    assert taken == {("expopt.learners", name) for name in ("stack_key", "stack", "row_of")}


@pytest.mark.parametrize("name", ["expopt.harness", *HARNESS])
def test_no_harness_module_imports_a_private_name(name):
    mod = importlib.import_module(name)
    found = imports(ast.parse(Path(mod.__file__).read_text()), mod.__package__)
    private = [(module, imported) for module, imported in found if module.startswith("expopt")
               and (imported or module.rpartition(".")[2]).startswith("_")]
    assert private == []


def test_one_function_steps_the_learners():
    # a second caller of ``.step(`` would be a second play, with its own failure path
    tree = ast.parse(Path(experiments.__file__).read_text())
    callers = [
        node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr == "step" for call in ast.walk(node))
    ]
    assert len(callers) == 1, callers
