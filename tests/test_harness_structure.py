"""The harness names no learner class: it defines none, and its round loop imports only
the ``Learner`` base and ``_RowBalls`` from the learner modules.

Each family declares its own steps and how its runs stack, so a learner written inside the
harness, or a round loop that picks learner classes apart, is a second copy of that family.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

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


def test_the_round_loop_imports_only_the_learner_base_and_row_balls():
    tree = ast.parse(Path(experiments.__file__).read_text())
    found = set(imports(tree, "expopt.harness"))
    assert ("expopt.harness", "registry") in found  # the imports were read
    taken = {(module, name) for module, name in found
             if module in LEARNER_MODULES or f"{module}.{name}" in LEARNER_MODULES}
    assert taken <= {("expopt.learners", "Learner"), ("expopt.baselines", "_RowBalls")}
