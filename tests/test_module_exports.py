"""Every ``expopt`` module imports, and every name in its ``__all__`` resolves.

Guards refactors that move a class or function between modules: a name
left behind in an ``__all__`` would only fail a star import.
"""

import importlib
import pkgutil

import pytest

import expopt

MODULES = ["expopt"] + sorted(
    info.name for info in pkgutil.walk_packages(expopt.__path__, prefix="expopt.")
)


def test_the_walk_finds_the_library_and_the_harness():
    assert {"expopt.learners", "expopt.harness", "expopt.harness.experiments"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_each_name_in_a_modules_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert all(isinstance(item, str) for item in exported)
    assert [item for item in exported if not hasattr(module, item)] == []
