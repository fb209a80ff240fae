"""Every ``expopt`` module imports, every name in its ``__all__`` resolves, and the two
packages export exactly their modules' ``__all__``.

Guards refactors that move a class or function between modules: a name
left behind in an ``__all__`` would only fail a star import.  A package that lists its
modules' names a second time lets the two lists drift apart.
"""

import importlib
import pkgutil
import types

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


def public_names(package):
    """The names ``package`` binds that are neither private nor a submodule."""
    return {name for name, value in vars(package).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


@pytest.mark.parametrize("package,modules", [
    ("expopt", ["accelerate", "baselines", "entropy", "lambertw", "learners", "prox", "spectral",
                "zeroth_order"]),
    ("expopt.harness", ["experiments", "streams"]),
])
def test_a_package_exports_exactly_its_modules_all(package, modules):
    listed = [name for module in modules
              for name in importlib.import_module(f"{package}.{module}").__all__]
    assert len(listed) == len(set(listed))  # no name is listed by two modules
    assert public_names(importlib.import_module(package)) == set(listed)
