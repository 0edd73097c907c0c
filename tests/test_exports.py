"""Every exported name resolves, and the package exports exactly its submodules' names."""

import importlib
import pkgutil

import pytest

import cacherec

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(cacherec.__path__))


def test_package_all_resolves():
    missing = [name for name in cacherec.__all__ if not hasattr(cacherec, name)]
    assert missing == []
    assert len(set(cacherec.__all__)) == len(cacherec.__all__)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves(name):
    module = importlib.import_module(f"cacherec.{name}")
    exported = getattr(module, "__all__", [])
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from cacherec import *", namespace)
    assert set(cacherec.__all__) <= set(namespace)


def test_package_all_is_union_of_submodule_alls():
    expected = {"__version__"}
    for name in SUBMODULES:
        if name != "cli":
            expected |= set(importlib.import_module(f"cacherec.{name}").__all__)
    assert set(cacherec.__all__) == expected
