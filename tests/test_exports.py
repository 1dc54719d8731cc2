import importlib

import pytest

import illposed

MODULES = ("acceptance", "cli", "core", "counting", "discretize",
           "distribution", "estimate", "gallery")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"illposed.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_package_reexports_resolve():
    # a stale name in illposed/__init__.py makes the reload itself fail
    package = importlib.reload(illposed)
    for name, obj in vars(package).items():
        home = getattr(obj, "__module__", None)
        if callable(obj) and home and home.startswith("illposed."):
            assert getattr(importlib.import_module(home), obj.__name__) is obj, name
