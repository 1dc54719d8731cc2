import importlib
import os
import subprocess
import sys

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


def test_check_runs_without_scipy_integrate_or_optimize():
    # these scipy modules take longer to import than the rest of the package
    # and none is needed: quadrature is distribution._quad and the section
    # products use numpy.fft.  A fresh interpreter, because pytest's warning
    # filters import scipy.integrate into this one.
    script = ("import sys, illposed, illposed.cli, illposed.acceptance\n"
              "illposed.acceptance.run_all(only={'4', '5', '6', '7'})\n"
              "print([m for m in ('scipy.integrate', 'scipy.optimize',"
              " 'scipy.fft', 'scipy.special') if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(os.path.abspath(illposed.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env, timeout=300, check=True)
    assert out.stdout.strip() == "[]"
