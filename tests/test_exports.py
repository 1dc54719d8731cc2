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


def test_commands_run_on_numpy_alone():
    # the package imports no scipy: quadrature is distribution._quad, the
    # section products use numpy.fft and the section spectra come from
    # discretize._lanczos, whose start needs no numpy.random either.  A
    # fresh interpreter, because pytest's warning filters import
    # scipy.integrate into this one.
    script = ("import io, contextlib, sys\n"
              "import illposed, illposed.cli, illposed.acceptance\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    illposed.acceptance.run_all()\n"
              "    for op in ('j_alpha', 'hilbert'):\n"
              "        assert illposed.cli.main(['discretize', '--operator', op,"
              " '--n', '512']) == 0\n"
              "print([m for m in sys.modules if m.split('.')[0] == 'scipy'"
              " or m.startswith('numpy.random')])")
    src = os.path.dirname(os.path.dirname(os.path.abspath(illposed.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env, timeout=300, check=True)
    assert out.stdout.strip() == "[]"


def test_python_dash_m_runs_the_command_line():
    src = os.path.dirname(os.path.dirname(os.path.abspath(illposed.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    run = lambda *argv: subprocess.run(
        [sys.executable, "-m", "illposed", *argv], capture_output=True,
        text=True, env=env, timeout=120)
    listed = run("gallery", "list")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout.split()[:2] == ["model", "parameters"]
    # the exit code of cli.main is the process's
    refused = run("check", "--only", "99")
    assert refused.returncode == 2
    assert "unknown criteria 99" in refused.stderr
