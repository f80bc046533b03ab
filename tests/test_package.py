"""The package import: which modules `import gfrec` loads, and the names it
re-exports from the modules it loads on first access."""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import gfrec

SUBMODULES = ("cyclotomic", "funcalg", "galois", "harness", "limits", "linalg", "numtheory", "oracle", "recurrence", "transfer")


def _fresh(code):
    """The stdout of code run by a fresh interpreter that imports gfrec from this checkout."""
    src = str(Path(gfrec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_importing_the_package_loads_the_computing_layers_alone():
    # with numpy loaded, the package loads its enumeration core and nothing else: no json, no __future__
    code = "import numpy, sys\nbefore = set(sys.modules)\nimport gfrec\nprint(*sorted(set(sys.modules) - before))\n"
    assert _fresh(code) == ["gfrec"] + ["gfrec." + m for m in (
        "cyclotomic", "funcalg", "galois", "limits", "oracle", "recurrence")]


def test_reading_a_transfer_name_loads_transfer_and_linalg():
    code = ("import sys, gfrec\nloaded = lambda: [m in sys.modules for m in ('gfrec.transfer', 'gfrec.linalg')]\n"
            "print(*loaded())\ngfrec.system_for\nprint(*loaded())\n")
    assert _fresh(code) == ["False", "False", "True", "True"]


def test_every_exported_name_is_its_submodules_object():
    for name in gfrec.__all__:
        if name == "__version__":
            continue
        value = getattr(gfrec, name)
        homes = [vars(import_module("gfrec." + m)) for m in SUBMODULES]
        homes = [home for home in homes if name in home]
        assert homes, name
        assert all(home[name] is value for home in homes), name
    assert set(gfrec.__all__) <= set(dir(gfrec))


def test_a_lazy_name_is_looked_up_once(monkeypatch):
    real = gfrec.__getattr__
    looked_up = []

    def counted(name):
        looked_up.append(name)
        return real(name)

    monkeypatch.delattr(gfrec, "gauss_sum", raising=False)
    monkeypatch.setattr(gfrec, "__getattr__", counted)
    assert "gauss_sum" in dir(gfrec)
    first = gfrec.gauss_sum
    assert gfrec.gauss_sum is first is import_module("gfrec.numtheory").gauss_sum
    assert looked_up == ["gauss_sum"]


def test_the_lazy_modules_and_star_import_resolve():
    assert gfrec.harness is import_module("gfrec.harness")
    assert gfrec.numtheory is import_module("gfrec.numtheory")
    assert gfrec.transfer is import_module("gfrec.transfer")
    namespace = {}
    exec("from gfrec import *", namespace)
    assert namespace["acceptance_run"] is gfrec.harness.acceptance_run
    assert namespace["valuation"] is gfrec.numtheory.valuation
    assert namespace["system_for"] is gfrec.transfer.system_for
    with pytest.raises(AttributeError, match="^module 'gfrec' has no attribute 'no_such_name'$"):
        gfrec.no_such_name
