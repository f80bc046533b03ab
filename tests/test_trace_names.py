"""Every function the benchmark tracer wraps must exist in its gfrec module.

`perfbench/tracing.py` looks each name in its WRAPPED table up with
getattr when a traced run starts, so deleting or renaming one of them
breaks `perfbench/run.py --trace 1`.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_exist(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    assert set(tracing.WRAPPED) <= set(tracing.LAYERS)
    missing = [
        "gfrec.%s.%s" % (layer, name)
        for layer, names in tracing.WRAPPED.items()
        for name in names
        if not callable(getattr(importlib.import_module("gfrec." + layer), name, None))
    ]
    assert not missing, missing
