"""The benchmark's traced names stay callable in the package it traces."""

import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_functions_resolve(monkeypatch):
    """Every function the tracer wraps exists in its scalegnn module, every
    mode-split one takes `mode`, and the checks' own imports resolve."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    importlib.import_module("checks")
    for modname, names in tracer.WRAPPED.items():
        module = importlib.import_module(f"scalegnn.{modname}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{modname}.{name}"
    for qualname in tracer.MODE_FUNCTIONS:
        modname, name = qualname.split(".")
        fn = getattr(importlib.import_module(f"scalegnn.{modname}"), name)
        assert "mode" in inspect.signature(fn).parameters, qualname
