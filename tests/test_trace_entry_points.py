"""The benchmark's per-layer tracer wraps the entry points listed in
perfbench/layers.py by name and refuses to run when one is missing, so
each of them must stay defined in the package."""

import importlib
import importlib.util
import os

import pytest

LAYERS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "layers.py")


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.WRAPPED


@pytest.mark.parametrize("module,qualname", _wrapped())
def test_traced_entry_point_resolves(module, qualname):
    obj = importlib.import_module(f"taubound.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
