"""The benchmark's per-layer tracer wraps the entry points listed in
perfbench/layers.py by name and refuses to run when one is missing, so
each of them must stay defined in the package, and a traced run must
still count calls and build its metrics."""

import importlib
import importlib.util
import os

import pytest

import taubound
import taubound.mutation

LAYERS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "layers.py")


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


@pytest.mark.parametrize("module,qualname", _layers().WRAPPED)
def test_traced_entry_point_resolves(module, qualname):
    obj = importlib.import_module(f"taubound.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_tracer_counts_a_traced_enumeration_and_report(arrow_loop):
    original = taubound.mutation.mutate_down
    tracer = _layers().Tracer(taubound)
    tracer.install()
    try:
        with tracer.recording():
            graph = taubound.enumerate_stt(arrow_loop)
            taubound.graph_reports(arrow_loop)
        totals = tracer.layer_totals()
        metrics = tracer.metrics(2 * graph.n_nodes)
    finally:
        tracer.uninstall()
    assert taubound.mutation.mutate_down is original
    assert totals["mutation.mutate_down"][0] > 0
    assert totals["mutation.enumerate_stt"][0] == 2
    assert totals["reports.graph_reports"][0] == 1
    assert metrics["mutation.mutate_down.calls"] == totals["mutation.mutate_down"][0]
    assert metrics["mutation.max_summand_dim"] > 0
