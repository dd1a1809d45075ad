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
from conftest import perfbench_algebras

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


def _traced(calls):
    """Layer totals of ``calls()`` run under the tracer."""
    tracer = _layers().Tracer(taubound)
    tracer.install()
    try:
        with tracer.recording():
            calls()
        return tracer.layer_totals()
    finally:
        tracer.uninstall()


def test_pair_queries_build_no_support_deleted_algebra(arrow_loop, line3):
    # validation works over A (AIR Lemma 2.1(b)), and a sincere node's
    # annihilator quotient deletes no vertex
    graphs = [taubound.enumerate_stt(A) for A in (arrow_loop, line3)]

    def queries():
        for graph in graphs:
            for node in graph.nodes:
                pair = node.pair
                taubound.derdim_bound_report(pair.algebra, pair.summands, pair.support)
                for slot in range(len(pair.summands) + len(pair.support)):
                    taubound.mutate(pair, slot)

    totals = _traced(queries)
    nodes = sum(g.n_nodes for g in graphs)
    assert totals["reports.derdim_bound_report"][0] == nodes
    # a node has one slot per vertex: its summands, then its support
    assert totals["mutation.mutate"][0] == sum(g.algebra.n_vertices * g.n_nodes
                                               for g in graphs)
    assert totals["tau.validate_stt_pair"][0] > 0
    assert totals["algebra.delete_vertices"][0] == 0


def test_enumeration_computes_no_annihilator():
    # the classification reads pd <= 1 off each summand's presentation
    line4 = taubound.parse_algebra_text(
        perfbench_algebras().line_text("line4", 4, "Fp 32003"))
    totals = _traced(lambda: taubound.enumerate_stt(line4))
    assert totals["mutation.enumerate_stt"][0] == 1
    assert totals["tau.tau_data"][0] > 0
    assert totals["reps.annihilator"][0] == 0
