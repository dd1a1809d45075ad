"""Oracles over the benchmark's algebras and the corpus.

* The graph and report digests that ``perfbench/expected.json`` freezes for
  the ladder and pair-query algebras, checked here as well, so that a
  change of output beyond the corpus fails tier 1.  The file is only read.
* Every faithful ("tilting") node passes the tilting re-check over A itself.
  Reports take that node's facts from its classification, so the re-check
  stays here as their oracle.
* The lattice shape of each exchange graph.  The graph is the Hasse quiver
  of the lattice of torsion classes, whose join-irreducibles (one
  down-arrow) and meet-irreducibles (one up-arrow) are both in bijection
  with the bricks (Demonet-Iyama-Reading-Reiten-Thomas, *Lattice theory of
  torsion classes*, 2017; Demonet-Iyama-Jasso, *tau-tilting finite
  algebras, bricks, and g-vectors*, 2019).  The brick counts have closed
  forms that owe nothing to the package.
"""

import hashlib
import json
import os

import pytest

from conftest import perfbench_algebras
from taubound import (derdim_bound_report, direct_sum, enumerate_stt,
                      export_graph_json, graph_reports, is_faithful,
                      parse_algebra_text, tilting_proxy_check)
from taubound.reports import canonical_json

BENCH = perfbench_algebras()
LADDER = BENCH.LADDER_FP + BENCH.LADDER_Q
PAIR_QUERIES = {name: text for name, text, _ in BENCH.PAIR_QUERIES}
EXPECTED_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                             "expected.json")

# bricks: n(n+1)/2 for A_n (every indecomposable), 2^(n+1) - n - 2 for
# preprojective A_n (the join-irreducibles of the weak order on S_(n+1)),
# n^2 for self-injective Nakayama (n, L >= n) (the uniserials of length at
# most n), and the corpus algebras' counts
BRICKS = {
    "line4": 4 * 5 // 2,
    "preproj3": 2 ** 4 - 3 - 2,
    "nakayama3_4": 3 ** 2,
    "line3_q": 3 * 4 // 2,
    "nakayama3_3_q": 3 ** 2,
    "arrow_loop": 3,
    "line2": 3,
    "line3": 6,
    "discrete2": 2,
}


def _digest(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


@pytest.fixture(scope="module")
def expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def ladder_reports():
    """graph_reports of every ladder algebra, parsed as the benchmark parses
    it, under seed 0."""
    return {name: graph_reports(parse_algebra_text(text, path=name), seed=0)
            for name, text, _ in LADDER}


@pytest.fixture(scope="module")
def graphs(corpus_algebras, ladder_reports):
    out = {name: enumerate_stt(A, seed=0) for name, A in corpus_algebras.items()}
    out.update((name, graph) for name, (graph, _) in ladder_reports.items())
    return out


@pytest.mark.parametrize("name", [name for name, _, _ in LADDER])
def test_ladder_outputs_match_the_frozen_digests(name, ladder_reports, expected):
    graph, reports = ladder_reports[name]
    assert _digest(export_graph_json(graph)) == expected[name]["graph"]
    assert _digest([r.to_json_dict() for r in reports]) == expected[name]["reports"]


@pytest.mark.parametrize("name", sorted(PAIR_QUERIES))
def test_single_pair_reports_match_the_frozen_digests(name, expected):
    A = parse_algebra_text(PAIR_QUERIES[name], path=name)
    graph = enumerate_stt(A, seed=0)
    frozen = expected[name]["node_reports"]
    assert sorted(n.key for n in graph.nodes) == sorted(frozen)
    for node in graph.nodes:
        report = derdim_bound_report(A, list(node.pair.summands), seed=0)
        assert report.key == node.key
        assert _digest(report.to_json_dict()) == frozen[node.key], (name, node.key)


def test_faithful_nodes_pass_the_tilting_recheck_over_the_algebra(graphs):
    checked = 0
    for name, graph in graphs.items():
        A = graph.algebra
        for node in graph.nodes:
            if node.classification != "tilting":
                continue
            summands = list(node.pair.summands)
            rep = tilting_proxy_check(A, summands)
            assert rep.ok, (name, node.key, rep.notes)
            assert rep.quotient_dim == A.dim
            assert rep.pd is not None and rep.pd <= 1
            assert rep.ext1 == 0
            assert rep.classes == rep.n_simples == A.n_vertices
            assert is_faithful(direct_sum(A, summands).rep), (name, node.key)
            checked += 1
    # 9 in the corpus graphs and 22 in the ladder graphs
    assert checked == 9 + 22


def _irreducible_counts(keys, edges):
    """(join-irreducibles, meet-irreducibles): nodes with exactly one
    down-arrow, and nodes with exactly one up-arrow.  Edges run down."""
    down = dict.fromkeys(keys, 0)
    up = dict.fromkeys(keys, 0)
    for src, dst in edges:
        down[src] += 1
        up[dst] += 1
    return (sum(d == 1 for d in down.values()), sum(u == 1 for u in up.values()))


def _edge_list(graph):
    return [(e.src, e.dst) for e in graph.edges]


@pytest.mark.parametrize("name", sorted(BRICKS))
def test_irreducible_torsion_classes_are_counted_by_the_bricks(name, graphs):
    graph = graphs[name]
    keys = [n.key for n in graph.nodes]
    assert _irreducible_counts(keys, _edge_list(graph)) == (BRICKS[name], BRICKS[name])


def test_the_lattice_oracle_sees_any_dropped_edge(graphs):
    # on a test-local copy of A3's graph, dropping any one edge moves a
    # count away from the six bricks
    graph = graphs["line3"]
    keys = [n.key for n in graph.nodes]
    edges = _edge_list(graph)
    assert _irreducible_counts(keys, edges) == (6, 6)
    for i in range(len(edges)):
        assert _irreducible_counts(keys, edges[:i] + edges[i + 1:]) != (6, 6), edges[i]
