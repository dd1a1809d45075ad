"""Oracles over the benchmark's algebras and the corpus.

* The graph and report digests that ``perfbench/expected.json`` freezes for
  the ladder and pair-query algebras, checked here as well, so that a
  change of output beyond the corpus fails tier 1.  The file is only read.
* Every faithful ("tilting") node passes the tilting re-check over A itself.
  Reports take that node's facts from its classification, so the re-check
  stays here as their oracle.
* Every non-faithful sincere node passes the same re-check over
  C = A/ann M (pd, Ext^1 and End over C, computed afresh on the direct
  sum), and the reports' own re-check, pair validation and classification
  over C, agrees with it.
* The lattice shape of each exchange graph.  The graph is the Hasse quiver
  of the lattice of torsion classes, whose join-irreducibles (one
  down-arrow) and meet-irreducibles (one up-arrow) are both in bijection
  with the bricks (Demonet-Iyama-Reading-Reiten-Thomas, *Lattice theory of
  torsion classes*, 2017; Demonet-Iyama-Jasso, *tau-tilting finite
  algebras, bricks, and g-vectors*, 2019).  The brick counts have closed
  forms that owe nothing to the package.
* The g-vectors, g(X) = [P0] - [P1] from X's minimal presentation and
  g = -e_v for each support vertex v.  Each node's g-vectors form a basis
  of Z^n (AIR Thm 5.1) and are sign-coherent, and distinct tau-rigid
  summand classes have distinct g-vectors, none of them a -e_v (AIR Thm
  5.5), so the graph has as many g-vectors as summand names plus n.
"""

import hashlib
import json
import os

import pytest

from conftest import perfbench_algebras
from taubound import (derdim_bound_report, direct_sum, enumerate_stt,
                      export_graph_json, factor_algebra, graph_reports,
                      is_faithful, parse_algebra_text, tilting_proxy_check)
from taubound.reps import annihilator, restrict_to_quotient
from taubound.reports import canonical_json
from taubound.tau import _classify_valid_pair, tau_data, validate_stt_pair

BENCH = perfbench_algebras()
LADDER = BENCH.LADDER_FP + BENCH.LADDER_Q
PAIR_QUERIES = {name: text for name, text, _ in BENCH.PAIR_QUERIES}
EXPECTED_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                             "expected.json")
# two larger graphs for the lattice and g-vector oracles, enumerated only
LARGER = [("line5", BENCH.line_text("line5", 5, BENCH.FP)),
          ("nakayama4_4", BENCH.nakayama_text("nakayama4_4", 4, 4, BENCH.FP))]

# bricks: n(n+1)/2 for A_n (every indecomposable), 2^(n+1) - n - 2 for
# preprojective A_n (the join-irreducibles of the weak order on S_(n+1)),
# n^2 for self-injective Nakayama (n, L >= n) (the uniserials of length at
# most n), and the corpus algebras' counts
BRICKS = {
    "line4": 4 * 5 // 2,
    "preproj3": 2 ** 4 - 3 - 2,
    "nakayama3_4": 3 ** 2,
    "line5": 5 * 6 // 2,
    "nakayama4_4": 4 ** 2,
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
def corpus_reports(corpus_algebras):
    return {name: graph_reports(A, seed=0) for name, A in corpus_algebras.items()}


@pytest.fixture(scope="module")
def graphs(corpus_reports, ladder_reports):
    out = {name: graph for name, (graph, _) in corpus_reports.items()}
    out.update((name, graph) for name, (graph, _) in ladder_reports.items())
    out.update((name, enumerate_stt(parse_algebra_text(text, path=name), seed=0))
               for name, text in LARGER)
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


def test_faithful_nodes_pass_the_tilting_recheck_over_the_algebra(
        corpus_reports, ladder_reports):
    checked = 0
    for name, (graph, _) in {**corpus_reports, **ladder_reports}.items():
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


def test_non_faithful_nodes_pass_both_tilting_rechecks_over_the_quotient(
        corpus_reports, ladder_reports):
    checked = 0
    for name, (graph, reports) in {**corpus_reports, **ladder_reports}.items():
        A = graph.algebra
        for node, report in zip(graph.nodes, reports):
            if node.classification != "tau-tilting-not-tilting":
                continue
            summands = list(node.pair.summands)
            rep = tilting_proxy_check(A, summands)
            assert rep.ok, (name, node.key, rep.notes)
            assert rep.quotient_dim < A.dim
            assert rep.pd is not None and rep.pd <= 1
            assert rep.ext1 == 0
            assert rep.presentations_match is True
            assert rep.endo_dim_ambient == rep.endo_dim_quotient == report.endo_dim
            # the reports' re-check: a valid pair over C whose summands
            # have pd <= 1, from each summand restricted to C
            C = factor_algebra(A, annihilator(direct_sum(A, summands).rep))
            parts = [restrict_to_quotient(s, C) for s in summands]
            assert validate_stt_pair(C, parts, (), seed=0).ok, (name, node.key)
            assert _classify_valid_pair(C, parts, ()) == "tilting", (name, node.key)
            assert f"tilting over {C.name} certified; estimates merged" in report.notes
            checked += 1
    # 1 in the corpus graphs and 30 in the ladder graphs
    assert checked == 1 + 30


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


def _g_vector(X, n):
    pres = tau_data(X).presentation
    return tuple(pres.p0_vertices.count(v) - pres.p1_vertices.count(v)
                 for v in range(n))


def _g_matrices(graph):
    """Per node, the g-vectors of its summands and of its support vertices."""
    n = graph.algebra.n_vertices
    return [[_g_vector(X, n) for X in node.pair.summands]
            + [tuple(-(i == v) for i in range(n)) for v in node.pair.support]
            for node in graph.nodes]


def _det(rows):
    """Integer determinant by expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * a * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, a in enumerate(rows[0]) if a)


def _sign_coherent(rows):
    return not any(any(r[i] > 0 for r in rows) and any(r[i] < 0 for r in rows)
                   for i in range(len(rows[0])))


def _g_vectors_match_the_names(matrices, names, n):
    return len({g for rows in matrices for g in rows}) == len(names) + n


def _names(graph):
    return {name for node in graph.nodes for name in node.summand_names}


@pytest.mark.parametrize("name", sorted(BRICKS))
def test_g_vectors_are_bases_sign_coherent_and_one_per_class(name, graphs):
    graph = graphs[name]
    n = graph.algebra.n_vertices
    matrices = _g_matrices(graph)
    for node, rows in zip(graph.nodes, matrices):
        assert len(rows) == n, node.key
        assert abs(_det(rows)) == 1, (node.key, rows)
        assert _sign_coherent(rows), (node.key, rows)
    assert _g_vectors_match_the_names(matrices, _names(graph), n)


def test_each_g_vector_check_sees_a_corrupted_graph(graphs):
    # test-local corruptions of A3's graph, one per check
    graph = graphs["line3"]
    n = graph.algebra.n_vertices
    matrices = _g_matrices(graph)
    names = _names(graph)
    assert _g_vectors_match_the_names(matrices, names, n)
    # support vertices forgotten: the zero pair's g-matrix is 0
    forgot = [rows[:len(node.pair.summands)] + [(0,) * n] * len(node.pair.support)
              for node, rows in zip(graph.nodes, matrices)]
    assert not all(abs(_det(rows)) == 1 for rows in forgot)
    # [P1] - [P0] for the summands: a summand and a support vertex of one
    # pair disagree in sign, and -g(P(v)) = -e_v meets a support vector
    flipped = [[tuple(-a for a in g) for g in rows[:len(node.pair.summands)]]
               + rows[len(node.pair.summands):]
               for node, rows in zip(graph.nodes, matrices)]
    assert not all(_sign_coherent(rows) for rows in flipped)
    assert not _g_vectors_match_the_names(flipped, names, n)
    # two summand classes under one name
    merged = {name for name in names if name != max(names)}
    assert not _g_vectors_match_the_names(matrices, merged, n)
