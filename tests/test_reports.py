"""Bound verification reports, the quotient tilting re-check, and the
graph exports.
"""

import json

import pytest

import taubound.algebra
import taubound.reports
from conftest import perfbench_algebras
from taubound import CertificationError, InputError, parse_algebra_text
from taubound.algebra import loewy_length
from taubound.decompose import decompose
from taubound.endo import DerdimEstimate, derdim_estimate, endo_algebra
from taubound.mutation import enumerate_stt
from taubound.reports import (canonical_json, derdim_bound_report,
                              export_graph_dot, export_graph_json,
                              graph_reports, quotient_by_annihilator,
                              tilting_proxy_check)
from taubound.reps import (direct_sum, projective, restrict_to_quotient, simple,
                           zero_rep)
from taubound.tau import classify_pair


REG = {"arrow_loop": ("exact", 1), "line2": ("exact", 0),
       "line3": ("exact", 0), "discrete2": ("exact", 0)}


# ---------------------------------------------------------------------------
# the annihilator quotient


def test_quotient_by_annihilator_of_sincere_pair(arrow_loop):
    A = arrow_loop
    M = direct_sum(A, [projective(A, 0), simple(A, 0)]).rep
    C, ann, MC = quotient_by_annihilator(A, M)
    assert ann.dim == 1
    assert C.dim == A.dim - 1 == 3
    assert MC.dims == M.dims


def test_quotient_by_annihilator_of_faithful_module(arrow_loop):
    A = arrow_loop
    M = direct_sum(A, [projective(A, 0), projective(A, 1)]).rep
    C, ann, _ = quotient_by_annihilator(A, M)
    assert ann.dim == 0
    assert C is A


def test_quotient_by_annihilator_of_zero(arrow_loop):
    C, ann, MC = quotient_by_annihilator(arrow_loop, zero_rep(arrow_loop))
    assert C.is_zero_algebra
    assert MC.dim_total == 0


def test_quotient_with_proper_support(arrow_loop):
    A = arrow_loop
    C, ann, MC = quotient_by_annihilator(A, simple(A, 0))
    assert C.n_vertices == 1 and C.dim == 1
    assert MC.dims == (1,)


def test_quotient_is_one_step_for_a_non_sincere_module(arrow_loop, monkeypatch):
    A = arrow_loop
    ann_calls = _count_calls(monkeypatch, "annihilator")
    deletions = _count_calls(monkeypatch, "delete_vertices", taubound.algebra)
    # also count a call through a name imported into reports
    monkeypatch.setattr(taubound.reports, "delete_vertices",
                        taubound.algebra.delete_vertices, raising=False)
    C, ann, MC = quotient_by_annihilator(A, projective(A, 1))
    assert (len(ann_calls), len(deletions)) == (1, 0)
    assert C.name == "arrow_loop/I" and ann.dim == 2
    assert C.quiver.vertices == (2,) and C.dim == 2 and MC.dims == (2,)


# ---------------------------------------------------------------------------
# the tilting re-check


def test_proxy_on_tilting_pair(arrow_loop):
    A = arrow_loop
    rep = tilting_proxy_check(A, [projective(A, 0), projective(A, 1)])
    assert rep.ok
    assert rep.pd == 0 and rep.ext1 == 0
    assert rep.classes == 2 == rep.n_simples
    assert rep.presentations_match is True
    assert rep.endo_dim_ambient == rep.endo_dim_quotient == 4


def test_proxy_on_sincere_non_faithful_pair(arrow_loop):
    A = arrow_loop
    rep = tilting_proxy_check(A, [projective(A, 0), simple(A, 0)])
    assert rep.ok
    assert rep.quotient_dim == 3
    assert rep.endo_dim_ambient == rep.endo_dim_quotient == 3


def test_proxy_on_zero_pair(arrow_loop):
    rep = tilting_proxy_check(arrow_loop, [])
    assert rep.ok
    assert rep.classes == 0 == rep.n_simples
    assert rep.presentations_match is None


def test_proxy_fails_for_incomplete_module(line2):
    # P(1) alone is rigid and faithful but one class short of tilting
    rep = tilting_proxy_check(line2, [projective(line2, 0)])
    assert not rep.ok
    assert rep.classes == 1 and rep.n_simples == 2
    assert any("summand classes" in n for n in rep.notes)


def test_proxy_refuses_a_summand_over_another_algebra(line2, line3):
    # the module is not truncated to line2's vertices and checked there
    with pytest.raises(InputError, match="summand over line3, not line2"):
        tilting_proxy_check(line2, [projective(line3, 0)])


def test_proxy_passes_on_every_corpus_node(corpus_algebras):
    for A in corpus_algebras.values():
        g = enumerate_stt(A)
        for node in g.nodes:
            rep = tilting_proxy_check(A, list(node.pair.summands))
            assert rep.ok, (A.name, node.key, rep.notes)
            _, _, MC = quotient_by_annihilator(A, node.pair.module())
            assert rep.classes == len(decompose(MC).class_reps)


def test_end_over_the_quotient_is_end_over_the_algebra(corpus_algebras):
    # Hom_C = Hom_A inside one coordinate space, so End(M) over C = A/ann M
    # has the very table and idempotents of End(M) over A, on every node
    bench = perfbench_algebras()
    algebras = list(corpus_algebras.values()) + [
        parse_algebra_text(text) for _, text, _ in bench.LADDER_FP + bench.LADDER_Q]
    for A in algebras:
        for node in enumerate_stt(A).nodes:
            summands = list(node.pair.summands)
            if not summands:
                continue
            C, _, _ = quotient_by_annihilator(A, node.pair.module())
            over_a = endo_algebra(summands)
            over_c = endo_algebra([restrict_to_quotient(s, C) for s in summands])
            assert over_c.sa.table == over_a.sa.table, (A.name, node.key)
            assert over_c.sa.idempotents == over_a.sa.idempotents, (A.name, node.key)


def test_changed_end_over_the_quotient_fails_the_recheck(arrow_loop, monkeypatch):
    A = arrow_loop
    original = taubound.reports.endo_algebra

    def reordered_over_quotient(summands, labels=None):
        # End over C with its summands in the opposite order: the same
        # algebra up to isomorphism, but not the same structure table
        if summands[0].algebra is not A:
            summands = summands[::-1]
        return original(summands, labels)

    monkeypatch.setattr(taubound.reports, "endo_algebra", reordered_over_quotient)
    rep = tilting_proxy_check(A, [projective(A, 0), simple(A, 0)])
    assert rep.presentations_match is False and not rep.ok
    assert rep.endo_dim_ambient == rep.endo_dim_quotient == 3
    assert "endomorphism algebra changed under the quotient transport" in rep.notes


def _report_with(monkeypatch, name, wrong):
    """The report on arrow_loop's P1+S1 with ``name`` in reports replaced by
    ``wrong(original, *args)``, and the names of the algebras estimated."""
    original = getattr(taubound.reports, name)
    monkeypatch.setattr(taubound.reports, name,
                        lambda *args, **kwargs: wrong(original, *args, **kwargs))
    estimated = _count_calls(monkeypatch, "derdim_estimate")
    A = parse_algebra_text(perfbench_algebras().ARROW_LOOP)
    rep = derdim_bound_report(A, [projective(A, 0), simple(A, 0)], registry=REG)
    return rep, [args[0].name for args in estimated]


def test_a_passed_recheck_merges_the_estimate_of_the_quotient(monkeypatch):
    rep, estimated = _report_with(monkeypatch, "restrict_to_quotient",
                                  lambda original, *args: original(*args))
    assert rep.notes[-1] == "tilting over arrow_loop/I certified; estimates merged"
    assert "arrow_loop/I" in estimated


def test_repeated_parts_over_the_quotient_fail_the_recheck(monkeypatch):
    # both summands restricted to C as P(1): a repeated summand over C
    seen = []

    def first_summand_twice(original, M, C):
        seen.append(M)
        return original(seen[0], C)

    rep, estimated = _report_with(monkeypatch, "restrict_to_quotient",
                                  first_summand_twice)
    assert rep.notes[-1] == ("quotient tilting re-check failed: repeated "
                             "indecomposable summands (module is not basic)")
    # d_B is B's own estimate, not merged with one of C
    assert "arrow_loop/I" not in estimated


def test_a_summand_of_pd_two_over_the_quotient_fails_the_recheck(monkeypatch):
    def not_tilting_over_c(original, X, parts, support):
        if X.name == "arrow_loop/I":
            return "tau-tilting-not-tilting"
        return original(X, parts, support)

    rep, estimated = _report_with(monkeypatch, "_classify_valid_pair",
                                  not_tilting_over_c)
    assert rep.notes[-1] == ("quotient tilting re-check failed: a summand has "
                             "projective dimension > 1 over arrow_loop/I")
    assert "arrow_loop/I" not in estimated


# ---------------------------------------------------------------------------
# per-pair bound reports


def test_tight_report(arrow_loop, known_registry):
    A = arrow_loop
    rep = derdim_bound_report(A, [projective(A, 0), simple(A, 0)],
                              registry=known_registry)
    assert rep.key == "P1+S1"
    assert rep.classification == "tau-tilting-not-tilting"
    assert rep.applicable
    assert rep.ann_dim == 1 and rep.r == 2
    assert rep.endo_dim == 3
    assert rep.d_b.value == 0 and rep.d_b.is_exact
    assert rep.lhs.value == 1 and rep.lhs.is_exact
    assert rep.rhs_value == 1 and rep.rhs_kind == "exact"
    assert rep.loewy_rhs == loewy_length(A) - 1 == 1
    assert rep.status == "tight"
    assert "tight" in rep.summary_line()
    # the left side is derdim(A), not derdim(A/ann M): the quotient has 0
    C, _, _ = quotient_by_annihilator(A, direct_sum(A, [projective(A, 0), simple(A, 0)]).rep)
    assert derdim_estimate(C, known_registry).value == 0 and rep.lhs.value == 1


def test_satisfied_report(arrow_loop, known_registry):
    A = arrow_loop
    rep = derdim_bound_report(A, [projective(A, 0), projective(A, 1)],
                              registry=known_registry)
    assert rep.classification == "tilting"
    assert rep.ann_dim == 0 and rep.r == 1
    # rhs = 1*(1 + 1) - 1 = 1 = lhs: the trivial pair is tight as well
    assert rep.rhs_value == 1
    assert rep.status == "tight"


def test_bound_only_report_without_registry(arrow_loop):
    rep = derdim_bound_report(arrow_loop,
                              [projective(arrow_loop, 0),
                               simple(arrow_loop, 0)])
    assert rep.status == "satisfied" or rep.status == "bound-only"
    # without registry facts the lhs stays an upper estimate
    assert not rep.lhs.is_exact
    assert rep.status == "bound-only"


def test_inapplicable_report(arrow_loop, known_registry):
    A = arrow_loop
    rep = derdim_bound_report(A, [projective(A, 1)], [0],
                              registry=known_registry)
    assert rep.classification == "proper-support"
    assert not rep.applicable
    assert rep.status == "inapplicable"
    assert rep.ann_dim == 2          # e_1 and alpha kill P(2)
    assert rep.loewy_rhs == 1
    assert any("idempotents" in n for n in rep.notes)
    assert "inapplicable" in rep.summary_line()


def test_zero_pair_report(arrow_loop):
    rep = derdim_bound_report(arrow_loop, [], [0, 1])
    assert rep.key == "0"
    assert rep.classification == "zero"
    assert not rep.applicable


def test_report_rejects_invalid_pair(arrow_loop):
    with pytest.raises(InputError, match="not a support tau-tilting pair"):
        derdim_bound_report(arrow_loop, [projective(arrow_loop, 0)])


def test_bad_registry_conflict_raises(arrow_loop):
    # an exact lhs far above the certified rhs must blow up, not pass, and
    # blame the registry entry at the pair
    with pytest.raises(InputError, match=r"registry entry 'arrow_loop' "
                                         r"contradicts the report on pair "):
        derdim_bound_report(arrow_loop,
                            [projective(arrow_loop, 0),
                             simple(arrow_loop, 0)],
                            registry={"arrow_loop": ("exact", 5)})


def test_a_contradiction_without_the_registry_is_a_failed_certificate(
        arrow_loop, monkeypatch):
    # P1+S1 is not faithful; a wrong exact estimate of C = A/I contradicts
    # d_B = 0 with no registry fact involved, even with A in the registry
    estimate = taubound.reports.derdim_estimate

    def wrong_for_the_quotient(X, registry=None):
        if X.name == "arrow_loop/I":
            return DerdimEstimate(7, "exact", "rule:semisimple")
        return estimate(X, registry)

    monkeypatch.setattr(taubound.reports, "derdim_estimate", wrong_for_the_quotient)
    with pytest.raises(CertificationError, match=r"report on pair P1\+S1 of "
                                                 r"arrow_loop: inconsistent exact"):
        derdim_bound_report(arrow_loop, [projective(arrow_loop, 0),
                                         simple(arrow_loop, 0)], registry=REG)


def test_no_registry_entry_changes_the_estimate_of_a_quotient():
    # the non-faithful sincere nodes of preprojective A3 have five quotients
    # of dims 5 to 9, all named preproj3/I
    A = parse_algebra_text(perfbench_algebras().preprojective_text(
        "preproj3", 3, "Fp 32003"))
    _, plain = graph_reports(A)
    assert sum(1 for r in plain if r.applicable and r.ann_dim) == 12
    for entry in [("exact", 0), ("upper", 0), ("exact", 9)]:
        _, reports = graph_reports(A, registry={"preproj3/I": entry})
        assert [r.to_json_dict() for r in reports] == \
            [r.to_json_dict() for r in plain]


def test_loewy_bound_consistency(corpus_algebras, known_registry):
    # registry-exact values never exceed the Loewy-length fallback bound
    for name, A in corpus_algebras.items():
        kind, value = known_registry[name]
        assert kind == "exact"
        assert value <= loewy_length(A) - 1


# ---------------------------------------------------------------------------
# whole-graph reports and exports


def test_graph_reports_cover_all_nodes(arrow_loop, known_registry):
    graph, reports = graph_reports(arrow_loop, registry=known_registry)
    assert len(reports) == graph.n_nodes == 5
    by_key = {r.key: r for r in reports}
    assert by_key["P1+P2"].status == "tight"
    assert by_key["P1+S1"].status == "tight"
    assert all(not by_key[k].applicable for k in ("P2", "S1", "0"))
    ttnt = [r for r in reports
            if r.classification == "tau-tilting-not-tilting"]
    assert [r.key for r in ttnt] == ["P1+S1"]


def test_graph_reports_agree_with_single_pair_reports(corpus_algebras,
                                                     known_registry):
    # graph_reports reuses each node's validation and classification;
    # the single-pair path validates from scratch and must agree
    for A in corpus_algebras.values():
        graph, reports = graph_reports(A, registry=known_registry)
        for node, report in zip(graph.nodes, reports):
            summands = list(node.pair.summands)
            alone = derdim_bound_report(A, summands, registry=known_registry)
            assert alone.to_json_dict() == report.to_json_dict(), node.key
            assert node.classification == classify_pair(
                A, summands, node.pair.support), node.key


def _count_calls(monkeypatch, name, module=taubound.reports):
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_graph_reports_build_each_node_fact_once(corpus_algebras, monkeypatch):
    counted = ("endo_algebra", "quiver_presentation", "annihilator",
               "derdim_estimate", "restrict_to_quotient", "ext1_dim",
               "projective_dimension", "quotient_by_annihilator",
               "tilting_proxy_check")
    calls = {name: _count_calls(monkeypatch, name) for name in counted}
    for A in corpus_algebras.values():
        for c in calls.values():
            c.clear()
        graph, _ = graph_reports(A)
        faithful = sum(n.classification == "tilting" for n in graph.nodes)
        non_faithful = sum(n.classification == "tau-tilting-not-tilting"
                           for n in graph.nodes)
        sincere = faithful + non_faithful
        # End(M) once over A, presented once, and never over C = A/ann M,
        # where End_C(M) = End_A(M)
        assert len(calls["endo_algebra"]) == sincere, A.name
        assert len(calls["quiver_presentation"]) == sincere, A.name
        # a faithful node's annihilator is 0 by classification
        assert len(calls["annihilator"]) == graph.n_nodes - faithful, A.name
        assert sum(args[0] is A for args in calls["derdim_estimate"]) == 1, A.name
        # the re-check over C restricts each listed summand, never their sum
        listed = {id(s) for n in graph.nodes for s in n.pair.summands}
        assert all(id(args[0]) in listed for args in calls["restrict_to_quotient"])
        assert len(calls["restrict_to_quotient"]) == sum(
            len(n.pair.summands) for n in graph.nodes
            if n.classification == "tau-tilting-not-tilting"), A.name
        for name in ("ext1_dim", "projective_dimension",
                     "quotient_by_annihilator", "tilting_proxy_check"):
            assert not calls[name], (A.name, name)


def test_faithful_nodes_are_reported_from_their_certificates(monkeypatch):
    # every sincere node of A4 is faithful: no pd, Ext^1, annihilator or
    # quotient is computed for it, and End(M) is built once per node
    A = parse_algebra_text(perfbench_algebras().line_text("line4", 4, "Fp 32003"))
    counted = ("endo_algebra", "annihilator", "ext1_dim",
               "projective_dimension", "quotient_by_annihilator")
    calls = {name: _count_calls(monkeypatch, name) for name in counted}
    graph, _ = graph_reports(A)
    faithful = sum(n.classification == "tilting" for n in graph.nodes)
    assert faithful == 14 and graph.n_nodes == 42
    assert len(calls["endo_algebra"]) == faithful
    assert len(calls["annihilator"]) == graph.n_nodes - faithful
    assert not (calls["ext1_dim"] or calls["projective_dimension"]
                or calls["quotient_by_annihilator"])


def test_inapplicable_report_skips_the_ambient_estimate(arrow_loop, monkeypatch):
    A = arrow_loop
    calls = _count_calls(monkeypatch, "derdim_estimate")
    rep = derdim_bound_report(A, [simple(A, 0)])
    assert rep.classification == "proper-support"
    assert not any(args[0] is A for args in calls)


def test_report_refuses_a_decomposable_listed_summand(arrow_loop):
    A = arrow_loop
    both = direct_sum(A, [projective(A, 0), projective(A, 1)]).rep
    with pytest.raises(InputError, match="decomposable"):
        derdim_bound_report(A, [both])


def line_text(n):
    return "".join(f"arrow a{i}: {i} -> {i + 1}\n" for i in range(1, n))


# (name, vertices, arrows and relations, field, closed-form pair count):
# Catalan numbers for the A_n lines, 4! for preprojective A3, and the
# frozen arrow_loop graph of gate C1
SMALL_FIELD_CASES = [
    ("line3", 3, line_text(3), "Fp 2", 14),
    ("arrow_loop", 2, "arrow alpha: 1 -> 2\narrow beta: 2 -> 2\n"
     "relations\n  alpha*beta\n  beta*beta\nend\n", "Fp 3", 5),
    ("line4", 4, line_text(4), "Fp 5", 42),
    ("preproj3", 3, "arrow a1: 1 -> 2\narrow b1: 2 -> 1\n"
     "arrow a2: 2 -> 3\narrow b2: 3 -> 2\n"
     "relations\n  a1*b1\n  b2*a2\n  a2*b2 - b1*a1\nend\n", "Fp 7", 24),
]


@pytest.mark.parametrize("name,n,body,field,pairs", SMALL_FIELD_CASES,
                         ids=[f"{c[0]}-{c[3].replace(' ', '')}" for c in SMALL_FIELD_CASES])
def test_small_fields_enumerate_and_report(name, n, body, field, pairs):
    # no certificate needs the characteristic to exceed an algebra dimension
    A = parse_algebra_text(f"algebra {name}\nfield {field}\nvertices "
                           + " ".join(str(v) for v in range(1, n + 1))
                           + "\n" + body)
    assert enumerate_stt(A).n_nodes == pairs
    graph, reports = graph_reports(A)
    assert graph.n_nodes == len(reports) == pairs


def test_export_json_shape_and_determinism(arrow_loop):
    g = enumerate_stt(arrow_loop)
    payload = export_graph_json(g)
    assert payload["algebra"] == "arrow_loop"
    assert payload["n_nodes"] == 5 and payload["n_edges"] == 5
    assert [n["key"] for n in payload["nodes"]] == sorted(
        n["key"] for n in payload["nodes"])
    text = canonical_json(payload)
    assert text == canonical_json(json.loads(text))
    assert text.endswith("\n")


def test_export_dot_marks_the_sincere_non_faithful_node(arrow_loop):
    dot = export_graph_dot(enumerate_stt(arrow_loop))
    assert dot.startswith("digraph exchange {")
    red = [line for line in dot.splitlines() if "color=red" in line]
    assert len(red) == 1 and '"P1+S1"' in red[0]
    assert '"P1+P2" -> "P1+S1" [label="P2"];' in dot


def test_report_json_round_trip(arrow_loop, known_registry):
    rep = derdim_bound_report(arrow_loop,
                              [projective(arrow_loop, 0),
                               simple(arrow_loop, 0)],
                              registry=known_registry)
    text = canonical_json(rep.to_json_dict())
    assert canonical_json(json.loads(text)) == text
    payload = json.loads(text)
    assert payload["status"] == "tight"
    assert payload["ann_dim"] == 1
    assert payload["loewy_rhs"] == 1
    assert payload["d_b"]["provenance"] in ("rule:hereditary-dynkin",
                                            "registry")
