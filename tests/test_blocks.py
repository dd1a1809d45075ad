"""Block tags and heredity, over every algebra that ``graph_reports`` builds
or estimates.

Each basis element of a structure-constant algebra carries its block (u, v),
certified on construction as b = e_u b e_v.  The tags replace path scans,
the endomorphism algebra's own block list, and two products per candidate
when arrows are chosen.  A presented algebra's heredity is read off its
relations; an estimate reads it off the dimension and the paths of a
Dynkin quiver.  The oracles here are the computations they replace.
"""

import pytest

import taubound.algebra
import taubound.endo
import taubound.reports
import taubound.reps
from conftest import perfbench_algebras
from taubound import CertificationError, parse_algebra_text
from taubound.algebra import BoundQuiverAlgebra, StructureAlgebra, factor_algebra
from taubound.endo import is_hereditary, quiver_presentation
from taubound.reports import graph_reports
from taubound.reps import annihilator, direct_sum, projective_dimension, simple

# StructureAlgebra.mul calls in graph_reports(line4) before the tags
PARENT_LINE4_MULS = 2387


@pytest.fixture(scope="module")
def built(corpus_algebras):
    """Every A, B = End(M) and C = A/ann M of the corpus and ladder graphs:
    the bound quiver algebras, the endomorphism algebras, and each quotient
    as (A, structure algebra, survivor positions).  Reports read B and C off
    their radical layers, so each B and C is presented here by the route
    the reports' oracle takes: ``quiver_presentation`` of the End(M) that
    the report built, and ``factor_algebra`` by the annihilator."""
    bench = perfbench_algebras()
    algebras = list(corpus_algebras.values()) + [
        parse_algebra_text(text) for _, text, _ in bench.LADDER_FP + bench.LADDER_Q]
    out = {"bound": list(algebras), "endo": [], "quotient": []}
    present = taubound.algebra.present_structure_as_bound_quiver
    quotient = taubound.algebra.quotient_structure
    endo_algebra = taubound.reports.endo_algebra

    def presenting(*args, **kwargs):
        out["bound"].append(present(*args, **kwargs))
        return out["bound"][-1]

    def quotienting(sa, ideal):
        q, survivors = quotient(sa, ideal)
        out["quotient"].append((sa, q, survivors))
        return q, survivors

    def endo(*args, **kwargs):
        out["endo"].append(endo_algebra(*args, **kwargs))
        return out["endo"][-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(taubound.algebra, "present_structure_as_bound_quiver", presenting)
        mp.setattr(taubound.endo, "present_structure_as_bound_quiver", presenting)
        mp.setattr(taubound.algebra, "quotient_structure", quotienting)
        mp.setattr(taubound.reports, "endo_algebra", endo)
        for A in algebras:
            graph, _ = graph_reports(A)
            for node in graph.nodes:
                if node.classification == "tau-tilting-not-tilting":
                    M = direct_sum(A, list(node.pair.summands)).rep
                    factor_algebra(A, annihilator(M))
        for e in out["endo"]:
            quiver_presentation(e)
    return out


def _structure_algebras(built):
    return (built["bound"] + [e.sa for e in built["endo"]]
            + [q for _, q, _ in built["quotient"]])


def test_every_kind_of_algebra_is_seen(built):
    assert len(built["bound"]) > 90 and len(built["quotient"]) > 20
    # End(M) over A once at each of the 62 sincere nodes, and never over a
    # quotient C, where it is the same algebra: 51 distinct algebras by
    # name and table, and 42 distinct tables.  The tables are read off the
    # Hom bases of each summand class's canonical module.
    assert len(built["endo"]) == 62
    assert len({(e.summands[0].algebra.name, e.sa.table)
                for e in built["endo"]}) == 51
    assert len({e.sa.table for e in built["endo"]}) == 42


def test_path_algebra_blocks_are_the_path_scan(built):
    for X in built["bound"]:
        n = X.n_vertices
        for u in range(n):
            for v in range(n):
                assert X.block(u, v) == [i for i, p in enumerate(X.basis)
                                         if p.source == u and p.target == v]
        assert sum(len(X.block(u, v)) for u in range(n) for v in range(n)) == X.dim


def test_endo_blocks_are_the_hom_blocks(built):
    # basis element i of End(T_1 + ... + T_t) is a map T_v -> T_u
    for endo in built["endo"]:
        index = {id(T): u for u, T in enumerate(endo.summands)}
        assert endo.sa.block_of == tuple(
            (index[id(m.target)], index[id(m.source)]) for m in endo.basis_maps)


def test_quotient_blocks_renumber_the_survivor_paths(built):
    for A, q, survivors in built["quotient"]:
        vertex_pos = {A.quiver.vertex_index(lab): pos
                      for pos, lab in enumerate(q.vertex_labels)}
        assert q.block_of == tuple(
            (vertex_pos[A.basis[i].source], vertex_pos[A.basis[i].target])
            for i in survivors)


def test_each_block_mask_is_the_idempotent_product(built):
    # e_u b e_v is b inside its tagged block and 0 outside it, so keeping
    # the coordinates tagged (u, v) is the product e_u r e_v
    for X in _structure_algebras(built):
        n = X.n_vertices
        for i, tag in enumerate(X.block_of):
            b = X.unit_vec(i)
            for u in range(n):
                left = X.mul(X.idempotents[u], b)
                for v in range(n):
                    expect = b if (u, v) == tag else X.zero_vec()
                    assert X.mul(left, X.idempotents[v]) == expect


def test_a_wrong_tag_is_refused(line3):
    A = line3
    n = A.n_vertices
    for i, tag in enumerate(A.block_of):
        for wrong in [(u, v) for u in range(n) for v in range(n) if (u, v) != tag]:
            tags = list(A.block_of)
            tags[i] = wrong
            with pytest.raises(CertificationError, match=f"basis element {i} "):
                StructureAlgebra(A.field, A.table, A.idempotents,
                                 A.vertex_labels, tags)
    with pytest.raises(CertificationError, match="one tag per basis element"):
        StructureAlgebra(A.field, A.table, A.idempotents, A.vertex_labels,
                         A.block_of[:-1])


def _resolves_simples_in_one_step(B: BoundQuiverAlgebra) -> bool:
    """Heredity as it was tested before: every simple has pd <= 1."""
    for v in range(B.n_vertices):
        d = projective_dimension(simple(B, v), cap=2)
        if d is None or d > 1:
            return False
    return True


def test_heredity_from_the_relations_agrees_with_the_simples(built):
    seen = {True: 0, False: 0}
    for X in built["bound"]:
        assert is_hereditary(X) == _resolves_simples_in_one_step(X), X.name
        seen[is_hereditary(X)] += 1
    assert seen[True] > 20 and seen[False] > 20


def test_line4_reports_resolve_no_simple_and_make_fewer_products(monkeypatch):
    # heredity is decided in the estimate core, from the quiver and the
    # dimension, for A and for every B = End(M)
    A = parse_algebra_text(perfbench_algebras().line_text("line4", 4, "Fp 32003"))
    calls = {"mul": 0, "hereditary": 0, "cover_in_hereditary": 0}
    inside = []
    mul = StructureAlgebra.mul
    cover = taubound.reps.projective_cover
    core = taubound.endo.estimate_from_layers

    def counting_mul(self, u, v):
        calls["mul"] += 1
        return mul(self, u, v)

    def counting_cover(M):
        calls["cover_in_hereditary"] += bool(inside)
        return cover(M)

    def tracking(*args, **kwargs):
        calls["hereditary"] += 1
        inside.append(args)
        try:
            return core(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(StructureAlgebra, "mul", counting_mul)
    monkeypatch.setattr(taubound.reps, "projective_cover", counting_cover)
    monkeypatch.setattr(taubound.endo, "estimate_from_layers", tracking)
    graph_reports(A)
    assert calls["hereditary"] > 0
    assert calls["cover_in_hereditary"] == 0
    assert calls["mul"] < PARENT_LINE4_MULS
