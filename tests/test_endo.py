"""Endomorphism algebras, their quiver presentations, and derived
dimension estimates.
"""

import pytest

import taubound.endo
from taubound import CertificationError, InputError, parse_algebra_text
from taubound.algebra import Arrow, Quiver, construct_algebra, loewy_length
from taubound.endo import (DerdimEstimate, derdim_estimate, dynkin_type,
                           endo_algebra, is_hereditary, merge_estimates,
                           quiver_presentation)
from taubound.fields import PrimeField
from taubound.linalg import Mat, Span, inverse, nullspace
from taubound.mutation import enumerate_stt
from taubound.reps import Rep, hom_dim, projective, simple

from conftest import corpus_path, perfbench_algebras


# ---------------------------------------------------------------------------
# frozen endomorphism algebras over the loop corpus algebra


def test_endo_of_tilting_like_pair(arrow_loop):
    A = arrow_loop
    P1, S1 = projective(A, 0), simple(A, 0)
    endo = endo_algebra([P1, S1], labels=["P1", "S1"])
    assert endo.dim == 3
    B = quiver_presentation(endo)
    assert B.n_vertices == 2
    assert len(B.quiver.arrows) == 1
    assert not B.relations
    assert is_hereditary(B)
    assert dynkin_type(B.quiver) == "A2"
    est = derdim_estimate(B)
    assert est.value == 0 and est.is_exact
    assert est.provenance == "rule:hereditary-dynkin"


def test_endo_dim_is_sum_of_hom_blocks(arrow_loop):
    A = arrow_loop
    mods = [projective(A, 0), projective(A, 1)]
    endo = endo_algebra(mods)
    expect = sum(hom_dim(u, v) for u in mods for v in mods)
    assert endo.dim == expect == 4


def test_endo_of_regular_module_recovers_the_algebra(arrow_loop):
    A = arrow_loop
    endo = endo_algebra([projective(A, 0), projective(A, 1)])
    B = quiver_presentation(endo, name="EndA")
    assert B.dim == A.dim == 4
    assert B.n_vertices == 2
    ends = sorted((a.source, a.target) for a in B.quiver.arrows)
    assert ends == [(0, 1), (1, 1)]
    degrees = sorted(len(rel[0][1].arrows) for rel in B.relations)
    assert degrees == [2, 2]
    assert loewy_length(B) == loewy_length(A) == 2


def test_endo_of_single_simple(arrow_loop):
    endo = endo_algebra([simple(arrow_loop, 0)])
    assert endo.dim == 1
    B = quiver_presentation(endo)
    assert B.n_vertices == 1 and not B.quiver.arrows
    est = derdim_estimate(B)
    assert est.value == 0 and est.provenance == "rule:semisimple"


def test_endo_rejects_repeated_summands(arrow_loop):
    P1 = projective(arrow_loop, 0)
    with pytest.raises(InputError,
                       match="summands must be pairwise non-isomorphic"):
        endo_algebra([P1, P1])


def test_endo_rejects_empty_list():
    with pytest.raises(InputError, match="empty summand list"):
        endo_algebra([])


def test_endo_rejects_summands_over_two_algebras(line2, line3):
    with pytest.raises(InputError, match="summands over line2 and line3"):
        endo_algebra([projective(line2, 0), projective(line3, 0)])


@pytest.mark.parametrize("labels", [["x"], ["x", "y", "z"]])
def test_endo_rejects_a_label_list_of_the_wrong_length(arrow_loop, labels):
    # one label per summand, refused before any Hom basis is computed
    summands = [projective(arrow_loop, 0), simple(arrow_loop, 0)]
    with pytest.raises(InputError, match=f"endo_algebra: {len(labels)} labels for 2 summands"):
        endo_algebra(summands, labels=labels)


def test_non_split_block_is_rejected():
    # over F_3 the centralizer of the companion matrix of x^2 + 1 is the
    # field with nine elements: a local block that does not split
    F3 = PrimeField(3)
    q = Quiver((1, 2), (Arrow("a", 0, 1), Arrow("b", 0, 1)))
    A = construct_algebra("kron", F3, q)
    M = Rep(A, (2, 2), (Mat.identity(F3, 2),
                        Mat.from_rows(F3, [[0, 2], [1, 0]])))
    endo = endo_algebra([M])
    assert endo.dim == 2
    with pytest.raises(CertificationError, match="non-split block"):
        quiver_presentation(endo)


def test_endo_algebra_has_one_path(corpus_algebras):
    # without a class store, End(M) is built on a throwaway one: the same
    # table, idempotents, blocks and λ_b as on the enumeration's store
    bench = perfbench_algebras()
    algebras = list(corpus_algebras.values()) + [
        parse_algebra_text(text) for _, text, _ in bench.LADDER_FP + bench.LADDER_Q]
    compared = 0
    for A in algebras:
        graph = enumerate_stt(A)
        for node in graph.nodes:
            if node.classification not in ("tilting", "tau-tilting-not-tilting"):
                continue
            summands = list(node.pair.summands)
            free, stored = endo_algebra(summands), endo_algebra(summands, _store=graph._store)
            assert free.sa.table == stored.sa.table
            assert free.sa.idempotents == stored.sa.idempotents
            assert free.diag_offsets == stored.diag_offsets
            assert free.lams == stored.lams and None not in free.lams
            compared += 1
    assert compared == 62


# ---------------------------------------------------------------------------
# the local radical against a trace-form reference


def trace_form_radical(sa):
    """Reference radical of a structure-constant algebra: the kernel of the
    trace form tr(L_x L_y) of left multiplication.  Valid over Q, and over
    F_p when p exceeds the algebra dimension."""
    F, n, T = sa.field, sa.dim, sa.table
    assert F.characteristic == 0 or F.characteristic > n
    # tr(L_i L_j) = sum over k, l of T[i][l][k] * T[j][k][l]
    gram = [[F.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    gram[i][j] = F.add(gram[i][j], F.mul(T[i][l][k], T[j][k][l]))
    return nullspace(Mat.from_rows(F, gram))


def same_span(F, n, us, vs):
    a, b = Span(F, n), Span(F, n)
    for u in us:
        a.add(u)
    for v in vs:
        b.add(v)
    return a.dim == b.dim and all(a.contains(v) for v in b.basis())


def conjugated(T):
    """T with each vertex space rebased by the bidiagonal matrix with 1 on
    the diagonal and 2 above it, so that hom bases change: the conjugated
    P(2) of arrow_loop has a basis endomorphism with eigenvalue 2."""
    F = T.algebra.field
    g = [Mat.from_rows(F, [[F.of_int(1 if j == i else 2 if j == i + 1 else 0)
                            for j in range(d)] for i in range(d)]) if d else None
         for d in T.dims]
    return Rep(T.algebra, T.dims, [
        m if m.nrows == 0 or m.ncols == 0
        else g[a.target].mul(m).mul(inverse(g[a.source]))
        for a, m in zip(T.algebra.quiver.arrows, T.maps)])


@pytest.mark.parametrize("field", ["Fp 32003", "Q"])
def test_local_radical_matches_the_trace_form(field, monkeypatch):
    seen = []

    def capture(sa, name, radical_vectors, preferred_arrows=()):
        seen.append((sa, list(radical_vectors)))
        return None

    monkeypatch.setattr(taubound.endo, "present_structure_as_bound_quiver", capture)
    checked = 0
    for name in ("arrow_loop", "line2", "line3", "discrete2"):
        with open(corpus_path(f"{name}.alg")) as fh:
            A = parse_algebra_text(fh.read().replace("field Fp 32003", f"field {field}"))
        assert A.field.characteristic == (0 if field == "Q" else 32003)
        for node in enumerate_stt(A).nodes:
            summands = list(node.pair.summands)
            for endo in [endo_algebra([T]) for T in summands] + \
                    [endo_algebra([conjugated(T)]) for T in summands] + \
                    ([endo_algebra(summands)] if summands else []):
                seen.clear()
                quiver_presentation(endo)
                [(sa, rad)] = seen
                assert same_span(sa.field, sa.dim, rad, trace_form_radical(sa))
                checked += 1
    assert checked > 20


# ---------------------------------------------------------------------------
# Dynkin recognition


def quiver_of(n, arcs):
    return Quiver(tuple(range(1, n + 1)),
                  tuple(Arrow(f"a{i}", u, v) for i, (u, v) in enumerate(arcs)))


@pytest.mark.parametrize("n,arcs,expect", [
    (1, [], "A1"),
    (2, [], "A1 x A1"),
    (2, [(0, 1)], "A2"),
    (3, [(0, 1), (1, 2)], "A3"),
    (3, [(0, 1), (2, 1)], "A3"),            # orientation is irrelevant
    (4, [(0, 1), (1, 2), (1, 3)], "D4"),
    (5, [(0, 1), (1, 2), (3, 1), (3, 4)], "D5"),  # arms (1,1,2) at vertex 2
    (6, [(0, 2), (1, 2), (2, 3), (3, 4), (4, 5)], "D6"),
    (6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)], "E6"),
    (3, [(0, 1), (1, 2), (2, 0)], None),    # cycle
    (2, [(0, 1), (0, 1)], None),            # doubled edge
    (1, [(0, 0)], None),                    # loop
    (4, [(0, 1), (2, 3)], "A2 x A2"),
])
def test_dynkin_type(n, arcs, expect):
    assert dynkin_type(quiver_of(n, arcs)) == expect


def test_dynkin_d_and_e_families():
    # star with arms (1, 2, 2) rooted at vertex 2 -> E6 already covered;
    # check D5 and E7 arm patterns explicitly
    d5 = quiver_of(5, [(0, 2), (1, 2), (2, 3), (3, 4)])
    assert dynkin_type(d5) == "D5"
    e7 = quiver_of(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)])
    assert dynkin_type(e7) == "E7"


# ---------------------------------------------------------------------------
# derived dimension estimates


def test_registry_exact_wins(discrete2):
    est = derdim_estimate(discrete2, {"discrete2": ("exact", 5)})
    assert est == DerdimEstimate(5, "exact", "registry")


def test_rules_beat_registry_upper(discrete2):
    est = derdim_estimate(discrete2, {"discrete2": ("upper", 3)})
    assert est.value == 0 and est.provenance == "rule:semisimple"


def test_hereditary_dynkin_rule(line3):
    est = derdim_estimate(line3)
    assert est == DerdimEstimate(0, "exact", "rule:hereditary-dynkin")


def test_loewy_fallback(arrow_loop):
    est = derdim_estimate(arrow_loop)
    assert est.kind == "upper"
    assert est.value == loewy_length(arrow_loop) - 1 == 1
    assert est.provenance == "loewy-bound"


def test_registry_upper_can_sharpen_loewy(arrow_loop):
    est = derdim_estimate(arrow_loop, {"arrow_loop": ("upper", 0)})
    assert est == DerdimEstimate(0, "upper", "registry")
    est2 = derdim_estimate(arrow_loop, {"arrow_loop": ("upper", 9)})
    assert est2.provenance == "loewy-bound"


def test_estimate_json_round_trip():
    est = DerdimEstimate(2, "upper", "loewy-bound")
    assert est.to_json_dict() == {"value": 2, "kind": "upper",
                                  "provenance": "loewy-bound"}


def test_merge_estimates():
    exact1 = DerdimEstimate(1, "exact", "registry")
    upper3 = DerdimEstimate(3, "upper", "loewy-bound")
    upper2 = DerdimEstimate(2, "upper", "loewy-bound")
    assert merge_estimates(exact1, upper3) is exact1
    assert merge_estimates(upper3, exact1) is exact1
    assert merge_estimates(upper3, upper2) is upper2
    assert merge_estimates(exact1, DerdimEstimate(1, "exact", "x")) is exact1


def test_merge_conflicts_raise():
    with pytest.raises(CertificationError, match="inconsistent exact"):
        merge_estimates(DerdimEstimate(1, "exact", "a"),
                        DerdimEstimate(2, "exact", "b"))
    with pytest.raises(CertificationError, match="below exact"):
        merge_estimates(DerdimEstimate(3, "exact", "a"),
                        DerdimEstimate(1, "upper", "b"))
