"""The translate tau, rigidity, and support pair validation.

The hereditary corpus algebras double as an independent oracle: there the
dimension vector of tau(M) for non-projective indecomposable M is the
Coxeter transform -C^T C^{-1} of dim M (columns of C = dims of the
indecomposable projectives), which we compute separately over Q.
"""

import os

import pytest

from taubound import InputError, QQ, parse_algebra_text, parse_module_file
from taubound.algebra import delete_vertices
from taubound.decompose import decompose
from taubound.linalg import Mat, inverse
from taubound.mutation import enumerate_stt
from taubound.reps import (Rep, direct_sum, hom_dim, injective_rep, is_faithful,
                           projective, restrict_to_quotient, simple, zero_rep)
from taubound.tau import (SttPair, classify_pair, hom_to_tau, is_tau_rigid,
                          tau, tau_data, validate_stt_pair)
from conftest import perfbench_algebras


# ---------------------------------------------------------------------------
# frozen translates over the loop corpus algebra


def test_tau_of_projectives_is_zero(corpus_algebras):
    for A in corpus_algebras.values():
        for v in range(A.n_vertices):
            assert tau(projective(A, v)).dim_total == 0


def test_tau_of_first_simple(arrow_loop):
    A = arrow_loop
    t = tau(simple(A, 0))
    assert t.dims == (0, 2)
    from taubound.decompose import iso_test
    assert iso_test(t, projective(A, 1)).isomorphic


def test_tau_of_loop_simple_not_rigid(arrow_loop):
    A = arrow_loop
    S2 = simple(A, 1)
    assert tau(S2).dims == (1, 1)
    assert hom_to_tau(S2) > 0
    assert not is_tau_rigid(S2)


def test_rigid_summands(arrow_loop):
    A = arrow_loop
    assert is_tau_rigid(projective(A, 0))
    assert is_tau_rigid(projective(A, 1))
    assert is_tau_rigid(simple(A, 0))
    assert is_tau_rigid(zero_rep(A))
    both = direct_sum(A, [projective(A, 0), simple(A, 0)]).rep
    assert is_tau_rigid(both)


def test_tau_data_presentation_shapes(arrow_loop):
    td = tau_data(simple(arrow_loop, 0))
    assert td.tau.dims == (0, 2)


def test_tau_additivity(line3):
    A = line3
    M = simple(A, 0)
    N = simple(A, 1)
    ds = direct_sum(A, [M, N]).rep
    t_ds = tau(ds)
    assert t_ds.dims == tuple(a + b
                              for a, b in zip(tau(M).dims, tau(N).dims))


LINE4 = ("algebra line4\nfield Fp 32003\nvertices 1 2 3 4\n"
         "arrow a1: 1 -> 2\narrow a2: 2 -> 3\narrow a3: 3 -> 4\n")

KRONECKER = ("algebra kronecker\nfield Fp 32003\nvertices 1 2\n"
             "arrow a: 1 -> 2\narrow b: 1 -> 2\n")


def test_hom_to_tau_of_a_sum_is_the_sum_of_its_blocks(corpus_algebras, arrow_loop):
    # tau and Hom commute with finite direct sums, which is what lets
    # mutate_down certify a new summand by its own blocks against the
    # memoised translates of the others
    cases = []
    for A in list(corpus_algebras.values()) + [parse_algebra_text(LINE4)]:
        cases += [node.pair.summands for node in enumerate_stt(A).nodes
                  if node.pair.summands]
    A = arrow_loop
    loop_simple = parse_module_file(
        os.path.join(os.path.dirname(__file__), os.pardir, "corpus", "radsquare.mod"), A)
    cases.append((loop_simple, projective(A, 0), simple(A, 0)))
    K = parse_algebra_text(KRONECKER)
    one, zero = K.field.one, K.field.zero
    regular = Rep(K, (1, 1), (Mat.from_rows(K.field, [[one]]),
                              Mat.from_rows(K.field, [[zero]])))
    cases.append((regular, simple(K, 0), projective(K, 1)))
    defects = []
    for summands in cases:
        B = summands[0].algebra
        whole = hom_to_tau(direct_sum(B, list(summands)).rep)
        assert whole == sum(hom_dim(X, tau(Y)) for X in summands for Y in summands)
        defects.append(whole)
    assert defects[-1] > 0 and defects[-2] > 0
    assert defects.count(0) == len(defects) - 2


# ---------------------------------------------------------------------------
# Coxeter oracle on the hereditary corpus algebras


def coxeter_matrix(A):
    cols = [projective(A, v).dims for v in range(A.n_vertices)]
    n = A.n_vertices
    C = Mat.from_rows(QQ, [[cols[j][i] for j in range(n)] for i in range(n)])
    Cinv = inverse(C)
    CT = C.transpose()
    return CT.mul(Cinv).neg()


def interval_module(A, lo, hi):
    """The indecomposable over a linear A_n quiver supported on [lo, hi]."""
    dims = tuple(1 if lo <= v <= hi else 0 for v in range(A.n_vertices))
    maps = []
    for arr in A.quiver.arrows:
        if dims[arr.source] and dims[arr.target]:
            maps.append(Mat.from_rows(A.field, [[1]]))
        else:
            maps.append(Mat.zeros(A.field, dims[arr.target], dims[arr.source]))
    return Rep(A, dims, tuple(maps))


def test_coxeter_cross_check(line2, line3):
    for A in (line2, line3):
        phi = coxeter_matrix(A)
        n = A.n_vertices
        proj_dims = {projective(A, v).dims for v in range(n)}
        for lo in range(n):
            for hi in range(lo, n):
                M = interval_module(A, lo, hi)
                expected = phi.apply(tuple(map(QQ.of_int, M.dims)))
                if M.dims in proj_dims:
                    assert tau(M).dim_total == 0
                else:
                    assert tuple(expected) == tuple(
                        map(QQ.of_int, tau(M).dims))


# ---------------------------------------------------------------------------
# support pair validation


def test_validate_root_pair(arrow_loop):
    A = arrow_loop
    res = validate_stt_pair(A, [projective(A, 0), projective(A, 1)], [])
    assert res.ok and res.status == "valid-stt"
    assert res.summand_classes == 2 == res.expected_classes


@pytest.fixture(scope="module")
def node_graphs(corpus_algebras):
    """The exchange graphs of the corpus and perfbench ladder algebras."""
    bench = perfbench_algebras()
    algebras = list(corpus_algebras.values()) + [
        parse_algebra_text(text) for _, text, _ in bench.LADDER_FP + bench.LADDER_Q]
    return [enumerate_stt(A) for A in algebras]


@pytest.fixture(scope="module")
def perturbed_pairs(node_graphs):
    """(algebra, summands, support) near every node: the node itself, the
    node minus one summand, plus a repeated summand, and plus one extra
    simple, projective or injective, each with the node's support and with
    the largest support the module allows.  The slot and the vertex rotate
    with the node index."""
    pairs = []
    for graph in node_graphs:
        A, n = graph.algebra, graph.algebra.n_vertices
        for i, node in enumerate(graph.nodes):
            base, v = list(node.pair.summands), i % n
            candidates = [base]
            if base:
                k = i % len(base)
                candidates += [base[:k] + base[k + 1:], base + [base[k]]]
            candidates += [base + [m] for m in (simple(A, v), projective(A, v),
                                                injective_rep(A, v))]
            for summands in candidates:
                largest = tuple(w for w in range(n) if all(s.dims[w] == 0 for s in summands))
                for support in dict.fromkeys((node.pair.support, largest)):
                    pairs.append((A, summands, support))
    return pairs


def _over_the_support_algebra(A, summands, support):
    """The validation as it was before it moved to A: restrict the direct
    sum to A/<e>, then decompose it.  Returns (status, summand classes)."""
    expected = A.n_vertices - len(support)
    M = direct_sum(A, summands).rep if summands else zero_rep(A)
    if any(M.dims[v] for v in support):
        return "invalid", 0
    if expected == 0:
        return "valid-stt", 0
    B = delete_vertices(A, [A.quiver.vertices[v] for v in support])
    MB = restrict_to_quotient(M, B)
    if MB.dim_total and hom_to_tau(MB):
        return "invalid", 0
    if M.dim_total == 0:
        return "tau-rigid-only", 0
    dec = decompose(MB)
    classes = len(dec.class_reps)
    if max(dec.multiplicities) > 1 or classes < expected:
        return "tau-rigid-only", classes
    return "valid-stt", classes


def test_validation_over_a_agrees_with_the_support_algebra(perturbed_pairs):
    statuses = []
    for A, summands, support in perturbed_pairs:
        val = validate_stt_pair(A, summands, support)
        reference = _over_the_support_algebra(A, summands, support)
        assert (val.status, val.summand_classes) == reference, \
            (A.name, [s.dims for s in summands], support)
        statuses.append(val.status)
    assert len(statuses) > 1000
    assert statuses.count("valid-stt") > 250
    assert statuses.count("tau-rigid-only") > 400
    assert statuses.count("invalid") > 350


def test_tau_rigidity_over_the_support_algebra_lifts_to_a(perturbed_pairs):
    # AIR Lemma 2.1(b): for a module vanishing at the vertices e, tau-rigidity
    # over A/<e> and over A agree; validation and mutate_down test it over A
    rigid = non_rigid = 0
    for A, summands, support in perturbed_pairs:
        M = direct_sum(A, summands).rep if summands else zero_rep(A)
        if not support or M.dim_total == 0 or any(M.dims[v] for v in support):
            continue
        B = delete_vertices(A, [A.quiver.vertices[v] for v in support])
        over_a = hom_to_tau(M) == 0
        assert over_a == (hom_to_tau(restrict_to_quotient(M, B)) == 0), \
            (A.name, M.dims, support)
        rigid, non_rigid = rigid + over_a, non_rigid + (not over_a)
    assert rigid >= 300 and non_rigid >= 50


def test_tilting_exactly_when_faithful(node_graphs):
    # the classification reads pd <= 1 off each summand's presentation; a
    # tau-tilting module is tilting exactly when it is faithful (AIR Prop. 2.2)
    line5 = parse_algebra_text(perfbench_algebras().line_text("line5", 5, "Fp 32003"))
    sincere = []
    for graph in node_graphs + [enumerate_stt(line5)]:
        for node in graph.nodes:
            if node.classification in ("tilting", "tau-tilting-not-tilting"):
                assert (node.classification == "tilting") == \
                    is_faithful(node.pair.module()), (graph.algebra.name, node.key)
                sincere.append(node.classification)
    assert sincere.count("tilting") >= 70
    assert sincere.count("tau-tilting-not-tilting") >= 30


def test_validate_rigid_but_not_complete(arrow_loop):
    A = arrow_loop
    res = validate_stt_pair(A, [projective(A, 0)], [])
    assert res.status == "tau-rigid-only"
    assert not res.ok
    assert res.summand_classes == 1 and res.expected_classes == 2


def test_validate_proper_support(arrow_loop):
    A = arrow_loop
    res = validate_stt_pair(A, [simple(A, 0)], [1])
    assert res.ok
    assert res.expected_classes == 1


def test_validate_zero_pair(arrow_loop):
    res = validate_stt_pair(arrow_loop, [], [0, 1])
    assert res.ok


def test_validate_rejects_non_rigid(arrow_loop):
    A = arrow_loop
    res = validate_stt_pair(A, [simple(A, 1), projective(A, 1)], [0])
    assert res.status == "invalid"
    assert any("Hom(M, tau M)" in r for r in res.reasons)


def test_validate_flags_repeated_summand(arrow_loop):
    A = arrow_loop
    res = validate_stt_pair(A, [projective(A, 0), projective(A, 0)], [])
    assert res.status == "tau-rigid-only"
    assert any("not basic" in r for r in res.reasons)


def test_validate_rejects_zero_summand(arrow_loop):
    A = arrow_loop
    res = validate_stt_pair(A, [zero_rep(A)], [0])
    assert res.status == "invalid"
    assert "zero module" in res.reasons[0]


def test_validate_rejects_unsupported_module(arrow_loop):
    A = arrow_loop
    # P(1) lives on both vertices, so deleting vertex 2 cannot carry it
    res = validate_stt_pair(A, [projective(A, 0)], [1])
    assert res.status == "invalid"


def test_support_index_out_of_range(arrow_loop):
    with pytest.raises(InputError, match="out of range"):
        validate_stt_pair(arrow_loop, [], [5])


# ---------------------------------------------------------------------------
# classification


def test_classify_all_kinds(arrow_loop):
    A = arrow_loop
    P1, P2, S1 = projective(A, 0), projective(A, 1), simple(A, 0)
    assert classify_pair(A, [P1, P2], []) == "tilting"
    assert classify_pair(A, [P1, S1], []) == "tau-tilting-not-tilting"
    assert classify_pair(A, [P2], [0]) == "proper-support"
    assert classify_pair(A, [], [0, 1]) == "zero"


def test_classify_rejects_invalid(arrow_loop):
    A = arrow_loop
    with pytest.raises(InputError, match="not a support tau-tilting pair"):
        classify_pair(A, [projective(A, 0)], [])


def test_stt_pair_helpers(arrow_loop):
    A = arrow_loop
    pair = SttPair(A, (projective(A, 1),), (0,))
    assert pair.module().dims == (0, 2)
    assert pair.support_labels() == (1,)
    empty = SttPair(A, (), (0, 1))
    assert empty.module().dim_total == 0
