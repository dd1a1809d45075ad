"""Krull-Schmidt machinery: splitting direct sums into indecomposables
and certifying isomorphism.
"""

import hashlib
import importlib
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from taubound import CertificationError
from taubound.algebra import Arrow, Quiver, construct_algebra
from taubound.decompose import _splitting_idempotent, decompose, iso_test
from taubound.fields import QQ, PrimeField
from taubound.linalg import Mat, inverse, is_invertible
from taubound.linalg import rank as mat_rank
from taubound.parsing import parse_algebra_text
from taubound.reps import (ModMap, Rep, direct_sum, injective_rep, projective, simple,
                           zero_rep)
from taubound.tau import tau
from conftest import perfbench_algebras


def test_decompose_two_summands(arrow_loop):
    A = arrow_loop
    M = direct_sum(A, [projective(A, 0), simple(A, 0)]).rep
    dec = decompose(M)
    assert len(dec.leaves) == 2
    assert dec.multiplicities == (1, 1)
    assert sorted(r.dims for r in dec.class_reps) == [(1, 0), (1, 1)]


def test_decompose_respects_multiplicity(line2):
    A = line2
    M = direct_sum(A, [simple(A, 0)] * 3 + [projective(A, 0)]).rep
    dec = decompose(M)
    assert max(dec.multiplicities) > 1
    counts = dict(zip((r.dims for r in dec.class_reps), dec.multiplicities))
    assert counts == {(1, 0): 3, (1, 1): 1}


def test_indecomposable_with_local_but_nontrivial_end(arrow_loop):
    # End(P(2)) = K[beta]/(beta^2) is local of dimension 2: the splitter
    # must not be fooled by the nilpotent part
    dec = decompose(projective(arrow_loop, 1))
    assert len(dec.leaves) == 1
    assert dec.class_reps[0].dims == (0, 2)


def test_decompose_zero(arrow_loop):
    dec = decompose(zero_rep(arrow_loop))
    assert len(dec.leaves) == 0
    assert dec.class_reps == ()
    assert dec.multiplicities == ()


def test_krull_schmidt_additivity(corpus_algebras):
    for A in corpus_algebras.values():
        sums = [projective(A, v) for v in range(A.n_vertices)]
        sums += [simple(A, v) for v in range(A.n_vertices)]
        M = direct_sum(A, sums).rep
        dec = decompose(M)
        assert len(dec.leaves) == len(sums)
        assert sum(r.dim_total * m
                   for r, m in zip(dec.class_reps, dec.multiplicities)) \
            == M.dim_total


def test_small_field_splits_a_power_of_a_simple():
    # End(S(1)^3) is the 9-dimensional matrix algebra over F_2: no trace
    # form is needed, the splitting works in characteristic 2
    F2 = PrimeField(2)
    q = Quiver((1, 2), (Arrow("a", 0, 1),))
    A = construct_algebra("tiny", F2, q)
    dec = decompose(direct_sum(A, [simple(A, 0)] * 3).rep)
    assert len(dec.leaves) == 3
    assert [r.dims for r in dec.class_reps] == [(1, 0)]
    assert dec.multiplicities == (3,)


def test_eigenvalues_alone_do_not_certify_a_local_end(line2):
    # End(S + S) is the 2x2 matrix algebra.  In the basis I, E12, E21 and
    # N = [[1, 1], [-1, -1]] every element is a scalar plus a nilpotent, but
    # E12 and E21 generate a non-nilpotent algebra, so S + S must still split
    A = line2
    F = A.field
    ds = direct_sum(A, [simple(A, 0)] * 2)
    unit = {(i, j): ds.inclusions[i].compose(ds.projections[j])
            for i in range(2) for j in range(2)}
    minus = F.neg(F.one)
    basis = [unit[0, 0].add(unit[1, 1]), unit[0, 1], unit[1, 0],
             unit[0, 0].add(unit[0, 1]).add(unit[1, 0].scale(minus))
             .add(unit[1, 1].scale(minus))]
    e = _splitting_idempotent(ds.rep, basis, random.Random(0))
    assert e is not None and e.compose(e) == e
    assert not e.is_zero() and e != unit[0, 0].add(unit[1, 1])


def test_non_split_endomorphism_ring_is_certification_error():
    # over F_3 the Kronecker module with the companion matrix of x^2 + 1 is
    # indecomposable with End = F_9: local, but not with residue field F_3
    F3 = PrimeField(3)
    q = Quiver((1, 2), (Arrow("a", 0, 1), Arrow("b", 0, 1)))
    A = construct_algebra("kron", F3, q)
    M = Rep(A, (2, 2), (Mat.identity(F3, 2),
                        Mat.from_rows(F3, [[0, 2], [1, 0]])))
    with pytest.raises(CertificationError, match="non-split"):
        decompose(M)


# ---------------------------------------------------------------------------
# splitting one endomorphism by its minimal polynomial

_D = importlib.import_module("taubound.decompose")


def _companion(field, monic):
    """The endomorphism of k^n, at a single vertex, by the companion matrix
    of the monic polynomial ``monic`` (integer or Fraction coefficients,
    low -> high): its minimal polynomial is exactly that polynomial."""
    c = [field.of_fraction(x.numerator, x.denominator) if isinstance(x, Fraction)
         else field.of_int(x) for x in monic[:-1]]
    n = len(c)
    A = construct_algebra("point", field, Quiver((1,), ()))
    M = Rep(A, (n,), ())
    rows = [[field.one if i == j + 1 else field.zero for j in range(n - 1)]
            + [field.neg(c[i])] for i in range(n)]
    return ModMap(M, M, [Mat.from_rows(field, rows)])


def _assert_splits(b, rank):
    e, lam = _D._eigen_split(b)
    assert lam is None and e is not None
    assert e.compose(e) == e and e.compose(b) == b.compose(e)
    assert sum(mat_rank(blk) for blk in e.blocks) == rank


def test_eigen_split_a_singular_part_first_over_f2():
    # t^2 (t + 1): the generalized kernel of b, of dimension 2, splits off
    _assert_splits(_companion(PrimeField(2), [0, 0, 1, 1]), 2)
    # t (t + 1)^2 = t^3 + t: here (t + 1)^2 alone would look like case (b)
    _assert_splits(_companion(PrimeField(2), [0, 1, 0, 1]), 1)


@pytest.mark.parametrize("p, monic, lam", [
    (2, [1, 0, 1], 1),                    # (t + 1)^2, p | m
    (2, [1, 0, 0, 0, 1], 1),              # (t + 1)^4
    (2, [1, 0, 1, 0, 1, 0, 1], 1),        # (t + 1)^6 = (t^2 + 1)^3
    (3, [1, 0, 0, 1], 2),                 # (t - 2)^3 = t^3 + 1 over F_3
    (3, [1, 0, 0, 1, 0, 0, 1], 1),        # (t - 1)^6 = (t^3 - 1)^2
    (32003, [25, -10, 1], 5),             # (t - 5)^2
    (7, [0, 0, 0, 1], 0),                 # t^3
])
def test_eigen_split_reads_one_eigenvalue(p, monic, lam):
    assert _D._eigen_split(_companion(PrimeField(p), monic)) == (None, lam)


def test_eigen_split_one_eigenvalue_over_q():
    assert _D._eigen_split(_companion(QQ, [Fraction(9, 4), -3, 1])) \
        == (None, Fraction(3, 2))


def test_eigen_split_finds_a_root_over_fp():
    # (t - 3)(t^2 + 1) over F_7, where t^2 + 1 is irreducible
    _assert_splits(_companion(PrimeField(7), [-3, 1, -3, 1]), 1)
    # (t - 1)(t - 2)(t - 3)(t^2 + 1) over F_7: three roots to separate
    _assert_splits(_companion(PrimeField(7), [-6, 11, -12, 12, -6, 1]), 1)
    # (t - 3)^2 (t^2 + 1) over F_32003
    _assert_splits(_companion(PrimeField(32003), [9, -6, 10, -6, 1]), 2)


def test_eigen_split_finds_a_rational_root():
    # (t - 3/2)(t^2 + 1)
    h = Fraction(3, 2)
    _assert_splits(_companion(QQ, [-h, 1, -h, 1]), 1)


@pytest.mark.parametrize("field, monic", [
    (QQ, [1, 0, 1]),                      # t^2 + 1
    (PrimeField(3), [1, 0, 1]),           # t^2 + 1, irreducible over F_3
    (QQ, [2, 0, 3, 0, 1]),                # (t^2 + 1)(t^2 + 2): no root in Q
])
def test_eigen_split_without_a_root_in_k_settles_nothing(field, monic):
    assert _D._eigen_split(_companion(field, monic)) == (None, None)


def test_eigen_split_with_a_huge_constant_term_returns_quickly():
    big = 10 ** 40 + 1
    t0 = time.perf_counter()
    # t^2 + t + big has no rational root; (t - 1)(t - big) has the root 1
    assert _D._eigen_split(_companion(QQ, [big, 1, 1])) == (None, None)
    _assert_splits(_companion(QQ, [big, -(big + 1), 1]), 1)
    assert time.perf_counter() - t0 < 1.0


def test_a_corrupted_crt_cofactor_is_a_certification_error(monkeypatch, line2):
    real = _D._pgcdex

    def corrupted(F, f, g):
        u, h = real(F, f, g)
        return _D._psub(F, u, [F.one]), h

    monkeypatch.setattr(_D, "_pgcdex", corrupted)
    M = direct_sum(line2, [simple(line2, 0), simple(line2, 1)]).rep
    with pytest.raises(CertificationError, match="decompose: CRT split"):
        decompose(M)


# ---------------------------------------------------------------------------
# isomorphism testing


def test_iso_reflexive(arrow_loop):
    P = projective(arrow_loop, 1)
    res = iso_test(P, P)
    assert res.isomorphic and res.certificate is not None


def test_iso_dims_refute(arrow_loop):
    res = iso_test(projective(arrow_loop, 0), projective(arrow_loop, 1))
    assert not res.isomorphic
    assert "dimension vectors differ" in res.detail


def test_iso_agrees_on_hand_rolled_copy(line3):
    A = line3
    M = direct_sum(A, [simple(A, 0), simple(A, 2)]).rep
    dims = (1, 0, 1)
    N = Rep(A, dims, tuple(
        Mat.zeros(A.field, dims[a.target], dims[a.source])
        for a in A.quiver.arrows))
    assert iso_test(M, N).isomorphic


def test_iso_detects_conjugated_copy(arrow_loop):
    A = arrow_loop
    F = A.field
    P = projective(A, 1)             # dims (0, 2), beta = [[0,0],[1,0]]
    g = Mat.from_rows(F, [[1, 2], [0, 1]])
    ginv = inverse(g)
    twisted = Rep(A, P.dims,
                  (P.maps[0], g.mul(P.maps[1]).mul(ginv)))
    res = iso_test(P, twisted)
    assert res.isomorphic
    cert = res.certificate
    assert cert is not None
    # the certificate really intertwines the actions
    for ai, arr in enumerate(A.quiver.arrows):
        lhs = twisted.maps[ai].mul(cert.blocks[arr.source])
        rhs = cert.blocks[arr.target].mul(P.maps[ai])
        assert lhs == rhs


def test_iso_symmetric_and_deterministic(arrow_loop):
    A = arrow_loop
    M = direct_sum(A, [simple(A, 1), projective(A, 0)]).rep
    N = direct_sum(A, [projective(A, 0), simple(A, 1)]).rep
    r1, r2 = iso_test(M, N), iso_test(N, M)
    assert r1.isomorphic and r2.isomorphic
    again = iso_test(M, N)
    assert again.detail == r1.detail


def test_nonisomorphic_same_fingerprint_modules_split_apart(line2):
    A = line2
    # P(1) vs S(1)+S(2): same total dimension, different structure
    M = projective(A, 0)
    N = direct_sum(A, [simple(A, 0), simple(A, 1)]).rep
    assert M.dims == N.dims
    res = iso_test(M, N)
    assert not res.isomorphic


# The self-injective Nakayama algebra with three vertices and every path of
# length 3 zero: its three projectives all have dimension vector (1,1,1).
NAKAYAMA3 = """algebra nakayama3
field Fp 32003
vertices 1 2 3
arrow c1: 1 -> 2
arrow c2: 2 -> 3
arrow c3: 3 -> 1
relations
  c1*c2*c3
  c2*c3*c1
  c3*c1*c2
end
"""


@pytest.fixture(scope="module")
def nakayama3():
    return parse_algebra_text(NAKAYAMA3)


def test_same_dims_indecomposables_iso_exactly_when_equal(nakayama3):
    projs = [projective(nakayama3, v) for v in range(3)]
    assert all(P.dims == (1, 1, 1) for P in projs)
    for u, v in itertools.product(range(3), repeat=2):
        assert iso_test(projs[u], projs[v]).isomorphic == (u == v)


def test_iso_refutes_an_indecomposable_with_one_decomposition(nakayama3,
                                                              monkeypatch):
    calls = []

    def counting(M, seed=0):
        calls.append(M.dims)
        return decompose(M, seed=seed)

    # the package re-exports the function under the module's name
    module = importlib.import_module("taubound.decompose")
    monkeypatch.setattr(module, "decompose", counting)
    projs = [projective(nakayama3, v) for v in range(3)]
    for u, v in itertools.permutations(range(3), 2):
        calls.clear()
        assert not iso_test(projs[u], projs[v]).isomorphic
        assert len(calls) == 1


def test_decompose_separates_same_dims_indecomposables(nakayama3):
    A = nakayama3
    M = direct_sum(A, [projective(A, 0), projective(A, 1),
                       projective(A, 0)]).rep
    dec = decompose(M)
    assert len(dec.class_reps) == 2
    assert sorted(dec.multiplicities) == [1, 2]


def test_iso_certificate_does_not_depend_on_seed(arrow_loop):
    P = projective(arrow_loop, 1)    # End(P) = K[beta]/(beta^2)
    certs = [iso_test(P, P, seed=s).certificate for s in range(4)]
    assert all(all(is_invertible(b) for b in c.blocks) for c in certs)
    assert all(c == certs[0] for c in certs[1:])


# ---------------------------------------------------------------------------
# frozen decomposition shapes


# sha256 of the shapes below: a new digest means that some sum now
# decomposes into different classes or multiplicities
SHAPES_DIGEST = "c4009c59c1d4d85005f125d4c2bf0712857ed7f1ea82acc9d7fe5c6eb92b90af"


def test_decomposition_shapes_are_frozen():
    # line4, preprojective A3, Nakayama (3,4) and Nakayama (3,3), each over
    # F_32003 and F_2: X + Y for every two of the nonzero P(v), S(v), I(v)
    # and tau S(v).  Each sum is recorded as the sorted multiset of (class
    # dims, multiplicity), so the order of the leaves may change freely.
    bench = perfbench_algebras()
    texts = [text for name, text, _ in bench.LADDER_FP + bench.LADDER_Q
             if name != "line3_q"]
    shapes = []
    for field in ("Fp 32003", "Fp 2"):
        for text in texts:
            A = parse_algebra_text(text.replace("field Fp 32003", f"field {field}")
                                   .replace("field Q", f"field {field}"))
            mods = [m for v in range(A.n_vertices)
                    for m in (projective(A, v), simple(A, v), injective_rep(A, v),
                              tau(simple(A, v)))
                    if m.dim_total]
            for X, Y in itertools.combinations(mods, 2):
                dec = decompose(direct_sum(A, [X, Y]).rep)
                shapes.append(sorted((list(r.dims), m) for r, m
                                     in zip(dec.class_reps, dec.multiplicities)))
    assert len(shapes) == 606
    assert hashlib.sha256(json.dumps(shapes).encode()).hexdigest() == SHAPES_DIGEST
