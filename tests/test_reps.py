"""Representation layer: projectives/simples/injectives, hom spaces,
kernels, covers, presentations, Ext^1, annihilators.

Expected dimension vectors below are hand counts of paths in the corpus
quivers (e.g. over arrow_loop the basis is e_1, e_2, alpha, beta, so
P(1) ~ (1,1) and P(2) ~ (0,2)).
"""

import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from conftest import corpus_path, perfbench_algebras
from taubound import InputError, parse_algebra_text
from taubound.algebra import factor_algebra, loewy_length, radical
from taubound.reps import (_layer_walk, acts_nilpotently, annihilator, cokernel, direct_sum,
                           ext1_dim, global_dimension, hom_basis, hom_dim,
                           identity_map, injective_rep,
                           is_faithful, kernel,
                           minimal_presentation, projective,
                           projective_cover, projective_dimension,
                           restrict_to_quotient, simple, zero_map, zero_rep)


def regular_module(A):
    return direct_sum(A, [projective(A, v) for v in range(A.n_vertices)]).rep


# ---------------------------------------------------------------------------
# the standard modules


def test_projectives_and_simples(arrow_loop):
    A = arrow_loop
    assert projective(A, 0).dims == (1, 1)
    assert projective(A, 1).dims == (0, 2)
    assert simple(A, 0).dims == (1, 0)
    assert simple(A, 1).dims == (0, 1)


def test_injectives(arrow_loop):
    A = arrow_loop
    assert injective_rep(A, 0).dims == (1, 0)
    assert injective_rep(A, 1).dims == (1, 2)


def test_line3_projectives(line3):
    A = line3
    assert [projective(A, v).dims for v in range(3)] == [
        (1, 1, 1), (0, 1, 1), (0, 0, 1)]
    assert [injective_rep(A, v).dims for v in range(3)] == [
        (1, 0, 0), (1, 1, 0), (1, 1, 1)]


def test_zero_rep(arrow_loop):
    Z = zero_rep(arrow_loop)
    assert Z.dims == (0, 0) and Z.dim_total == 0
    assert not Z.is_sincere()


def test_sincerity(arrow_loop):
    assert projective(arrow_loop, 0).is_sincere()
    assert not projective(arrow_loop, 1).is_sincere()


def test_direct_sum_rejects_a_summand_over_another_algebra(line2, line3):
    with pytest.raises(InputError, match="summand over line3, not line2"):
        direct_sum(line2, [projective(line2, 0), projective(line3, 0)])


# ---------------------------------------------------------------------------
# hom spaces


def corpus_indecomposables(A):
    """P's and S's, deduplicated by dimension vector -- enough variety for
    the hom/ext sanity checks below."""
    seen, out = set(), []
    for v in range(A.n_vertices):
        for M in (projective(A, v), simple(A, v)):
            if M.dims not in seen:
                seen.add(M.dims)
                out.append(M)
    return out


def test_yoneda_dimension_identity(corpus_algebras):
    # Hom(P(v), M) has the dimension of M at v
    for A in corpus_algebras.values():
        for v in range(A.n_vertices):
            P = projective(A, v)
            for M in corpus_indecomposables(A):
                assert hom_dim(P, M) == M.dims[v]


def test_hom_frozen_values(arrow_loop):
    A = arrow_loop
    P1, P2 = projective(A, 0), projective(A, 1)
    S1, S2 = simple(A, 0), simple(A, 1)
    assert hom_dim(P1, P1) == 1
    assert hom_dim(P2, P2) == 2      # e_2 and beta both act
    assert hom_dim(P1, P2) == 0
    assert hom_dim(P2, P1) == 1      # ~ dim P1 at vertex 2
    assert hom_dim(S1, S2) == 0 and hom_dim(S2, S1) == 0


def test_hom_basis_maps_commute(arrow_loop):
    A = arrow_loop
    P2 = projective(A, 1)
    for f in hom_basis(P2, P2):
        for ai in range(len(A.quiver.arrows)):
            arr = A.quiver.arrows[ai]
            left = P2.maps[ai].mul(f.blocks[arr.source])
            right = f.blocks[arr.target].mul(P2.maps[ai])
            assert left == right


# the child builds S(1) -> P(1) over 1 -> 2 from blocks that do not commute
# with the arrow, then blocks of the wrong shape, and prints each refusal
CHECK_CHILD = r"""
import sys
from taubound import CertificationError, parse_algebra_file
from taubound.linalg import Mat
from taubound.reps import ModMap, projective, simple
assert not __debug__
A = parse_algebra_file(sys.argv[1])
S, P = simple(A, 0), projective(A, 0)
for blocks in ([Mat.identity(A.field, 1), Mat.zeros(A.field, 1, 0)],
               [Mat.identity(A.field, 1), Mat.zeros(A.field, 0, 0)]):
    try:
        ModMap(S, P, blocks, check=True)
    except CertificationError as err:
        print("refused:", err)
"""


def test_checked_map_certificate_survives_optimisation():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-c", CHECK_CHILD,
                           corpus_path("line2.alg")], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "refused: module map: does not commute with arrow a",
        "refused: module map: block at vertex 2 has the wrong shape"]


# ---------------------------------------------------------------------------
# kernels, cokernels, covers


def test_kernel_of_cover_of_simple(arrow_loop):
    A = arrow_loop
    cov = projective_cover(simple(A, 0))
    assert cov.vertices == (0,)
    K, incl = kernel(cov.epi)
    assert K.dims == (0, 1)          # rad P(1) ~ S(2)
    assert incl.compose(zero_map(K, K)).is_zero()


def test_cover_of_module_with_two_generators(line2):
    A = line2
    M = direct_sum(A, [simple(A, 0), projective(A, 1)]).rep
    cov = projective_cover(M)
    assert sorted(cov.vertices) == [0, 1]


def test_kernel_cokernel_exactness(arrow_loop):
    A = arrow_loop
    P2 = projective(A, 1)
    S2 = simple(A, 1)
    cov = projective_cover(S2)
    K, incl = kernel(cov.epi)
    C, proj = cokernel(incl)
    # dims add up vertexwise on both sides
    for v in range(A.n_vertices):
        assert K.dims[v] + S2.dims[v] == P2.dims[v]
        assert C.dims[v] == P2.dims[v] - K.dims[v]


def test_minimal_presentation_of_simple(arrow_loop):
    A = arrow_loop
    pres = minimal_presentation(simple(A, 0))
    assert pres.p0_vertices == (0,)
    assert pres.p1_vertices == (1,)
    # the single presentation entry is the arrow alpha itself
    alpha_vec = A.unit_vec(A.arrow_basis_index[0])
    assert pres.amatrix == ((alpha_vec,),)


def test_presentation_composes_to_zero(corpus_algebras):
    for A in corpus_algebras.values():
        for M in corpus_indecomposables(A):
            pres = minimal_presentation(M)
            assert pres.d0.compose(pres.d1).is_zero()


# ---------------------------------------------------------------------------
# homological invariants


def test_projective_dimensions(line2, arrow_loop):
    assert projective_dimension(projective(line2, 0)) == 0
    assert projective_dimension(simple(line2, 0)) == 1
    assert projective_dimension(zero_rep(line2)) == 0
    # S(2) over the loop algebra resolves periodically and never stops
    assert projective_dimension(simple(arrow_loop, 1), cap=8) is None


def test_global_dimensions(line2, line3, discrete2, arrow_loop):
    assert global_dimension(line2) == 1
    assert global_dimension(line3) == 1
    assert global_dimension(discrete2) == 0
    assert global_dimension(arrow_loop, cap=8) is None


def test_ext1_frozen_values(line2, arrow_loop):
    T = direct_sum(line2, [projective(line2, 0), simple(line2, 0)]).rep
    assert ext1_dim(T, T) == 0
    assert ext1_dim(simple(line2, 0), simple(line2, 1)) == 1
    assert ext1_dim(simple(arrow_loop, 1), simple(arrow_loop, 1)) == 1


def test_ext1_vanishes_on_projectives(corpus_algebras):
    for A in corpus_algebras.values():
        reg = regular_module(A)
        for v in range(A.n_vertices):
            assert ext1_dim(projective(A, v), reg) == 0


# ---------------------------------------------------------------------------
# annihilators and quotient transport


def test_annihilator_frozen(arrow_loop):
    A = arrow_loop
    M = direct_sum(A, [projective(A, 0), simple(A, 0)]).rep
    ann = annihilator(M)
    assert ann.dim == 1
    beta = A.unit_vec(A.arrow_basis_index[1])
    assert ann.contains(beta)
    assert ann.nilpotency_index() == 2


def test_regular_module_is_faithful(corpus_algebras):
    for A in corpus_algebras.values():
        assert is_faithful(regular_module(A))
        assert annihilator(regular_module(A)).dim == 0


def test_simple_annihilator_is_large(arrow_loop):
    A = arrow_loop
    ann = annihilator(simple(A, 0))
    assert ann.dim == A.dim - 1      # everything except e_1 acts as zero


def test_restrict_to_semisimple_quotient(arrow_loop):
    A = arrow_loop
    B = factor_algebra(A, radical(A))
    M = simple(A, 0)
    MB = restrict_to_quotient(M, B)
    assert MB.dims == (1, 0)


# ---------------------------------------------------------------------------
# properties


@given(st.integers(0, 1), st.integers(0, 1))
def test_hom_additivity(u, v):
    from conftest import corpus_path
    from taubound.parsing import parse_algebra_file
    A = parse_algebra_file(corpus_path("arrow_loop.alg"))
    M, N = projective(A, u), simple(A, v)
    ds = direct_sum(A, [M, N]).rep
    for X in (projective(A, 0), projective(A, 1)):
        assert hom_dim(X, ds) == hom_dim(X, M) + hom_dim(X, N)
        assert hom_dim(ds, X) == hom_dim(M, X) + hom_dim(N, X)


def test_ext1_additivity(line3):
    A = line3
    mods = corpus_indecomposables(A)
    for M, N in itertools.product(mods[:4], repeat=2):
        ds = direct_sum(A, [M, M]).rep
        assert ext1_dim(ds, N) == 2 * ext1_dim(M, N)


# ---------------------------------------------------------------------------
# nilpotency of a set of endomorphisms, by the action on the module


def test_acts_nilpotently_accepts_the_radical_of_the_regular_module(line3):
    # End(A_A) = A; for the A3 line the radical is spanned by the maps
    # P(w) -> P(v) with v != w, the left multiplications by arrows and paths
    A = line3
    ds = direct_sum(A, [projective(A, v) for v in range(3)])
    arrows = [ds.inclusions[v].compose(h).compose(ds.projections[w])
              for v in range(3) for w in range(3) if v != w
              for h in hom_basis(projective(A, w), projective(A, v))]
    assert len(arrows) == 3
    assert acts_nilpotently(ds.rep, arrows)
    assert acts_nilpotently(ds.rep, [])
    e1 = ds.inclusions[0].compose(ds.projections[0])
    assert not acts_nilpotently(ds.rep, arrows + [e1])


def test_acts_nilpotently_refuses_the_identity_and_a_non_nilpotent_pair(line2):
    A = line2
    S = simple(A, 0)
    assert not acts_nilpotently(S, [identity_map(S)])
    # on S + S the two matrix units E12 and E21 are each nilpotent, but
    # E12 E21 = E11 is an idempotent: the algebra they generate is not
    ds = direct_sum(A, [S, S])
    e12 = ds.inclusions[0].compose(ds.projections[1])
    e21 = ds.inclusions[1].compose(ds.projections[0])
    assert acts_nilpotently(ds.rep, [e12])
    assert not acts_nilpotently(ds.rep, [e12, e21])


def test_the_layer_walk_along_the_arrows_gives_the_loewy_length(corpus_algebras):
    # A_A pushed along the arrows k times is A rad^k, so the walk stops
    # after LL(A) pushes; loewy_length reads the chain of radical powers
    bench = perfbench_algebras()
    algebras = list(corpus_algebras.values()) + [
        parse_algebra_text(text) for _, text, _ in bench.LADDER_FP + bench.LADDER_Q]
    for A in algebras:
        M = regular_module(A)
        moves = [(a.source, a.target, m) for a, m in zip(A.quiver.arrows, M.maps)]
        assert _layer_walk(M, moves) == loewy_length(A), A.name
    # a move that keeps the space stalls the walk
    S = simple(corpus_algebras["line2"], 0)
    assert _layer_walk(S, [(0, 0, identity_map(S).blocks[0])]) is None
