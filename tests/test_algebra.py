"""Bound quiver algebras: basis closure, ideals, quotients, Loewy data.

The frozen numbers here were produced by hand (path enumeration on a
two-vertex quiver with a looped vertex, dimension counts on linear
quivers) before the implementation existed.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from taubound import (Arrow, InputError, Quiver, canonical_json,
                      construct_algebra, delete_vertices, factor_algebra,
                      loewy_length, make_relation, radical)
from taubound.algebra import Ideal
from taubound.fields import QQ, default_prime_field

F = default_prime_field()


def _loop_algebra(relations=True, max_len=32):
    q = Quiver((1, 2), (Arrow("alpha", 0, 1), Arrow("beta", 1, 1)))
    rels = ()
    if relations:
        rels = (make_relation(F, q, [(F.one, [0, 1])]),
                make_relation(F, q, [(F.one, [1, 1])]))
    return construct_algebra("loopy", F, q, rels, max_len=max_len)


# ---------------------------------------------------------------------------
# construction


def test_arrow_loop_basis(arrow_loop):
    A = arrow_loop
    assert A.dim == 4
    assert [p.display(A.quiver) for p in A.basis] == \
        ["e_1", "e_2", "alpha", "beta"]
    assert loewy_length(A) == 2
    assert radical(A).dim == 2


def test_single_vertex_algebra_is_the_field():
    A = construct_algebra("pt", F, Quiver((1,), ()))
    assert A.dim == 1
    one = A.unit()
    assert A.mul(one, one) == one


def test_line2_basis(line2):
    assert line2.dim == 3
    assert [p.display(line2.quiver) for p in line2.basis] == ["e_1", "e_2", "a"]


def test_line3_dim(line3):
    # paths: three lazy, a, b, a*b
    assert line3.dim == 6
    assert loewy_length(line3) == 3


def test_unbounded_loop_is_rejected():
    with pytest.raises(InputError, match="not finite-dimensional within"):
        _loop_algebra(relations=False, max_len=10)


def test_lazy_relation_is_rejected():
    q = Quiver((1, 2), (Arrow("alpha", 0, 1), Arrow("beta", 1, 1)))
    with pytest.raises(InputError,
                       match="square of the arrow ideal"):
        make_relation(F, q, [(F.one, [0])])


def test_non_parallel_relation_is_rejected():
    q = Quiver((1, 2), (Arrow("alpha", 0, 1), Arrow("beta", 1, 1)))
    with pytest.raises(InputError, match="parallel"):
        make_relation(F, q, [(F.one, [0, 1]), (F.one, [1, 1])])


def test_rational_coefficients():
    q = Quiver((1, 2, 3), (Arrow("a", 0, 1), Arrow("b", 1, 2),
                           Arrow("c", 0, 1)))
    rel = make_relation(QQ, q, [(QQ.of_fraction(1, 2), [0, 1]),
                                (QQ.neg(QQ.one), [2, 1])])
    A = construct_algebra("frac", QQ, q, (rel,))
    # 3 lazy + 3 arrows + the single surviving length-2 class (a*b = 2 c*b)
    assert A.dim == 7


def test_multiplication_is_associative(arrow_loop, line3):
    for A in (arrow_loop, line3):
        one = A.unit()
        vecs = [A.unit_vec(i) for i in range(A.dim)]
        for x in vecs:
            assert A.mul(one, x) == x == A.mul(x, one)
            for y in vecs:
                for z in vecs:
                    assert A.mul(A.mul(x, y), z) == A.mul(x, A.mul(y, z))


# ---------------------------------------------------------------------------
# ideals and quotients


def test_ideal_of_loop_path(arrow_loop):
    A = arrow_loop
    beta = A.unit_vec(A.arrow_basis_index[1])
    ideal = Ideal.from_generators(A, [beta])
    assert ideal.dim == 1
    assert ideal.nilpotency_index() == 2


def test_idempotent_ideal_is_not_nilpotent(arrow_loop):
    A = arrow_loop
    ideal = Ideal.from_generators(A, [A.idempotent(1)])
    # closing up e2 under multiplication drags in alpha and beta
    assert ideal.dim == 3
    with pytest.raises(InputError, match="ideal is not nilpotent"):
        ideal.nilpotency_index()


def test_factor_by_loop_arrow(arrow_loop):
    A = arrow_loop
    beta = A.unit_vec(A.arrow_basis_index[1])
    ideal = Ideal.from_generators(A, [beta])
    B = factor_algebra(A, ideal)
    assert B.dim == A.dim - ideal.dim == 3
    assert len(B.quiver.arrows) == 1 and not B.relations


def test_factor_by_zero_ideal_is_identity(arrow_loop):
    A = arrow_loop
    assert factor_algebra(A, Ideal(A, [])) is A


def test_factor_by_radical_is_semisimple(arrow_loop):
    B = factor_algebra(arrow_loop, radical(arrow_loop))
    assert B.dim == 2 and not B.quiver.arrows


def test_factor_by_an_idempotent_deletes_its_vertex(arrow_loop):
    A = arrow_loop
    B = factor_algebra(A, Ideal.from_generators(A, [A.idempotent(1)]))
    D = delete_vertices(A, [2])
    assert B.dim == D.dim == 1
    assert B.quiver == D.quiver and B.relations == D.relations


def test_delete_vertices(arrow_loop):
    A = arrow_loop
    B = delete_vertices(A, [2])          # kill the looped vertex
    assert B.dim == 1
    C = delete_vertices(A, [1])          # what survives is K[beta]/(beta^2)
    assert C.dim == 2
    assert len(C.quiver.arrows) == 1 and len(C.relations) == 1
    Z = delete_vertices(A, [1, 2])
    assert Z.is_zero_algebra
    with pytest.raises(InputError, match="undefined for the zero algebra"):
        loewy_length(Z)


def test_delete_no_vertices_is_identity(arrow_loop):
    assert delete_vertices(arrow_loop, []) is arrow_loop


# ---------------------------------------------------------------------------
# serialization and determinism


def test_json_serialization_is_deterministic(arrow_loop):
    from taubound import parse_algebra_file
    from conftest import corpus_path
    again = parse_algebra_file(corpus_path("arrow_loop.alg"))
    assert canonical_json(arrow_loop.to_json_dict()) == \
        canonical_json(again.to_json_dict())
    ideal = radical(arrow_loop)
    assert "basis" in ideal.to_json_dict()


# ---------------------------------------------------------------------------
# random monomial path algebras (acyclic, so always finite-dimensional)


@st.composite
def acyclic_quivers(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    arrows = []
    for i in range(n - 1):
        for j in range(i + 1, n):
            for k in range(draw(st.integers(min_value=0, max_value=2))):
                arrows.append(Arrow(f"x{i}_{j}_{k}", i, j))
    return Quiver(tuple(range(1, n + 1)), tuple(arrows))


def _count_paths(q):
    # DP over the topological order the construction fixed
    total = q.n_vertices
    frontier = [[a] for a in range(len(q.arrows))]
    while frontier:
        total += len(frontier)
        nxt = []
        for p in frontier:
            last = q.arrows[p[-1]]
            for b, arr in enumerate(q.arrows):
                if arr.source == last.target:
                    nxt.append(p + [b])
        frontier = nxt
    return total


@given(acyclic_quivers())
def test_path_algebra_dimension_counts_paths(q):
    A = construct_algebra("rand", F, q)
    assert A.dim == _count_paths(q)
    # spot-check associativity on the arrow generators
    vecs = [A.unit()] + [A.unit_vec(A.arrow_basis_index[i])
                         for i in range(len(q.arrows))]
    for x in vecs[:3]:
        for y in vecs[:3]:
            for z in vecs[:3]:
                assert A.mul(A.mul(x, y), z) == A.mul(x, A.mul(y, z))


@given(acyclic_quivers())
def test_quotient_dimensions_add_up(q):
    A = construct_algebra("rand", F, q)
    rad = radical(A)
    if rad.dim == 0 or rad.dim == A.dim:
        return
    B = factor_algebra(A, rad)
    assert B.dim == A.dim - rad.dim
