"""Exact linear algebra over F_p and Q: the layer everything else trusts."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from taubound.fields import QQ, PrimeField, default_prime_field
from taubound.linalg import (Mat, Span, coordinates, hstack, inverse,
                             is_invertible, nullspace, rank, rref, solve,
                             vstack)

F = default_prime_field()


def test_prime_field_arithmetic():
    f = PrimeField(7)
    assert f.add(5, 4) == 2
    assert f.sub(2, 5) == 4
    assert f.mul(3, 5) == 1
    assert f.inv(3) == 5
    assert f.div(1, 3) == 5
    assert f.neg(0) == 0 and f.is_zero(f.neg(0))
    assert f.of_int(-1) == 6
    assert f.characteristic == 7
    assert QQ.characteristic == 0
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)


def test_prime_field_rejects_composite():
    with pytest.raises(Exception):
        PrimeField(6)


def test_field_random_is_seeded():
    f = PrimeField(101)
    a = [f.random(random.Random(5)) for _ in range(4)]
    b = [f.random(random.Random(5)) for _ in range(4)]
    assert a == b


def _mat(rows, field=F):
    conv = [[field.of_int(x) for x in r] for r in rows]
    return Mat.from_rows(field, conv)


def test_mat_basics():
    m = _mat([[1, 2], [3, 4]])
    assert m.entry(1, 0) == 3
    assert m.transpose().entry(0, 1) == 3
    assert m.add(m.neg()).is_zero()
    assert m.mul(Mat.identity(F, 2)) == m
    assert m.apply((F.one, F.zero)) == (F.one, F.of_int(3))
    assert Mat.zeros(F, 0, 3).nrows == 0


def test_rref_rank_nullspace_solve():
    m = _mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    r, pivots = rref(m)
    assert rank(m) == 2
    assert pivots == (0, 1)
    ns = nullspace(m)
    assert len(ns) == 1
    assert all(F.is_zero(x) for x in m.apply(ns[0]))
    rhs = m.apply((F.one, F.one, F.one))
    sol = solve(m, rhs)
    assert sol is not None and m.apply(sol) == rhs
    assert solve(_mat([[1, 0], [0, 0]]), (F.zero, F.one)) is None


def test_inverse_round_trip():
    m = _mat([[2, 1], [1, 1]])
    assert is_invertible(m)
    assert m.mul(inverse(m)) == Mat.identity(F, 2)
    assert inverse(_mat([[1, 1], [1, 1]])) is None


def test_stacking():
    a, b = _mat([[1, 2]]), _mat([[3, 4]])
    assert vstack(F, [a, b], 2) == _mat([[1, 2], [3, 4]])
    assert hstack(F, [a.transpose(), b.transpose()], 2) == \
        _mat([[1, 3], [2, 4]])


def test_span_growth_and_membership():
    sp = Span(F, 3)
    assert sp.add((F.one, F.zero, F.zero))
    assert not sp.add((F.of_int(5), F.zero, F.zero))
    assert sp.add((F.zero, F.one, F.one))
    assert sp.dim == 2
    assert sp.contains((F.of_int(2), F.of_int(3), F.of_int(3)))
    assert not sp.contains((F.zero, F.one, F.zero))
    assert len(sp.basis()) == 2


small_entries = st.integers(min_value=-6, max_value=6)


@given(st.lists(st.lists(small_entries, min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_rank_nullity_property(rows):
    m = _mat(rows)
    assert rank(m) + len(nullspace(m)) == m.ncols
    for v in nullspace(m):
        assert all(F.is_zero(x) for x in m.apply(v))


@given(st.lists(st.lists(small_entries, min_size=3, max_size=3),
                min_size=3, max_size=3),
       st.lists(small_entries, min_size=3, max_size=3))
def test_solve_agrees_over_q(rows, vec):
    mq = Mat.from_rows(QQ, [[Fraction(x) for x in r] for r in rows])
    rhs = mq.apply([Fraction(x) for x in vec])
    sol = solve(mq, rhs)
    assert sol is not None and mq.apply(sol) == rhs


@pytest.mark.parametrize("field", [F, QQ])
@given(st.lists(st.lists(small_entries, min_size=4, max_size=4),
                min_size=1, max_size=3),
       st.lists(st.lists(small_entries, min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_coordinates_reproduce_every_target(field, basis, combos):
    basis = [tuple(field.of_int(x) for x in b) for b in basis]
    targets = []
    for combo in combos:
        t = [field.zero] * 4
        for c, b in zip(combo, basis):
            t = [field.add(x, field.mul(field.of_int(c), y)) for x, y in zip(t, b)]
        targets.append(tuple(t))
    coords = coordinates(field, basis, targets)
    assert len(coords) == len(targets)
    cols = Mat.from_rows(field, basis).transpose()
    for x, t in zip(coords, targets):
        assert cols.apply(x) == t
        # agrees with the one-target solver
        assert solve(cols, t) == x


@pytest.mark.parametrize("field", [F, QQ])
def test_coordinates_refuse_a_target_outside_the_span(field):
    one, zero = field.one, field.zero
    basis = [(one, zero, zero), (zero, one, zero)]
    inside = (field.of_int(2), field.of_int(3), zero)
    assert coordinates(field, basis, [inside]) == [(field.of_int(2), field.of_int(3))]
    with pytest.raises(ValueError):
        coordinates(field, basis, [inside, (zero, zero, one)])
    with pytest.raises(ValueError):
        coordinates(field, [], [(zero, one, zero)])
    assert coordinates(field, [], [(zero, zero, zero)]) == [()]
