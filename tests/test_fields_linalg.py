"""Exact linear algebra over F_p and Q: the layer everything else trusts."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from taubound.fields import QQ, FieldError, PrimeField, default_prime_field
from taubound.linalg import (Mat, Span, coordinates, hstack, inverse,
                             is_invertible, nullspace, rank, rref)

F = default_prime_field()


def test_prime_field_arithmetic():
    f = PrimeField(7)
    assert f.add(5, 4) == 2
    assert f.sub(2, 5) == 4
    assert f.mul(3, 5) == 1
    assert f.inv(3) == 5
    assert f.neg(0) == 0 and f.is_zero(f.neg(0))
    assert f.of_int(-1) == 6
    assert f.characteristic == 7
    assert QQ.characteristic == 0
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)


def test_prime_field_rejects_composite():
    with pytest.raises(Exception):
        PrimeField(6)


def test_prime_field_agrees_with_trial_division_below_1e5():
    primes = []
    for n in range(10 ** 5):
        prime = n >= 2 and all(n % q for q in itertools.takewhile(
            lambda q: q * q <= n, primes))
        if prime:
            primes.append(n)
        try:
            PrimeField(n)
            accepted = True
        except FieldError:
            accepted = False
        assert accepted == prime, n
    assert len(primes) == 9592


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
    sol = coordinates(F, m.transpose().rows, [rhs])[0]
    assert m.apply(sol) == rhs
    with pytest.raises(ValueError):
        coordinates(F, _mat([[1, 0], [0, 0]]).transpose().rows, [(F.zero, F.one)])


def test_inverse_round_trip():
    m = _mat([[2, 1], [1, 1]])
    assert is_invertible(m)
    assert m.mul(inverse(m)) == Mat.identity(F, 2)
    assert inverse(_mat([[1, 1], [1, 1]])) is None


def test_stacking():
    a, b = _mat([[1, 2]]), _mat([[3, 4]])
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


# ---------------------------------------------------------------------------
# the lean kernel against a reference written with the Field methods only


KERNEL_FIELDS = [PrimeField(2), PrimeField(3), F, QQ]
KERNEL_IDS = ["F2", "F3", "F32003", "Q"]


def _elements(field):
    if field is QQ:
        return st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    return st.integers(-4, 4).map(field.of_int) | st.integers(0, field.p - 1)


@st.composite
def _matrices(draw, field, nrows=None, ncols=None):
    nrows = draw(st.integers(0, 4)) if nrows is None else nrows
    ncols = draw(st.integers(0, 4)) if ncols is None else ncols
    el = _elements(field)
    return Mat(field, nrows, ncols,
               [[draw(el) for _ in range(ncols)] for _ in range(nrows)])


def _assert_canonical(field, values):
    """Every Fp entry is an int in [0, p)."""
    if field is not QQ:
        for x in values:
            assert type(x) is int and 0 <= x < field.p, x


def _entries(mat):
    return [x for row in mat.rows for x in row]


def _ref_mul(f, a, b):
    out = []
    for row in a.rows:
        new_row = []
        for j in range(b.ncols):
            acc = f.zero
            for t, x in enumerate(row):
                acc = f.add(acc, f.mul(x, b.rows[t][j]))
            new_row.append(acc)
        out.append(tuple(new_row))
    return tuple(out)


def _ref_rref(f, mat):
    rows = [list(r) for r in mat.rows]
    pivots, r = [], 0
    for c in range(mat.ncols):
        piv = next((i for i in range(r, len(rows)) if not f.is_zero(rows[i][c])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not f.is_zero(rows[i][c]):
                fct = rows[i][c]
                rows[i] = [f.sub(x, f.mul(fct, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(r) for r in rows), tuple(pivots)


def _ref_nullspace(f, mat):
    rows, pivots = _ref_rref(f, mat)
    basis = []
    for fc in [c for c in range(mat.ncols) if c not in pivots]:
        vec = [f.zero] * mat.ncols
        vec[fc] = f.one
        for i, pc in enumerate(pivots):
            vec[pc] = f.sub(f.zero, rows[i][fc])
        basis.append(tuple(vec))
    return basis


class _RefSpan:
    def __init__(self, f, n, order):
        self.f, self.n, self.order = f, n, list(order)
        self.rows, self.pivots = [], []

    def reduce(self, vec):
        f, v = self.f, list(vec)
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if not f.is_zero(c):
                v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
        return tuple(v)

    def add(self, vec):
        f, v = self.f, self.reduce(vec)
        piv = next((c for c in self.order if not f.is_zero(v[c])), None)
        if piv is None:
            return False
        inv = f.inv(v[piv])
        v = tuple(f.mul(inv, x) for x in v)
        rows = [row if f.is_zero(row[piv]) else
                tuple(f.sub(x, f.mul(row[piv], y)) for x, y in zip(row, v))
                for row in self.rows]
        paired = sorted(zip(self.pivots + [piv], rows + [v]),
                        key=lambda t: self.order.index(t[0]))
        self.pivots = [p for p, _ in paired]
        self.rows = [r for _, r in paired]
        return True


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
@given(data=st.data())
def test_kernel_mul_and_apply_match_the_reference(field, data):
    a = data.draw(_matrices(field))
    b = data.draw(_matrices(field, nrows=a.ncols))
    prod = a.mul(b)
    assert (prod.nrows, prod.ncols) == (a.nrows, b.ncols)
    assert prod.rows == _ref_mul(field, a, b)
    _assert_canonical(field, _entries(prod))
    vec = tuple(data.draw(_elements(field)) for _ in range(a.ncols))
    col = Mat(field, a.ncols, 1, [[x] for x in vec])
    assert a.apply(vec) == tuple(r[0] for r in _ref_mul(field, a, col))
    _assert_canonical(field, a.apply(vec))
    assert a.transpose().transpose() == a
    assert prod.is_zero() == all(field.is_zero(x) for x in _entries(prod))


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
@given(data=st.data())
def test_kernel_rref_and_nullspace_match_the_reference(field, data):
    m = data.draw(_matrices(field))
    reduced, pivots = rref(m)
    assert (reduced.rows, pivots) == _ref_rref(field, m)
    assert (reduced.nrows, reduced.ncols) == (m.nrows, m.ncols)
    ns = nullspace(m)
    assert ns == _ref_nullspace(field, m)
    _assert_canonical(field, _entries(reduced) + [x for v in ns for x in v])


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
@given(data=st.data())
def test_kernel_span_matches_the_reference(field, data):
    n = data.draw(st.integers(0, 4))
    order = data.draw(st.permutations(range(n)))
    vecs = data.draw(st.lists(st.tuples(*[_elements(field)] * n), max_size=5))
    sp, ref = Span(field, n, order), _RefSpan(field, n, order)
    for v in vecs:
        assert sp.add(v) == ref.add(v)
        assert sp.rows == ref.rows and sp.pivots == ref.pivots
    for v in vecs + [tuple(field.one for _ in range(n))]:
        assert sp.reduce(v) == ref.reduce(v)
        assert sp.contains(v) == all(field.is_zero(x) for x in ref.reduce(v))
        _assert_canonical(field, sp.reduce(v))
    _assert_canonical(field, [x for row in sp.basis() for x in row])
    assert sp.copy().basis() == sp.basis()


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
@given(data=st.data())
def test_kernel_coordinates_match_the_reference(field, data):
    n = data.draw(st.integers(1, 4))
    el = _elements(field)
    basis = data.draw(st.lists(st.tuples(*[el] * n), max_size=3))
    targets = data.draw(st.lists(st.tuples(*[el] * n), min_size=1, max_size=3))
    cols = basis + targets
    rows, pivots = _ref_rref(field, Mat(field, n, len(cols),
                                        [[c[i] for c in cols] for i in range(n)]))
    if pivots and pivots[-1] >= len(basis):
        with pytest.raises(ValueError):
            coordinates(field, basis, targets)
        return
    expected = []
    for j in range(len(basis), len(cols)):
        x = [field.zero] * len(basis)
        for row, pc in zip(rows, pivots):
            x[pc] = row[j]
        expected.append(tuple(x))
    got = coordinates(field, basis, targets)
    assert got == expected
    _assert_canonical(field, [x for v in got for x in v])


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_kernel_empty_shapes(field, shape):
    r, c = shape
    m = Mat(field, r, c, [[field.one] * c for _ in range(r)])
    assert (m.transpose().nrows, m.transpose().ncols) == (c, r)
    other = Mat(field, c, 2, [[field.one] * 2 for _ in range(c)])
    prod = m.mul(other)
    assert (prod.nrows, prod.ncols) == (r, 2)
    assert prod.rows == _ref_mul(field, m, other)
    assert prod.is_zero()
    _assert_canonical(field, _entries(prod))
    reduced, pivots = rref(m)
    assert (reduced.nrows, reduced.ncols, pivots) == (r, c, ())
    assert len(nullspace(m)) == c
    assert Mat.zeros(field, r, c).is_zero() and Mat.identity(field, 0).nrows == 0


def test_mat_constructor_checks_the_shape():
    with pytest.raises(ValueError):
        Mat(F, 2, 2, [[1]])
    with pytest.raises(ValueError):
        Mat(F, 1, 2, [[1]])
