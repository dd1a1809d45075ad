"""Dense exact linear algebra over a coefficient field.

Matrices are small (desk scale throughout: most row reductions see a few
cells, most products a single one), so plain Gaussian elimination in pure
Python is both fast enough and fully deterministic.  Row reduction always
normalises pivots to 1 and eliminates above and below, so reduced forms,
kernels and solution choices are canonical.

The hot loops (``Mat.mul``, ``rref``, ``Span``) skip the per-scalar
``Field`` method calls and work on the elements directly, one path per
field:

* Fp: elements are canonical ints in [0, p).  A product entry is
  ``sum(map(mul, row, col)) % p``, an elimination step ``(x - c*y) % p``,
  and an element is zero exactly when it is falsy.  Every result is again
  canonical; inputs must be (``PrimeField`` only ever hands out such ints).
* Q: elements are ``Fraction`` instances and the same loops use the
  ``Fraction`` operators; ``Fraction(0)`` is falsy too.

``Mat(...)`` is the edge where outside data comes in, so it checks the
shape.  Results built here (products, transposes, reduced forms, zero and
identity matrices) already have the right shape and go through the
private ``Mat._make``, which neither re-tuples nor re-checks.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import mul as _mul
from typing import Optional, Sequence

from .fields import Field, PrimeField


def _modulus(field: Field) -> int:
    """p for Fp, 0 for Q: selects the kernel's arithmetic path."""
    return field.p if type(field) is PrimeField else 0


class Mat:
    """Immutable matrix over an exact field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, nrows: int, ncols: int, rows):
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise ValueError(f"shape mismatch: expected {nrows}x{ncols}")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def _make(cls, field: Field, nrows: int, ncols: int, rows: tuple) -> "Mat":
        """A matrix from a tuple of row tuples known to be nrows x ncols."""
        m = object.__new__(cls)
        m.field = field
        m.nrows = nrows
        m.ncols = ncols
        m.rows = rows
        return m

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence]) -> "Mat":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return cls(field, len(rows), ncols, rows)

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Mat":
        row = (field.zero,) * ncols
        return cls._make(field, nrows, ncols, (row,) * nrows)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        z, o = field.zero, field.one
        return cls._make(field, n, n, tuple(
            tuple(o if i == j else z for j in range(n)) for i in range(n)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def __repr__(self) -> str:
        return f"Mat({self.nrows}x{self.ncols}, {self.rows})"

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def add(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        f = self.field
        return Mat._make(f, self.nrows, self.ncols, tuple(
            tuple(map(f.add, ra, rb)) for ra, rb in zip(self.rows, other.rows)))

    def sub(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        f = self.field
        return Mat._make(f, self.nrows, self.ncols, tuple(
            tuple(map(f.sub, ra, rb)) for ra, rb in zip(self.rows, other.rows)))

    def scale(self, c) -> "Mat":
        f = self.field
        return Mat._make(f, self.nrows, self.ncols, tuple(
            tuple(f.mul(c, a) for a in row) for row in self.rows))

    def neg(self) -> "Mat":
        f = self.field
        return Mat._make(f, self.nrows, self.ncols, tuple(
            tuple(map(f.neg, row)) for row in self.rows))

    def mul(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        f = self.field
        # with no inner dimension every column is empty and every entry 0
        ocols = list(zip(*other.rows)) if other.nrows else [()] * other.ncols
        p = _modulus(f)
        if p:
            rows = tuple(tuple(sum(map(_mul, row, col)) % p for col in ocols)
                         for row in self.rows)
        else:
            zero = f.zero
            rows = tuple(tuple(sum(map(_mul, row, col), zero) for col in ocols)
                         for row in self.rows)
        return Mat._make(f, self.nrows, other.ncols, rows)

    def transpose(self) -> "Mat":
        if self.nrows == 0:
            return Mat._make(self.field, self.ncols, 0, ((),) * self.ncols)
        return Mat._make(self.field, self.ncols, self.nrows, tuple(zip(*self.rows)))

    def apply(self, vec: Sequence) -> tuple:
        """Multiply by a column vector given as a flat sequence."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        p = _modulus(self.field)
        if p:
            return tuple(sum(map(_mul, row, vec)) % p for row in self.rows)
        zero = self.field.zero
        return tuple(sum(map(_mul, row, vec), zero) for row in self.rows)

    def _check_same_shape(self, other: "Mat"):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("matrix shape mismatch")


def hstack(field: Field, mats: Sequence[Mat], nrows: int) -> Mat:
    """Concatenate blocks side by side; all blocks must share nrows."""
    blocks = [m for m in mats]
    for m in blocks:
        if m.nrows != nrows:
            raise ValueError("hstack row count mismatch")
    ncols = sum(m.ncols for m in blocks)
    rows = []
    for i in range(nrows):
        row: list = []
        for m in blocks:
            row.extend(m.rows[i])
        rows.append(row)
    return Mat(field, nrows, ncols, rows)


def rref(mat: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns."""
    f = mat.field
    p = _modulus(f)
    rows = list(mat.rows)
    nr = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(mat.ncols):
        if r == nr:
            break
        for i in range(r, nr):
            if rows[i][c]:
                break
        else:
            continue
        prow = rows[i]
        rows[i] = rows[r]
        x = prow[c]
        if p:
            if x != 1:
                inv = pow(x, -1, p)
                prow = [y * inv % p for y in prow]
            for i in range(nr):
                row = rows[i]
                factor = row[c]
                if factor and i != r:
                    rows[i] = [(a - factor * b) % p for a, b in zip(row, prow)]
        else:
            if x != 1:
                inv = 1 / x
                prow = [y * inv for y in prow]
            for i in range(nr):
                row = rows[i]
                factor = row[c]
                if factor and i != r:
                    rows[i] = [a - factor * b for a, b in zip(row, prow)]
        rows[r] = prow
        pivots.append(c)
        r += 1
    return Mat._make(f, mat.nrows, mat.ncols, tuple(map(tuple, rows))), tuple(pivots)


def rank(mat: Mat) -> int:
    _, pivots = rref(mat)
    return len(pivots)


def nullspace(mat: Mat) -> list[tuple]:
    """Basis of the right kernel, one vector per free column, in column order."""
    f = mat.field
    reduced, pivots = rref(mat)
    pivot_set = set(pivots)
    free_cols = [c for c in range(mat.ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        vec = [f.zero] * mat.ncols
        vec[fc] = f.one
        for i, pc in enumerate(pivots):
            vec[pc] = f.neg(reduced.rows[i][fc])
        basis.append(tuple(vec))
    return basis


def coordinates(field: Field, basis: Sequence[Sequence],
                targets: Sequence[Sequence]) -> list[tuple]:
    """Coordinates of every target against the vectors in ``basis``.

    One row reduction of [basis | targets]; the coordinates of dependent
    basis vectors are set to zero.  Raises ValueError when a target lies
    outside the span.
    """
    if not targets:
        return []
    nb = len(basis)
    n = len(targets[0])
    cols = list(basis) + list(targets)
    reduced, pivots = rref(Mat(field, n, len(cols), [[c[i] for c in cols] for i in range(n)]))
    if pivots and pivots[-1] >= nb:
        raise ValueError("coordinates: a target lies outside the spanned block")
    out = []
    for j in range(nb, len(cols)):
        x = [field.zero] * nb
        for row, pc in zip(reduced.rows, pivots):
            x[pc] = row[j]
        out.append(tuple(x))
    return out


def unit_vector(field: Field, n: int, i: int) -> tuple:
    z = [field.zero] * n
    z[i] = field.one
    return tuple(z)


def complement_positions(span: "Span") -> list[int]:
    """Positions whose unit vectors, added greedily in order, complete
    ``span`` to the whole space."""
    probe = span.copy()
    return [i for i in range(span.n) if probe.add(unit_vector(span.field, span.n, i))]


def inverse(mat: Mat) -> Optional[Mat]:
    if mat.nrows != mat.ncols:
        return None
    f = mat.field
    n = mat.nrows
    aug = hstack(f, [mat, Mat.identity(f, n)], n)
    reduced, pivots = rref(aug)
    if tuple(pivots[:n]) != tuple(range(n)) or len(pivots) < n:
        return None
    return Mat(f, n, n, [row[n:] for row in reduced.rows])


def is_invertible(mat: Mat) -> bool:
    return mat.nrows == mat.ncols and rank(mat) == mat.nrows


class Span:
    """A subspace of F^n kept in reduced echelon form.

    ``col_order`` fixes which coordinates are eliminated first; the default
    is left to right.  Passing a reversed order makes the *latest*
    coordinates the pivots, which is how quotient bases pick the earliest
    surviving representatives.
    """

    def __init__(self, field: Field, n: int, col_order: Optional[Sequence[int]] = None):
        self.field = field
        self.n = n
        self.col_order = tuple(col_order) if col_order is not None else tuple(range(n))
        if col_order is not None and sorted(self.col_order) != list(range(n)):
            raise ValueError("col_order must be a permutation of range(n)")
        self._p = _modulus(field)
        self.rows: list[tuple] = []
        self.pivots: list[int] = []  # parallel to rows; values are coordinates
        self._ranks: list[int] = []  # parallel to rows; positions in col_order

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Sequence) -> tuple:
        if len(vec) != self.n:
            raise ValueError("vector length mismatch")
        v = vec
        p = self._p
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if c:
                if p:
                    v = [(x - c * y) % p for x, y in zip(v, row)]
                else:
                    v = [x - c * y for x, y in zip(v, row)]
        return tuple(v)

    def contains(self, vec: Sequence) -> bool:
        return not any(self.reduce(vec))

    def add(self, vec: Sequence) -> bool:
        """Insert a vector; returns True when the dimension grew."""
        v = self.reduce(vec)
        for at, piv in enumerate(self.col_order):
            if v[piv]:
                break
        else:
            return False
        p = self._p
        x = v[piv]
        if x != 1:
            if p:
                inv = pow(x, -1, p)
                v = tuple(y * inv % p for y in v)
            else:
                inv = 1 / x
                v = tuple(y * inv for y in v)
        # back-reduce existing rows so the span stays fully reduced
        new_rows = []
        for row in self.rows:
            c = row[piv]
            if c:
                if p:
                    row = tuple((a - c * b) % p for a, b in zip(row, v))
                else:
                    row = tuple(a - c * b for a, b in zip(row, v))
            new_rows.append(row)
        # keep the rows sorted by the position of their pivot in col_order
        k = bisect_left(self._ranks, at)
        new_rows.insert(k, v)
        self.rows = new_rows
        self.pivots.insert(k, piv)
        self._ranks.insert(k, at)
        return True

    def basis(self) -> list[tuple]:
        return list(self.rows)

    def copy(self) -> "Span":
        s = Span(self.field, self.n, self.col_order)
        s.rows = list(self.rows)
        s.pivots = list(self.pivots)
        s._ranks = list(self._ranks)
        return s
