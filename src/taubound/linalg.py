"""Dense exact linear algebra over a coefficient field.

Matrices are small (desk scale throughout), so plain Gaussian elimination
over exact field elements is both fast enough and fully deterministic.
Row reduction always normalises pivots to 1 and eliminates above and below,
so reduced forms, kernels and solution choices are canonical.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .fields import Field


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
    def from_rows(cls, field: Field, rows: Sequence[Sequence]) -> "Mat":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return cls(field, len(rows), ncols, rows)

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Mat":
        z = field.zero
        return cls(field, nrows, ncols, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        z, o = field.zero, field.one
        return cls(field, n, n, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def column(cls, field: Field, entries: Sequence) -> "Mat":
        return cls(field, len(entries), 1, [[e] for e in entries])

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
        zero = self.field.is_zero
        return all(zero(x) for row in self.rows for x in row)

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def add(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        f = self.field
        return Mat(
            f,
            self.nrows,
            self.ncols,
            [
                [f.add(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def sub(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        f = self.field
        return Mat(
            f,
            self.nrows,
            self.ncols,
            [
                [f.sub(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def scale(self, c) -> "Mat":
        f = self.field
        return Mat(f, self.nrows, self.ncols, [[f.mul(c, a) for a in row] for row in self.rows])

    def neg(self) -> "Mat":
        f = self.field
        return Mat(f, self.nrows, self.ncols, [[f.neg(a) for a in row] for row in self.rows])

    def mul(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        f = self.field
        zero = f.zero
        ocols = list(zip(*other.rows)) if other.rows else [()] * other.ncols
        if other.nrows == 0:
            return Mat.zeros(f, self.nrows, other.ncols)
        out = []
        for row in self.rows:
            new_row = []
            for col in ocols:
                acc = zero
                for a, b in zip(row, col):
                    acc = f.add(acc, f.mul(a, b))
                new_row.append(acc)
            out.append(new_row)
        if not out:
            return Mat.zeros(f, 0, other.ncols)
        return Mat(f, self.nrows, other.ncols, out)

    def transpose(self) -> "Mat":
        if self.nrows == 0:
            return Mat(self.field, self.ncols, 0, [() for _ in range(self.ncols)])
        return Mat(self.field, self.ncols, self.nrows, list(zip(*self.rows)))

    def apply(self, vec: Sequence) -> tuple:
        """Multiply by a column vector given as a flat sequence."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        f = self.field
        out = []
        for row in self.rows:
            acc = f.zero
            for a, x in zip(row, vec):
                acc = f.add(acc, f.mul(a, x))
            out.append(acc)
        return tuple(out)

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


def vstack(field: Field, mats: Sequence[Mat], ncols: int) -> Mat:
    blocks = [m for m in mats]
    for m in blocks:
        if m.ncols != ncols:
            raise ValueError("vstack column count mismatch")
    rows = []
    for m in blocks:
        rows.extend(m.rows)
    return Mat(field, len(rows), ncols, rows)


def rref(mat: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns."""
    f = mat.field
    rows = [list(r) for r in mat.rows]
    pivots: list[int] = []
    r = 0
    for c in range(mat.ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if not f.is_zero(rows[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not f.is_zero(rows[i][c]):
                factor = rows[i][c]
                rows[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return Mat(f, mat.nrows, mat.ncols, rows), tuple(pivots)


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


def solve(mat: Mat, rhs: Sequence) -> Optional[tuple]:
    """One solution of mat * x = rhs (free variables set to zero), or None."""
    f = mat.field
    if len(rhs) != mat.nrows:
        raise ValueError("rhs length mismatch")
    aug = Mat(f, mat.nrows, mat.ncols + 1, [list(r) + [b] for r, b in zip(mat.rows, rhs)])
    reduced, pivots = rref(aug)
    if mat.ncols in pivots:
        return None
    x = [f.zero] * mat.ncols
    for i, pc in enumerate(pivots):
        x[pc] = reduced.rows[i][mat.ncols]
    return tuple(x)


def coordinates(field: Field, basis: Sequence[Sequence],
                targets: Sequence[Sequence]) -> list[tuple]:
    """Coordinates of every target against the vectors in ``basis``.

    One row reduction of [basis | targets]; free variables are set to zero
    as in solve.  Raises ValueError when a target lies outside the span.
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
        if sorted(self.col_order) != list(range(n)):
            raise ValueError("col_order must be a permutation of range(n)")
        self.rows: list[tuple] = []
        self.pivots: list[int] = []  # parallel to rows; values are coordinates

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Sequence) -> tuple:
        f = self.field
        v = list(vec)
        if len(v) != self.n:
            raise ValueError("vector length mismatch")
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if not f.is_zero(c):
                v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
        return tuple(v)

    def contains(self, vec: Sequence) -> bool:
        f = self.field
        return all(f.is_zero(x) for x in self.reduce(vec))

    def add(self, vec: Sequence) -> bool:
        """Insert a vector; returns True when the dimension grew."""
        f = self.field
        v = self.reduce(vec)
        piv = None
        for c in self.col_order:
            if not f.is_zero(v[c]):
                piv = c
                break
        if piv is None:
            return False
        inv = f.inv(v[piv])
        v = tuple(f.mul(inv, x) for x in v)
        # back-reduce existing rows so the span stays fully reduced
        new_rows = []
        for row in self.rows:
            c = row[piv]
            if f.is_zero(c):
                new_rows.append(row)
            else:
                new_rows.append(tuple(f.sub(x, f.mul(c, y)) for x, y in zip(row, v)))
        self.rows = new_rows
        self.rows.append(v)
        self.pivots.append(piv)
        order = {c: i for i, c in enumerate(self.col_order)}
        paired = sorted(zip(self.pivots, self.rows), key=lambda t: order[t[0]])
        self.pivots = [p for p, _ in paired]
        self.rows = [r for _, r in paired]
        return True

    def basis(self) -> list[tuple]:
        return list(self.rows)

    def copy(self) -> "Span":
        s = Span(self.field, self.n, self.col_order)
        s.rows = list(self.rows)
        s.pivots = list(self.pivots)
        return s
