"""Finite-dimensional right modules over a bound quiver algebra.

A module is a dimension vector plus one matrix per arrow; the matrix of an
arrow a: u -> v has shape dims[v] x dims[u] and implements the right action
m |-> m*a on column vectors.  Path actions compose left-to-right, so the
matrix of p*q is M_q . M_p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import BoundQuiverAlgebra, Ideal, Path
from .exceptions import CertificationError, InputError
from .linalg import (Mat, Span, complement_positions, coordinates, nullspace,
                     rank, unit_vector)


class Rep:
    """A representation (right module).  Immutable once constructed, so
    ``tau.tau_data`` keeps its result in the ``_tau_data`` slot."""

    __slots__ = ("algebra", "dims", "maps", "_tau_data")

    def __init__(self, algebra: BoundQuiverAlgebra, dims: Sequence[int],
                 maps: Sequence[Mat], check: bool = True):
        self.algebra = algebra
        self.dims = tuple(dims)
        self.maps = tuple(maps)
        self._tau_data = None
        if check:
            self._validate()

    def _validate(self):
        A = self.algebra
        if len(self.dims) != A.n_vertices:
            raise InputError("module: dimension vector length mismatch")
        if any(d < 0 for d in self.dims):
            raise InputError("module: negative dimension")
        if len(self.maps) != len(A.quiver.arrows):
            raise InputError("module: wrong number of arrow matrices")
        for a, m in zip(A.quiver.arrows, self.maps):
            if (m.nrows, m.ncols) != (self.dims[a.target], self.dims[a.source]):
                raise InputError(
                    f"module: matrix for arrow {a.label} has shape "
                    f"{m.nrows}x{m.ncols}, expected "
                    f"{self.dims[a.target]}x{self.dims[a.source]}"
                )
        for rel in A.relations:
            acc = None
            for c, p in rel:
                term = path_matrix(self, p).scale(c)
                acc = term if acc is None else acc.add(term)
            if acc is not None and not acc.is_zero():
                raise InputError(
                    f"module: relation {A.relation_str(rel)} is not satisfied"
                )

    @property
    def dim_total(self) -> int:
        return sum(self.dims)

    def is_sincere(self) -> bool:
        return all(d > 0 for d in self.dims)

    def dims_str(self) -> str:
        return "(" + ",".join(str(d) for d in self.dims) + ")"

    def to_json_dict(self) -> dict:
        A = self.algebra
        return {
            "algebra": A.name,
            "dims": {A.quiver.vertices[v]: self.dims[v] for v in range(A.n_vertices)},
            "maps": {
                a.label: [[A.field.to_str(m.entry(i, j)) for j in range(m.ncols)]
                          for i in range(m.nrows)]
                for a, m in zip(A.quiver.arrows, self.maps)
            },
        }


def path_matrix(rep: Rep, path: Path) -> Mat:
    F = rep.algebra.field
    cur = Mat.identity(F, rep.dims[path.source])
    for a in path.arrows:
        cur = rep.maps[a].mul(cur)
    return cur


def zero_rep(algebra: BoundQuiverAlgebra) -> Rep:
    F = algebra.field
    return Rep(algebra, (0,) * algebra.n_vertices,
               tuple(Mat.zeros(F, 0, 0) for _ in algebra.quiver.arrows), check=False)


def projective(algebra: BoundQuiverAlgebra, v: int) -> Rep:
    """The indecomposable projective P(v) = e_v A; its coordinates at w are
    the basis paths v -> w, in basis order."""
    A = algebra
    F = A.field
    dims = tuple(len(A.block(v, w)) for w in range(A.n_vertices))
    maps = []
    for ai, arr in enumerate(A.quiver.arrows):
        cols = A.block(v, arr.source)
        rows = A.block(v, arr.target)
        m = [[F.zero] * len(cols) for _ in rows]
        for c, pi in enumerate(cols):
            prod = A.table[pi][A.arrow_basis_index[ai]]
            for r, qi in enumerate(rows):
                m[r][c] = prod[qi]
        maps.append(Mat(F, len(rows), len(cols), m))
    return Rep(A, dims, maps, check=False)


def simple(algebra: BoundQuiverAlgebra, v: int) -> Rep:
    F = algebra.field
    dims = tuple(1 if w == v else 0 for w in range(algebra.n_vertices))
    maps = [Mat.zeros(F, dims[a.target], dims[a.source])
            for a in algebra.quiver.arrows]
    return Rep(algebra, dims, maps, check=False)


def injective_rep(algebra: BoundQuiverAlgebra, v: int) -> Rep:
    """The indecomposable injective I(v), the dual of the left module A e_v;
    its coordinate at u is spanned by the duals of the paths u -> v."""
    A = algebra
    F = A.field
    dims = tuple(len(A.block(u, v)) for u in range(A.n_vertices))
    maps = []
    for ai, arr in enumerate(A.quiver.arrows):
        cols = A.block(arr.source, v)   # duals of paths source(a) -> v
        rows = A.block(arr.target, v)
        m = [[F.zero] * len(cols) for _ in rows]
        for r, qi in enumerate(rows):
            prod = A.table[A.arrow_basis_index[ai]][qi]  # a * q
            for c, pi in enumerate(cols):
                m[r][c] = prod[pi]
        maps.append(Mat(F, len(rows), len(cols), m))
    return Rep(A, dims, maps, check=False)


def dual(M: Rep, opposite: BoundQuiverAlgebra) -> Rep:
    """D M = Hom_k(M, k) over ``opposite``, the opposite of M's algebra as
    ``algebra.opposite`` builds it: every arrow matrix is transposed, and
    the reversed relation words still act by zero."""
    return Rep(opposite, M.dims, [m.transpose() for m in M.maps], check=False)


# ---------------------------------------------------------------------------
# Module homomorphisms


class ModMap:
    """A homomorphism of representations: one matrix block per vertex."""

    __slots__ = ("source", "target", "blocks")

    def __init__(self, source: Rep, target: Rep, blocks: Sequence[Mat],
                 check: bool = True):
        self.source = source
        self.target = target
        self.blocks = tuple(blocks)
        if check:
            A = source.algebra
            for v, b in enumerate(self.blocks):
                if (b.nrows, b.ncols) != (target.dims[v], source.dims[v]):
                    raise CertificationError(f"module map: block at vertex "
                                             f"{A.quiver.vertices[v]} has the "
                                             f"wrong shape")
            for ai, arr in enumerate(A.quiver.arrows):
                lhs = self.blocks[arr.target].mul(source.maps[ai])
                rhs = target.maps[ai].mul(self.blocks[arr.source])
                if lhs != rhs:
                    raise CertificationError(f"module map: does not commute "
                                             f"with arrow {arr.label}")

    def compose(self, other: "ModMap") -> "ModMap":
        """self o other (apply ``other`` first)."""
        assert other.target is self.source or other.target.dims == self.source.dims
        return ModMap(other.source, self.target,
                      [s.mul(o) for s, o in zip(self.blocks, other.blocks)],
                      check=False)

    def add(self, other: "ModMap") -> "ModMap":
        return ModMap(self.source, self.target,
                      [a.add(b) for a, b in zip(self.blocks, other.blocks)],
                      check=False)

    def sub(self, other: "ModMap") -> "ModMap":
        return ModMap(self.source, self.target,
                      [a.sub(b) for a, b in zip(self.blocks, other.blocks)],
                      check=False)

    def scale(self, c) -> "ModMap":
        return ModMap(self.source, self.target,
                      [b.scale(c) for b in self.blocks], check=False)

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in self.blocks)

    def vectorize(self) -> tuple:
        out = []
        for b in self.blocks:
            for i in range(b.nrows):
                for j in range(b.ncols):
                    out.append(b.entry(i, j))
        return tuple(out)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ModMap) and self.source.dims == other.source.dims
                and self.target.dims == other.target.dims
                and self.blocks == other.blocks)

    def __hash__(self):
        return hash((self.source.dims, self.target.dims, self.blocks))


def identity_map(rep: Rep) -> ModMap:
    F = rep.algebra.field
    return ModMap(rep, rep, [Mat.identity(F, d) for d in rep.dims], check=False)


def zero_map(source: Rep, target: Rep) -> ModMap:
    F = source.algebra.field
    return ModMap(source, target,
                  [Mat.zeros(F, target.dims[v], source.dims[v])
                   for v in range(len(source.dims))], check=False)


def map_from_vector(source: Rep, target: Rep, vec: Sequence) -> ModMap:
    F = source.algebra.field
    blocks = []
    pos = 0
    for v in range(len(source.dims)):
        r, c = target.dims[v], source.dims[v]
        rows = tuple(tuple(vec[pos + i * c:pos + i * c + c]) for i in range(r))
        pos += r * c
        blocks.append(Mat._make(F, r, c, rows))
    return ModMap(source, target, blocks, check=False)


def hom_basis(M: Rep, N: Rep) -> list[ModMap]:
    """A basis of Hom(M, N), deterministic for fixed inputs."""
    A = M.algebra
    F = A.field
    nv = A.n_vertices
    offsets = []
    total = 0
    for v in range(nv):
        offsets.append(total)
        total += N.dims[v] * M.dims[v]
    if total == 0:
        return []
    rows = []
    for ai, arr in enumerate(A.quiver.arrows):
        u, v = arr.source, arr.target
        Ma, Na = M.maps[ai], N.maps[ai]
        for r in range(N.dims[v]):
            for c in range(M.dims[u]):
                row = [F.zero] * total
                # (f_v . Ma)[r, c] - (Na . f_u)[r, c] = 0
                for k in range(M.dims[v]):
                    row[offsets[v] + r * M.dims[v] + k] = \
                        F.add(row[offsets[v] + r * M.dims[v] + k], Ma.entry(k, c))
                for k in range(N.dims[u]):
                    row[offsets[u] + k * M.dims[u] + c] = \
                        F.sub(row[offsets[u] + k * M.dims[u] + c], Na.entry(r, k))
                rows.append(row)
    mat = Mat(F, len(rows), total, rows)
    return [map_from_vector(M, N, vec) for vec in nullspace(mat)]


def hom_dim(M: Rep, N: Rep) -> int:
    return len(hom_basis(M, N))


def linear_combination(maps: Sequence[ModMap], coeffs: Sequence) -> ModMap:
    """The sum of c * m over ``maps`` (one source, one target) and ``coeffs``."""
    out = maps[0].scale(coeffs[0])
    for m, c in zip(maps[1:], coeffs[1:]):
        out = out.add(m.scale(c))
    return out


def acts_nilpotently(M: Rep, maps: Sequence[ModMap]) -> bool:
    """Do the endomorphisms ``maps`` of M generate a nilpotent algebra?

    The chain V_0 = M, V_{j+1} = span{s(x) : s in maps, x in V_j} can only
    shrink, so it either reaches 0, which certifies that every product of
    dim M of the maps vanishes, or stalls at a nonzero space that every
    product keeps, which refutes nilpotency.  Exact in every characteristic.
    """
    F = M.algebra.field
    layer = [[unit_vector(F, d, i) for i in range(d)] for d in M.dims]
    size = M.dim_total
    while size:
        spans = [Span(F, d) for d in M.dims]
        for s in maps:
            for v, blk in enumerate(s.blocks):
                for x in layer[v]:
                    spans[v].add(blk.apply(x))
        if sum(sp.dim for sp in spans) == size:
            return False
        layer = [sp.basis() for sp in spans]
        size = sum(len(b) for b in layer)
    return True


# ---------------------------------------------------------------------------
# Kernels, cokernels, images


def _columns(mat: Mat) -> tuple:
    return mat.transpose().rows


def _from_columns(field, nrows: int, cols: Sequence[Sequence]) -> Mat:
    return Mat._make(field, nrows, len(cols),
                     tuple(tuple(c[i] for c in cols) for i in range(nrows)))


def _subrep(M: Rep, bases: Sequence[Sequence[tuple]]) -> tuple[Rep, ModMap]:
    """The submodule of M spanned by ``bases[v]`` at each vertex v, which
    must be arrow-stable, with its inclusion into M."""
    A = M.algebra
    F = A.field
    incl_blocks = [_from_columns(F, M.dims[v], bases[v]) for v in range(A.n_vertices)]
    dims = [len(b) for b in bases]
    maps = []
    for ai, arr in enumerate(A.quiver.arrows):
        u, v = arr.source, arr.target
        moved = _columns(M.maps[ai].mul(incl_blocks[u]))
        maps.append(_from_columns(F, dims[v], coordinates(F, bases[v], moved)))
    S = Rep(A, dims, maps, check=False)
    return S, ModMap(S, M, incl_blocks, check=False)


def kernel(f: ModMap) -> tuple[Rep, ModMap]:
    return _subrep(f.source, [nullspace(b) for b in f.blocks])


def _column_span(mat: Mat) -> Span:
    span = Span(mat.field, mat.nrows)
    for col in _columns(mat):
        span.add(col)
    return span


def cokernel(f: ModMap) -> tuple[Rep, ModMap]:
    N = f.target
    A = N.algebra
    F = A.field
    proj_blocks = []
    sect_blocks = []
    for v in range(A.n_vertices):
        n = N.dims[v]
        img = _column_span(f.blocks[v])
        units = [unit_vector(F, n, i) for i in complement_positions(img)]
        sect_blocks.append(_from_columns(F, n, units))
        # column i: the complement coordinates of the i-th unit vector
        coords = coordinates(F, img.basis() + units, [unit_vector(F, n, i) for i in range(n)])
        proj_blocks.append(_from_columns(F, len(units), [c[img.dim:] for c in coords]))
    cmaps = []
    for ai, arr in enumerate(A.quiver.arrows):
        u, v = arr.source, arr.target
        cmaps.append(proj_blocks[v].mul(N.maps[ai]).mul(sect_blocks[u]))
    C = Rep(A, [b.ncols for b in sect_blocks], cmaps, check=False)
    return C, ModMap(N, C, proj_blocks, check=False)


def image(f: ModMap) -> tuple[Rep, ModMap, ModMap]:
    """Returns (Im f, inclusion Im -> target, corestriction source -> Im)."""
    M, N = f.source, f.target
    F = N.algebra.field
    bases = [_column_span(b).basis() for b in f.blocks]
    I, incl = _subrep(N, bases)
    core_blocks = [_from_columns(F, I.dims[v], coordinates(F, bases[v], _columns(b)))
                   for v, b in enumerate(f.blocks)]
    return I, incl, ModMap(M, I, core_blocks, check=False)


# ---------------------------------------------------------------------------
# Direct sums


@dataclass
class DirectSum:
    rep: Rep
    inclusions: tuple[ModMap, ...]
    projections: tuple[ModMap, ...]


def direct_sum(algebra: BoundQuiverAlgebra, reps: Sequence[Rep]) -> DirectSum:
    for r in reps:
        if r.algebra is not algebra:
            raise InputError(f"direct_sum: summand over {r.algebra.name}, not {algebra.name}")
    F = algebra.field
    nv = algebra.n_vertices
    dims = tuple(sum(r.dims[v] for r in reps) for v in range(nv))
    offsets = []
    run = [0] * nv
    for r in reps:
        offsets.append(tuple(run))
        run = [run[v] + r.dims[v] for v in range(nv)]
    maps = []
    for ai, arr in enumerate(algebra.quiver.arrows):
        u, v = arr.source, arr.target
        m = [[F.zero] * dims[u] for _ in range(dims[v])]
        for k, r in enumerate(reps):
            blk = r.maps[ai]
            for i in range(blk.nrows):
                for j in range(blk.ncols):
                    m[offsets[k][v] + i][offsets[k][u] + j] = blk.entry(i, j)
        maps.append(Mat._make(F, dims[v], dims[u], tuple(map(tuple, m))))
    total = Rep(algebra, dims, maps, check=False)
    incs, projs = [], []
    for k, r in enumerate(reps):
        rows = [tuple(tuple(F.one if i == offsets[k][v] + j else F.zero
                            for j in range(r.dims[v])) for i in range(dims[v]))
                for v in range(nv)]
        incs.append(ModMap(r, total, [Mat._make(F, dims[v], r.dims[v], rows[v])
                                      for v in range(nv)], check=False))
        projs.append(ModMap(total, r, [Mat._make(F, r.dims[v], dims[v], tuple(zip(*rows[v])))
                                       for v in range(nv)], check=False))
    return DirectSum(total, tuple(incs), tuple(projs))


# ---------------------------------------------------------------------------
# Projective covers and presentations


@dataclass
class Cover:
    vertices: tuple[int, ...]
    rep: Rep
    epi: ModMap


def projective_cover(M: Rep) -> Cover:
    """Projective cover built on a basis of the top M / M.rad."""
    A = M.algebra
    F = A.field
    gens: list[tuple[int, int]] = []
    for v in range(A.n_vertices):
        radspan = Span(F, M.dims[v])
        for ai, arr in enumerate(A.quiver.arrows):
            if arr.target == v:
                for col in _columns(M.maps[ai]):
                    radspan.add(col)
        for i in complement_positions(radspan):
            gens.append((v, i))
    verts = tuple(v for v, _ in gens)
    summands = [projective(A, v) for v in verts]
    ds = direct_sum(A, summands)
    blocks = []
    for w in range(A.n_vertices):
        cols = []
        for (v, k), P in zip(gens, summands):
            for pi in A.block(v, w):
                pm = path_matrix(M, A.basis[pi])
                cols.append([pm.entry(i, k) for i in range(pm.nrows)])
        blocks.append(Mat(F, M.dims[w], len(cols),
                          [[c[i] for c in cols] for i in range(M.dims[w])]))
    epi = ModMap(ds.rep, M, blocks, check=True)
    for v in range(A.n_vertices):
        if rank(epi.blocks[v]) != M.dims[v]:
            raise CertificationError(f"projective cover: not surjective at "
                                     f"vertex {A.quiver.vertices[v]}")
    return Cover(verts, ds.rep, epi)


@dataclass
class Presentation:
    """Minimal projective presentation P1 -> P0 -> M -> 0 with the matrix
    over the algebra describing d1 (entry (l, k): an element of e_{j_l} A e_{i_k})."""
    module: Rep
    p0_vertices: tuple[int, ...]
    p1_vertices: tuple[int, ...]
    p0: Rep
    p1: Rep
    d0: ModMap
    d1: ModMap
    amatrix: tuple[tuple[tuple, ...], ...]  # [l][k] -> algebra element vector


def minimal_presentation(M: Rep) -> Presentation:
    A = M.algebra
    cov0 = projective_cover(M)
    K, incl = kernel(cov0.epi)
    cov1 = projective_cover(K)
    d1 = incl.compose(cov1.epi)

    # read off the algebra-element matrix of d1 from the generator columns
    F = A.field
    run = [0] * A.n_vertices
    p0_coord = {}  # (vertex w, coordinate i) -> (copy l, basis path index)
    for l, v in enumerate(cov0.vertices):
        for w in range(A.n_vertices):
            for pi in A.block(v, w):
                p0_coord[(w, run[w])] = (l, pi)
                run[w] += 1
    amatrix = [[A.zero_vec() for _ in cov1.vertices] for _ in cov0.vertices]
    for k, v in enumerate(cov1.vertices):
        # generator of copy k sits at vertex v, at the coordinate of the lazy
        # path, after the paths into v of the copies before it
        gen_col = sum(len(A.block(w, v)) for w in cov1.vertices[:k])
        blk = d1.blocks[v]
        for i in range(blk.nrows):
            c = blk.entry(i, gen_col)
            if F.is_zero(c):
                continue
            l, pi = p0_coord[(v, i)]
            vec = list(amatrix[l][k])
            vec[pi] = F.add(vec[pi], c)
            amatrix[l][k] = tuple(vec)
    return Presentation(
        module=M,
        p0_vertices=cov0.vertices,
        p1_vertices=cov1.vertices,
        p0=cov0.rep,
        p1=cov1.rep,
        d0=cov0.epi,
        d1=d1,
        amatrix=tuple(tuple(row) for row in amatrix),
    )


def ext1_dim(M: Rep, N: Rep) -> int:
    """dim Ext^1(M, N) via Hom applied to 0 -> K -> P0 -> M -> 0."""
    A = M.algebra
    cov = projective_cover(M)
    K, incl = kernel(cov.epi)
    homs_k = hom_basis(K, N)
    if not homs_k:
        return 0
    F = A.field
    restricted = Span(F, len(homs_k[0].vectorize()))
    for g in hom_basis(cov.rep, N):
        restricted.add(g.compose(incl).vectorize())
    return len(homs_k) - restricted.dim


def projective_dimension(M: Rep, cap: int = 16) -> Optional[int]:
    """pd(M), or None when it exceeds ``cap``."""
    if M.dim_total == 0:
        return 0
    cur = M
    for k in range(cap + 1):
        cov = projective_cover(cur)
        if cov.rep.dims == cur.dims:
            return k
        cur, _ = kernel(cov.epi)
    return None


def global_dimension(algebra: BoundQuiverAlgebra, cap: int = 16) -> Optional[int]:
    worst = 0
    for v in range(algebra.n_vertices):
        d = projective_dimension(simple(algebra, v), cap)
        if d is None:
            return None
        worst = max(worst, d)
    return worst


# ---------------------------------------------------------------------------
# Annihilators and transport along quotients


def _action_matrix(M: Rep) -> Mat:
    """One column per basis element b of the algebra: the entries of the
    matrix by which b acts on M, block by block."""
    A = M.algebra
    F = A.field
    offsets = {}
    total = 0
    for i in range(A.n_vertices):
        for j in range(A.n_vertices):
            offsets[(i, j)] = total
            total += M.dims[j] * M.dims[i]
    acts = {}   # (source, arrows) -> the action: one arrow past its prefix's

    def act_of(s: int, arrows: tuple) -> Mat:
        if (s, arrows) not in acts:
            acts[s, arrows] = (M.maps[arrows[-1]].mul(act_of(s, arrows[:-1])) if arrows
                               else Mat.identity(F, M.dims[s]))
        return acts[s, arrows]

    rows = [[F.zero] * A.dim for _ in range(total)]
    for b in range(A.dim):
        act = act_of(A.basis[b].source, A.basis[b].arrows)
        base = offsets[A.block_of[b]]
        for r in range(act.nrows):
            for c in range(act.ncols):
                rows[base + r * act.ncols + c][b] = act.entry(r, c)
    return Mat(F, total, A.dim, rows)


def annihilator(M: Rep) -> Ideal:
    """The two-sided ideal of algebra elements acting as zero on M."""
    return Ideal(M.algebra, nullspace(_action_matrix(M)))


def annihilator_dim(M: Rep) -> int:
    """dim annihilator(M), by rank and nullity, with no basis built."""
    return M.algebra.dim - rank(_action_matrix(M))


def is_faithful(M: Rep) -> bool:
    return annihilator(M).dim == 0


def restrict_to_quotient(M: Rep, quotient: BoundQuiverAlgebra) -> Rep:
    """View an A-module annihilated by the defining ideal as a module over a
    quotient of A (vertices and arrows matched by label)."""
    A = M.algebra
    dims = []
    for lab in quotient.quiver.vertices:
        dims.append(M.dims[A.quiver.vertex_index(lab)])
    maps = []
    for arr in quotient.quiver.arrows:
        maps.append(M.maps[A.quiver.arrow_index(arr.label)])
    return Rep(quotient, dims, maps, check=True)
