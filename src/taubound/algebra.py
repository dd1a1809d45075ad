"""Bound quiver algebras with exact arithmetic over a path basis.

An algebra is presented by a quiver and a list of admissible relations.
Construction enumerates paths degree by degree and certifies a cutoff
degree d such that every path of length d already lies in the span of the
relation translates; from that point on the two-sided ideal contains all
longer paths, so the quotient is finite dimensional and a basis of
surviving paths (deglex-first in each coset) can be extracted together
with a full multiplication table.

Composition convention: ``p * q`` means "traverse p, then q", so a path
p: i -> j composes with q: j -> k to give p*q: i -> k.  Modules are right
modules; see reps.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .exceptions import CertificationError, InputError
from .fields import Field
from .linalg import (Mat, Span, complement_positions, coordinates, nullspace,
                     unit_vector)

# Paths are enumerated breadth-first; this guards against presentations
# whose ideal never closes up (e.g. a free loop) producing runaway growth.
MAX_PATH_BUDGET = 200_000


@dataclass(frozen=True)
class Arrow:
    label: str
    source: int
    target: int


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("quiver: duplicate vertex labels")
        labels = [a.label for a in self.arrows]
        if len(set(labels)) != len(labels):
            raise InputError("quiver: duplicate arrow labels")
        if set(labels) & set(self.vertices):
            raise InputError("quiver: arrow label collides with a vertex label")
        n = len(self.vertices)
        for a in self.arrows:
            if not (0 <= a.source < n and 0 <= a.target < n):
                raise InputError(f"quiver: arrow {a.label} has endpoints outside the vertex range")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def vertex_index(self, label: str) -> int:
        try:
            return self.vertices.index(label)
        except ValueError:
            raise InputError(f"unknown vertex {label!r}") from None

    def arrow_index(self, label: str) -> int:
        for i, a in enumerate(self.arrows):
            if a.label == label:
                return i
        raise InputError(f"unknown arrow {label!r}")


@dataclass(frozen=True)
class Path:
    """A path of the quiver.  Length-0 paths are the lazy paths e_v."""

    source: int
    target: int
    arrows: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.arrows)

    def display(self, quiver: Quiver) -> str:
        if not self.arrows:
            return f"e_{quiver.vertices[self.source]}"
        return "*".join(quiver.arrows[a].label for a in self.arrows)


def compose(p: Path, q: Path) -> Optional[Path]:
    """p followed by q, or None when the endpoints do not match."""
    if p.target != q.source:
        return None
    return Path(p.source, q.target, p.arrows + q.arrows)


# A relation is a linear combination of parallel paths of length >= 2,
# stored as ((coeff, Path), ...) with distinct paths and nonzero coeffs.
Relation = tuple


def make_relation(field: Field, quiver: Quiver,
                  terms: Sequence[tuple[object, Sequence[int]]]) -> Relation:
    """Validate and normalize one relation given as (coeff, arrow index list) terms."""
    merged: dict[tuple[int, ...], object] = {}
    endpoints = None
    for coeff, arrow_ids in terms:
        if len(arrow_ids) < 2:
            raise InputError(
                "relation must lie in the square of the arrow ideal "
                "(every term needs length >= 2)")
        path = None
        for ai in arrow_ids:
            if not (0 <= ai < len(quiver.arrows)):
                raise InputError("relation: unknown arrow index")
            a = quiver.arrows[ai]
            step = Path(a.source, a.target, (ai,))
            path = step if path is None else compose(path, step)
            if path is None:
                raise InputError(
                    "relation: arrows "
                    + "*".join(quiver.arrows[i].label for i in arrow_ids)
                    + " do not compose"
                )
        if endpoints is None:
            endpoints = (path.source, path.target)
        elif endpoints != (path.source, path.target):
            raise InputError("relation: terms are not parallel paths")
        key = tuple(arrow_ids)
        acc = merged.get(key, field.zero)
        merged[key] = field.add(acc, coeff)
    out = []
    for key in sorted(merged):
        c = merged[key]
        if field.is_zero(c):
            continue
        a0 = quiver.arrows[key[0]]
        aN = quiver.arrows[key[-1]]
        out.append((c, Path(a0.source, aN.target, key)))
    if not out:
        raise InputError("relation: all terms cancel; drop it from the presentation")
    return tuple(out)


def _next_level(quiver: Quiver, level: list[Path]) -> list[Path]:
    out = []
    for p in level:
        for ai, a in enumerate(quiver.arrows):
            if a.source == p.target:
                out.append(Path(p.source, a.target, p.arrows + (ai,)))
    return out


class StructureAlgebra:
    """An associative algebra given by structure constants over a fixed basis,
    with a designated complete set of orthogonal idempotents.

    Elements are coefficient tuples; ``table[i][j]`` is the coefficient tuple
    of the product of basis elements i and j.  The unit is the sum of the
    idempotents.  ``block_of[i]`` is the block (u, v) of basis element i,
    that is b_i = e_u b_i e_v; the tags are certified on construction.
    """

    def __init__(self, field, table, idempotents, vertex_labels, block_of):
        self.field = field
        self.dim = len(table)
        self.table = table
        self.idempotents = tuple(tuple(e) for e in idempotents)
        self.vertex_labels = tuple(vertex_labels)
        self.block_of = tuple(block_of)
        one = self.zero_vec()
        for e in self.idempotents:
            one = self.add(one, e)
        self._unit = one
        if len(self.block_of) != self.dim:
            raise CertificationError("block tags: one tag per basis element needed")
        self._blocks: dict[tuple[int, int], list[int]] = {}
        for i, (u, v) in enumerate(self.block_of):
            b = self.unit_vec(i)
            if self.mul(self.mul(self.idempotents[u], b), self.idempotents[v]) != b:
                raise CertificationError(f"block tags: basis element {i} is not in ({u}, {v})")
            self._blocks.setdefault((u, v), []).append(i)

    @property
    def n_vertices(self) -> int:
        return len(self.idempotents)

    @property
    def is_zero_algebra(self) -> bool:
        return self.n_vertices == 0

    def zero_vec(self) -> tuple:
        return (self.field.zero,) * self.dim

    def unit_vec(self, i: int) -> tuple:
        return unit_vector(self.field, self.dim, i)

    def unit(self) -> tuple:
        return self._unit

    def idempotent(self, v: int) -> tuple:
        return self.idempotents[v]

    def block(self, u: int, v: int) -> list[int]:
        """The basis positions in e_u A e_v, in basis order."""
        return self._blocks.get((u, v), [])

    def mul(self, u: Sequence, v: Sequence) -> tuple:
        F = self.field
        acc = [F.zero] * self.dim
        for i, ci in enumerate(u):
            if F.is_zero(ci):
                continue
            for j, cj in enumerate(v):
                if F.is_zero(cj):
                    continue
                c = F.mul(ci, cj)
                for k, ck in enumerate(self.table[i][j]):
                    if not F.is_zero(ck):
                        acc[k] = F.add(acc[k], F.mul(c, ck))
        return tuple(acc)

    def add(self, u: Sequence, v: Sequence) -> tuple:
        F = self.field
        return tuple(F.add(x, y) for x, y in zip(u, v))

    def is_zero_vec(self, u: Sequence) -> bool:
        return all(self.field.is_zero(x) for x in u)


class BoundQuiverAlgebra(StructureAlgebra):
    """A finite-dimensional quotient of a path algebra, with multiplication table.

    Elements are coefficient tuples over ``basis`` (a tuple of Path objects,
    deglex ordered, lazy paths first); the lazy paths are the idempotents.
    Built by construct_algebra(); do not instantiate directly.
    """

    def __init__(self, name, field, quiver, basis, table, relations, cutoff):
        super().__init__(field, table,
                         [unit_vector(field, len(basis), v) for v in range(quiver.n_vertices)],
                         quiver.vertices, [(p.source, p.target) for p in basis])
        self.name = name
        self.quiver = quiver
        self.basis = tuple(basis)
        self.relations = tuple(relations)
        self.cutoff = cutoff
        index = {(p.source, p.arrows): i for i, p in enumerate(self.basis)}
        for v in range(quiver.n_vertices):
            assert self.basis[v] == Path(v, v, ()), "basis must start with the lazy paths"
        self.arrow_basis_index = tuple(
            index[(a.source, (ai,))] for ai, a in enumerate(quiver.arrows)
        )

    # -- display / serialization -----------------------------------------

    def path_str(self, i: int) -> str:
        return self.basis[i].display(self.quiver)

    def element_str(self, u: Sequence) -> str:
        F = self.field
        parts = []
        for i, c in enumerate(u):
            if F.is_zero(c):
                continue
            cs = F.to_str(c)
            parts.append(self.path_str(i) if cs == "1" else f"{cs}*{self.path_str(i)}")
        return " + ".join(parts) if parts else "0"

    def relation_str(self, rel: Relation) -> str:
        F = self.field
        parts = []
        for c, p in rel:
            cs = F.to_str(c)
            ps = p.display(self.quiver)
            parts.append(ps if cs == "1" else f"{cs}*{ps}")
        return " + ".join(parts)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "field": self.field.name,
            "vertices": list(self.quiver.vertices),
            "arrows": [
                {
                    "label": a.label,
                    "source": self.quiver.vertices[a.source],
                    "target": self.quiver.vertices[a.target],
                }
                for a in self.quiver.arrows
            ],
            "relations": [self.relation_str(r) for r in self.relations],
            "dim": self.dim,
            "basis": [self.path_str(i) for i in range(self.dim)],
        }


def construct_algebra(name: str, field: Field, quiver: Quiver,
                      relations: Sequence[Relation] = (), max_len: int = 32) -> BoundQuiverAlgebra:
    """Build the bound quiver algebra, certifying finite dimensionality.

    The certificate at degree d checks that every path of length exactly d
    lies in the span of untruncated relation translates p*g*q whose longest
    term has length <= d; every longer path then factors through a degree-d
    one and stays inside the ideal, so products of total length >= d vanish
    in the quotient.
    """
    nv = quiver.n_vertices
    if nv == 0:
        return BoundQuiverAlgebra(name, field, quiver, (), (), (), 1)

    for rel in relations:
        for _, p in rel:
            if p.length < 2:
                raise InputError(
                    "relation must lie in the square of the arrow ideal")

    levels: list[list[Path]] = [[Path(v, v, ()) for v in range(nv)]]
    all_paths: list[Path] = list(levels[0])
    index: dict[tuple, int] = {(p.source, p.arrows): i for i, p in enumerate(all_paths)}

    # translates stored symbolically as ((coeff, Path), ...) terms
    translate_store: list[tuple] = []

    rel_meta = []
    for rel in relations:
        maxlen = max(p.length for _, p in rel)
        rel_meta.append((rel, maxlen, rel[0][1].source, rel[0][1].target))

    cutoff = None
    for d in range(1, max_len + 1):
        level = _next_level(quiver, levels[-1])
        levels.append(level)
        for p in level:
            index[(p.source, p.arrows)] = len(all_paths)
            all_paths.append(p)
        if len(all_paths) > MAX_PATH_BUDGET:
            raise InputError(
                f"algebra {name!r}: path budget exceeded; the ideal does not "
                f"close up (is the presentation admissible?)"
            )
        # new translates: those whose longest term has length exactly d
        for rel, maxlen, src, tgt in rel_meta:
            if maxlen > d:
                continue
            for lp in range(0, d - maxlen + 1):
                lq = d - maxlen - lp
                for p in levels[lp]:
                    if p.target != src:
                        continue
                    for q in levels[lq]:
                        if q.source != tgt:
                            continue
                        translate_store.append(tuple(
                            (c, compose(compose(p, t), q)) for c, t in rel
                        ))
        # does the span of all translates contain every path of length d?
        n = len(all_paths)
        span = Span(field, n, col_order=list(range(n - 1, -1, -1)))
        for terms in translate_store:
            vec = [field.zero] * n
            for c, pt in terms:
                k = index[(pt.source, pt.arrows)]
                vec[k] = field.add(vec[k], c)
            span.add(tuple(vec))
        if all(span.contains(unit_vector(field, n, index[(p.source, p.arrows)])) for p in level):
            cutoff = d
            break

    if cutoff is None:
        raise InputError(
            f"algebra {name!r}: not finite-dimensional within max_len={max_len} "
            f"(non-admissible ideal or max_len too small)"
        )

    # Basis of the quotient: paths of length < cutoff modulo truncated
    # translates, eliminating deglex-largest paths first so the earliest
    # path in each coset survives.
    short_paths = [p for p in all_paths if p.length < cutoff]
    n_short = len(short_paths)
    nf_span = Span(field, n_short, col_order=list(range(n_short - 1, -1, -1)))
    for terms in translate_store:
        vec = [field.zero] * n_short
        for c, pt in terms:
            k = index[(pt.source, pt.arrows)]
            if k < n_short:
                vec[k] = field.add(vec[k], c)
        nf_span.add(tuple(vec))
    pivot_cols = set(nf_span.pivots)
    survivors = [i for i in range(n_short) if i not in pivot_cols]
    assert survivors[:nv] == list(range(nv)), "a lazy path was eliminated"
    basis = [short_paths[i] for i in survivors]
    pos = {i: k for k, i in enumerate(survivors)}

    def nf_coords(p: Path) -> tuple:
        if p.length >= cutoff:
            return (field.zero,) * len(basis)
        i = index[(p.source, p.arrows)]
        residue = nf_span.reduce(unit_vector(field, n_short, i))
        out = [field.zero] * len(basis)
        for j, c in enumerate(residue):
            if not field.is_zero(c):
                out[pos[j]] = c
        return tuple(out)

    nb = len(basis)
    table = []
    for i in range(nb):
        row = []
        for j in range(nb):
            pq = compose(basis[i], basis[j])
            row.append(nf_coords(pq) if pq is not None else (field.zero,) * nb)
        table.append(tuple(row))

    alg = BoundQuiverAlgebra(name, field, quiver, basis, tuple(table), relations, cutoff)

    # sanity: the relations themselves vanish in the quotient
    for rel in relations:
        acc = [field.zero] * nb
        for c, p in rel:
            for k, ck in enumerate(nf_coords(p)):
                acc[k] = field.add(acc[k], field.mul(c, ck))
        if not all(field.is_zero(x) for x in acc):
            raise CertificationError(f"algebra {name!r}: relation "
                                     f"{alg.relation_str(rel)} does not vanish "
                                     f"in the quotient")
    return alg


def opposite(algebra: BoundQuiverAlgebra) -> BoundQuiverAlgebra:
    """A^op: every arrow turned round and every relation word reversed.
    Arrow i of the result is arrow i of ``algebra`` reversed, so the k-dual
    of a module transposes its arrow matrices in place (``reps.dual``)."""
    q = algebra.quiver
    quiver = Quiver(q.vertices, tuple(Arrow(a.label, a.target, a.source)
                                      for a in q.arrows))
    relations = [make_relation(algebra.field, quiver,
                               [(c, p.arrows[::-1]) for c, p in rel])
                 for rel in algebra.relations]
    return construct_algebra(algebra.name + "^op", algebra.field, quiver, relations)


# ---------------------------------------------------------------------------
# Two-sided ideals


def ideal_powers(sa: StructureAlgebra, vectors: Sequence[tuple]
                 ) -> list[dict[tuple[int, int], list[tuple]]]:
    """I, I^2, ... for the two-sided ideal I of ``sa`` spanned by ``vectors``,
    each a basis per block (u, v), up to the first power that is zero or,
    when I is not nilpotent, does not shrink.  I is spanned by its blocks
    e_u x e_v, and I^(k+1) = I^k I multiplies only the blocks that chain."""
    F = sa.field

    def by_block(pairs) -> dict[tuple[int, int], list[tuple]]:
        spans: dict[tuple[int, int], Span] = {}
        for block, vec in pairs:
            spans.setdefault(block, Span(F, sa.dim)).add(vec)
        return {block: span.basis() for block, span in spans.items() if span.dim}

    powers = [by_block((b, tuple(c if sa.block_of[i] == b else F.zero
                                  for i, c in enumerate(x)))
                       for x in vectors
                       for b in {sa.block_of[i] for i, c in enumerate(x)
                                 if not F.is_zero(c)})]
    while powers[-1]:
        nxt = by_block(((u, v), sa.mul(x, y)) for (u, w), xs in powers[-1].items()
                       for (w2, v), ys in powers[0].items() if w2 == w
                       for x in xs for y in ys)
        if sum(map(len, nxt.values())) == sum(map(len, powers[-1].values())):
            break
        powers.append(nxt)
    return powers


class Ideal:
    """A two-sided ideal given by an echelonized basis of coefficient vectors."""

    def __init__(self, algebra: BoundQuiverAlgebra, vectors: Sequence[Sequence] = ()):
        self.algebra = algebra
        n = algebra.dim
        self._span = Span(algebra.field, n, col_order=list(range(n - 1, -1, -1)))
        for v in vectors:
            self._span.add(tuple(v))

    @classmethod
    def from_generators(cls, algebra: BoundQuiverAlgebra,
                        generators: Sequence[Sequence]) -> "Ideal":
        ideal = cls(algebra, generators)
        changed = True
        while changed:
            changed = False
            for v in ideal._span.basis():
                for b in range(algebra.dim):
                    if ideal._span.add(algebra.mul(algebra.unit_vec(b), v)):
                        changed = True
                    if ideal._span.add(algebra.mul(v, algebra.unit_vec(b))):
                        changed = True
        return ideal

    @property
    def dim(self) -> int:
        return self._span.dim

    def basis_vectors(self) -> list[tuple]:
        return self._span.basis()

    def contains(self, vec: Sequence) -> bool:
        return self._span.contains(tuple(vec))

    def nilpotency_index(self) -> int:
        """Least r >= 1 with I^r = 0; the zero ideal gives 1."""
        powers = ideal_powers(self.algebra, self.basis_vectors())
        if powers[-1]:
            raise InputError("nilpotency_index: ideal is not nilpotent")
        return len(powers)

    def to_json_dict(self) -> dict:
        return {
            "algebra": self.algebra.name,
            "dim": self.dim,
            "basis": [self.algebra.element_str(v) for v in self.basis_vectors()],
        }


def radical(algebra: BoundQuiverAlgebra) -> Ideal:
    """The Jacobson radical: the span of the basis paths of length >= 1."""
    vecs = [algebra.unit_vec(i) for i, p in enumerate(algebra.basis) if p.length >= 1]
    return Ideal(algebra, vecs)


def loewy_length(algebra: BoundQuiverAlgebra) -> int:
    if algebra.is_zero_algebra:
        raise InputError("loewy_length: undefined for the zero algebra")
    return radical(algebra).nilpotency_index()


# ---------------------------------------------------------------------------
# Structure-constant algebras and re-presentation as a bound quiver


def present_structure_as_bound_quiver(
    sa: StructureAlgebra,
    name: str,
    radical_vectors: Sequence[tuple],
    preferred_arrows: Sequence[tuple[str, int, int, tuple]] = (),
) -> BoundQuiverAlgebra:
    """Re-present a structure-constant algebra as a bound quiver algebra.

    ``radical_vectors`` span the Jacobson radical of ``sa``.  Arrows are
    chosen inside each e_u (rad / rad^2) e_v block, preferring the
    supplied candidates (label, u, v, vector) in order; relations are
    the kernel of the induced surjection from the new path algebra,
    collected degreewise up to the radical's nilpotency index.  Dimension
    equality with ``sa`` certifies the presentation.
    """
    F = sa.field
    nv = sa.n_vertices
    if sa.dim == 0:
        return construct_algebra(name, F, Quiver((), ()))

    # nilpotency index of the radical; also bounds the relation degrees
    powers = ideal_powers(sa, radical_vectors)
    if powers[-1]:
        raise CertificationError("presentation: supplied radical is not nilpotent")
    ll = len(powers)  # rad^ll = 0

    chosen: list[tuple[str, int, int, tuple]] = []
    chosen_span = Span(F, sa.dim)
    for vecs in (powers[1].values() if ll > 1 else ()):
        for r in vecs:
            chosen_span.add(r)
    gen_counter = 0
    preferred_by_block: dict[tuple[int, int], list] = {}
    for label, u, v, vec in preferred_arrows:
        preferred_by_block.setdefault((u, v), []).append((label, tuple(vec)))
    for u in range(nv):
        for v in range(nv):
            candidates = (preferred_by_block.get((u, v), [])
                          + [(None, r) for r in powers[0].get((u, v), [])])
            for label, vec in candidates:
                if chosen_span.add(vec):
                    if label is None:
                        gen_counter += 1
                        label = f"a{gen_counter}"
                    chosen.append((label, u, v, vec))

    new_quiver = Quiver(
        sa.vertex_labels,
        tuple(Arrow(label, u, v) for label, u, v, _ in chosen),
    )
    arrow_vecs = [vec for _, _, _, vec in chosen]

    # relations: kernel of path evaluation, degrees 2 .. ll
    relations = []
    if chosen:
        levels = [[Path(v, v, ()) for v in range(nv)]]
        evals: dict[tuple, tuple] = {(v, ()): sa.idempotents[v] for v in range(nv)}
        accumulated: list[tuple[Path, tuple]] = []
        for d in range(1, max(ll, 2) + 1):
            level = _next_level(new_quiver, levels[-1])
            levels.append(level)
            for p in level:
                prev = evals[(p.source, p.arrows[:-1])]
                evals[(p.source, p.arrows)] = sa.mul(prev, arrow_vecs[p.arrows[-1]])
            if d >= 2:
                accumulated.extend((p, evals[(p.source, p.arrows)]) for p in level)
        by_block: dict[tuple[int, int], list[tuple[Path, tuple]]] = {}
        for p, val in accumulated:
            by_block.setdefault((p.source, p.target), []).append((p, val))
        for key in sorted(by_block):
            entries = by_block[key]
            mat = Mat(F, sa.dim, len(entries),
                      [[entries[j][1][r] for j in range(len(entries))]
                       for r in range(sa.dim)])
            for coeffs in nullspace(mat):
                terms = [(c, entries[j][0].arrows) for j, c in enumerate(coeffs)
                         if not F.is_zero(c)]
                relations.append(make_relation(F, new_quiver, terms))

    bqa = construct_algebra(name, F, new_quiver, tuple(relations),
                            max_len=max(ll + 1, 4))
    if bqa.dim != sa.dim:
        raise CertificationError(f"presentation of {name!r}: dim {bqa.dim} != {sa.dim}")
    return bqa


# ---------------------------------------------------------------------------
# Quotients


def quotient_structure(sa: StructureAlgebra,
                       ideal: Sequence[tuple]) -> tuple[StructureAlgebra, list[int]]:
    """sa modulo the two-sided ideal spanned by ``ideal``, with its survivors.

    The survivors are the basis positions whose unit vectors, taken greedily
    in basis order, complete the ideal; their images form the quotient basis.
    The quotient's idempotents are the nonzero images of the idempotents of
    ``sa``, with their labels, and each survivor keeps its block.
    """
    F = sa.field
    span = Span(F, sa.dim)
    for v in ideal:
        span.add(v)
    survivors = complement_positions(span)
    k = len(survivors)
    coords = coordinates(F, span.basis() + [sa.unit_vec(i) for i in survivors],
                         [sa.table[i][j] for i in survivors for j in survivors]
                         + list(sa.idempotents))
    images = [c[span.dim:] for c in coords]
    table = tuple(tuple(images[a * k:(a + 1) * k]) for a in range(k))
    kept = [v for v, e in enumerate(images[k * k:]) if not sa.is_zero_vec(e)]
    renumber = {v: n for n, v in enumerate(kept)}
    quot = StructureAlgebra(F, table, [images[k * k + v] for v in kept],
                            [sa.vertex_labels[v] for v in kept],
                            [(renumber[u], renumber[v])
                             for u, v in (sa.block_of[i] for i in survivors)])
    return quot, survivors


def _survivor_presentation(algebra, ideal, name):
    sa, survivors = quotient_structure(algebra, ideal.basis_vectors())
    paths = [algebra.basis[i] for i in survivors]
    preferred = [(algebra.quiver.arrows[p.arrows[0]].label, *sa.block_of[pos],
                  sa.unit_vec(pos)) for pos, p in enumerate(paths) if p.length == 1]
    rad_vecs = [sa.unit_vec(pos) for pos, p in enumerate(paths) if p.length >= 1]
    return present_structure_as_bound_quiver(sa, name, rad_vecs, preferred)


def factor_algebra(algebra: BoundQuiverAlgebra, ideal: Ideal) -> BoundQuiverAlgebra:
    """Quotient by a proper two-sided ideal.  The ideal holds e_v exactly
    for the vertices v that the quotient drops."""
    if ideal.algebra is not algebra:
        raise InputError("factor_algebra: ideal belongs to a different algebra")
    if ideal.dim == algebra.dim:
        raise InputError("factor_algebra: ideal is the whole algebra")
    if ideal.dim == 0:
        return algebra
    return _survivor_presentation(algebra, ideal, f"{algebra.name}/I")


def delete_vertices(algebra: BoundQuiverAlgebra, labels: Sequence[str],
                    name: Optional[str] = None) -> BoundQuiverAlgebra:
    """Quotient by the two-sided ideal generated by the idempotents e_v."""
    labels = list(labels)
    if not labels:
        return algebra
    seen = set()
    for lab in labels:
        algebra.quiver.vertex_index(lab)
        if lab in seen:
            raise InputError(f"delete_vertices: duplicate vertex {lab!r}")
        seen.add(lab)
    dead = sorted(algebra.quiver.vertex_index(lab) for lab in labels)
    keep = [v for v in range(algebra.n_vertices) if v not in dead]
    name = name or (algebra.name + "-e("
                    + ",".join(str(algebra.quiver.vertices[v]) for v in dead) + ")")
    if not keep:
        return construct_algebra(name, algebra.field, Quiver((), ()))
    ideal = Ideal.from_generators(algebra, [algebra.idempotent(v) for v in dead])
    return _survivor_presentation(algebra, ideal, name)
