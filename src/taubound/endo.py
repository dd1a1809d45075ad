"""Endomorphism algebras, their quiver presentations, and derived-dimension
estimates.

For a list of summands T_1, ..., T_t the endomorphism algebra of the direct
sum is assembled blockwise: the (u, v) block is Hom(T_v, T_u), multiplication
is composition (apply the right factor first), and the identities of the
diagonal blocks are the designated orthogonal idempotents.  With that
convention e_u B e_v corresponds to the paths u -> v of the presented
quiver, matching the path-algebra convention: presenting End of the free
module recovers the original quiver with the same orientation.

An estimate of a basic B = kQ/I, I admissible, needs no presentation: B is
semisimple iff dim B = n; Q has dim e_u(rad B)e_v - dim e_u(rad^2 B)e_v
arrows u -> v; on a Dynkin Q, I = 0 iff dim B is the number of paths of Q;
and the Loewy length is the length of the chain of radical powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from .algebra import (Arrow, BoundQuiverAlgebra, Quiver, StructureAlgebra,
                      ideal_powers, loewy_length,
                      present_structure_as_bound_quiver)
from .decompose import iso_test
from .exceptions import CertificationError, InputError
from .linalg import Span, coordinates, unit_vector
from .mutation import _ClassStore
from .reps import ModMap, Rep, identity_map


@dataclass
class EndoAlgebra:
    """End(T_1 + ... + T_t) with its block bookkeeping."""
    sa: StructureAlgebra
    summands: tuple[Rep, ...]
    basis_maps: tuple[ModMap, ...]
    diag_offsets: tuple[int, ...]          # position of id_{T_u} in the basis
    # per summand, the λ_b of its other diagonal basis elements; None when
    # End(T_u) is not local with residue field k
    lams: tuple[Optional[list], ...]

    @property
    def dim(self) -> int:
        return self.sa.dim


def endo_algebra(summands: Sequence[Rep],
                 labels: Optional[Sequence[str]] = None, *,
                 _store=None) -> EndoAlgebra:
    """With an enumeration's class store ``_store``, the summands are its
    classes, distinct by its certificate; without one they are checked
    pairwise non-isomorphic, and a throwaway store gives Hom bases and λ_b."""
    t = len(summands)
    if t == 0:
        raise InputError("endo_algebra: empty summand list")
    A = summands[0].algebra
    for s in summands:
        if s.algebra is not A:
            raise InputError(f"endo_algebra: summands over {A.name} and {s.algebra.name}")
    F = A.field
    if _store is None:
        # the presentation below reads off local blocks, so repeats are rejected
        for u in range(t):
            for v in range(u + 1, t):
                if summands[u].dims == summands[v].dims and \
                        iso_test(summands[u], summands[v]).isomorphic:
                    raise InputError("summands must be pairwise non-isomorphic")
        _store = _ClassStore(summands)
    labels = tuple(labels) if labels is not None else tuple(str(k + 1) for k in range(t))

    basis_maps: list[ModMap] = []
    block_of: list[tuple[int, int]] = []
    block_range: dict[tuple[int, int], tuple[int, int]] = {}
    diag_offsets = [0] * t
    lams: list[Optional[list]] = []
    for u in range(t):
        for v in range(t):
            homs = _store.hom(summands[v], summands[u])
            if u == v:
                ident = identity_map(summands[u])
                span = Span(F, len(ident.vectorize()) or 1)
                kept = []
                if ident.vectorize():
                    span.add(ident.vectorize())
                    kept = [c for c, h in enumerate(homs) if span.add(h.vectorize())]
                lam = _store.lams(summands[u]) if kept else []   # else End(T_u) = k*id
                lams.append(None if lam is None else [lam[c] for c in kept])
                homs = [ident] + [homs[c] for c in kept]
                diag_offsets[u] = len(basis_maps)
            start = len(basis_maps)
            basis_maps.extend(homs)
            block_of.extend([(u, v)] * len(homs))
            block_range[(u, v)] = (start, len(basis_maps))

    # products b_i b_j are nonzero only when the blocks chain; each lands in
    # the block (u_i, v_j) and is solved for there, all of a block at once
    dim = len(basis_maps)
    landing: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i in range(dim):
        for j in range(dim):
            if block_of[i][1] == block_of[j][0]:
                landing.setdefault((block_of[i][0], block_of[j][1]), []).append((i, j))
    table = [[(F.zero,) * dim] * dim for _ in range(dim)]
    for key, pairs in landing.items():
        s, e = block_range[key]
        coords = coordinates(F, [basis_maps[k].vectorize() for k in range(s, e)],
                             [basis_maps[i].compose(basis_maps[j]).vectorize()
                              for i, j in pairs])
        for (i, j), local in zip(pairs, coords):
            out = [F.zero] * dim
            out[s:e] = local
            table[i][j] = tuple(out)
    idempotents = [unit_vector(F, dim, diag_offsets[u]) for u in range(t)]
    sa = StructureAlgebra(F, tuple(tuple(row) for row in table), idempotents,
                          labels, block_of)
    return EndoAlgebra(sa, tuple(summands), tuple(basis_maps), tuple(diag_offsets),
                       tuple(lams))


def _radical_vectors(endo: EndoAlgebra) -> list[tuple]:
    """The radical, assembled structurally: all off-diagonal blocks plus the
    radical of each local End(T_u), spanned by the b - λ_b*id for the other
    basis elements b of its block, λ_b from the class store.  A summand
    whose End(T_u)/rad is not k (decomposable, or with a non-split End)
    fails certification."""
    sa = endo.sa
    F = sa.field
    rad_vectors = [sa.unit_vec(i) for i, (u, v) in enumerate(sa.block_of) if u != v]
    for u, lams in enumerate(endo.lams):
        ident = endo.diag_offsets[u]
        idx = [i for i in sa.block(u, u) if i != ident]
        if lams is None:
            raise CertificationError(
                f"non-split block: End(T) of summand {sa.vertex_labels[u]} is "
                f"not local with residue field {F.name}"
            )
        for i, lam in zip(idx, lams):
            out = list(sa.unit_vec(i))
            out[ident] = F.neg(lam)
            rad_vectors.append(tuple(out))
    return rad_vectors


def quiver_presentation(endo: EndoAlgebra, name: str = "End") -> BoundQuiverAlgebra:
    """Present the endomorphism algebra by quiver and relations."""
    return present_structure_as_bound_quiver(endo.sa, name, _radical_vectors(endo))


def endo_estimate(endo: EndoAlgebra, name: str,
                  registry: Optional[DerdimRegistry] = None) -> DerdimEstimate:
    """derdim_estimate(quiver_presentation(endo, name), registry), read off
    the radical layers of the structure table."""
    powers = ideal_powers(endo.sa, _radical_vectors(endo))   # rad, rad^2, ..., 0
    square = powers[1] if len(powers) > 1 else {}
    arrows = [b for b, vecs in powers[0].items()
              for _ in range(len(vecs) - len(square.get(b, ())))]
    return estimate_from_layers(name, endo.dim, endo.sa.n_vertices, arrows,
                                lambda: len(powers), registry)


# ---------------------------------------------------------------------------
# Hereditary / Dynkin recognition and derived-dimension estimates


def is_hereditary(B: BoundQuiverAlgebra) -> bool:
    """kQ/I with I admissible is hereditary exactly when I = 0: a basic
    hereditary algebra is the path algebra of its own quiver (Assem-Simson-
    Skowronski, Vol. 1, 2006, VII.1), and every listed relation is a
    nonzero element of kQ."""
    return not B.relations


def _path_count(quiver: Quiver) -> int:
    """The number of paths of a quiver whose underlying graph is a forest."""
    count, ends = 0, list(range(quiver.n_vertices))
    while ends:
        count += len(ends)
        ends = [a.target for v in ends for a in quiver.arrows if a.source == v]
    return count


def dynkin_type(quiver: Quiver) -> Optional[str]:
    """ADE type of the underlying graph ("A2", "D4", "A1 x A2", ...), or None."""
    n = quiver.n_vertices
    if n == 0:
        return None
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    seen_pairs = set()
    for a in quiver.arrows:
        if a.source == a.target:
            return None
        pair = (min(a.source, a.target), max(a.source, a.target))
        if pair in seen_pairs:
            return None
        seen_pairs.add(pair)
        adj[a.source].append(a.target)
        adj[a.target].append(a.source)
    unvisited = set(range(n))
    comps = []
    for start in range(n):
        if start not in unvisited:
            continue
        unvisited.discard(start)
        comp, stack = [start], [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w in unvisited:
                    unvisited.discard(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    labels = []
    for comp in comps:
        edges = sum(len(adj[v]) for v in comp) // 2
        if edges != len(comp) - 1:
            return None
        degs = {v: len(adj[v]) for v in comp}
        branch = [v for v in comp if degs[v] >= 3]
        if not branch:
            labels.append(f"A{len(comp)}")
            continue
        if len(branch) > 1 or degs[branch[0]] != 3:
            return None
        b = branch[0]
        arms = []
        for w in adj[b]:
            length, prev, cur = 1, b, w
            while degs[cur] == 2:
                nxt = [x for x in adj[cur] if x != prev][0]
                prev, cur = cur, nxt
                length += 1
            arms.append(length)
        arms.sort()
        a1, a2, a3 = arms
        if (a1, a2) == (1, 1):
            labels.append(f"D{a3 + 3}")
        elif (a1, a2, a3) == (1, 2, 2):
            labels.append("E6")
        elif (a1, a2, a3) == (1, 2, 3):
            labels.append("E7")
        elif (a1, a2, a3) == (1, 2, 4):
            labels.append("E8")
        else:
            return None
    labels.sort()
    return " x ".join(labels)


@dataclass(frozen=True)
class DerdimEstimate:
    value: int
    kind: str         # "exact" | "upper"
    provenance: str   # "registry" | "rule:semisimple" | "rule:hereditary-dynkin"
                      # | "loewy-bound" | "derived-equivalence:<inner>"

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    def to_json_dict(self) -> dict:
        return {"value": self.value, "kind": self.kind, "provenance": self.provenance}


# registry: algebra name -> ("exact" | "upper", value)
DerdimRegistry = Mapping[str, tuple[str, int]]


def estimate_from_layers(name: str, dim: int, n_vertices: int,
                         arrows: Sequence[tuple[int, int]], loewy: Callable[[], int],
                         registry: Optional[DerdimRegistry] = None) -> DerdimEstimate:
    """derdim_estimate of a basic algebra kQ/I, I admissible, from its name,
    dim, vertex count, the (source, target) of each arrow of Q, and a thunk
    for its Loewy length (module docstring)."""
    entry = (registry or {}).get(name)
    if entry is not None and entry[0] == "exact":
        return DerdimEstimate(entry[1], "exact", "registry")
    if dim == n_vertices:
        return DerdimEstimate(0, "exact", "rule:semisimple")
    quiver = Quiver(tuple(f"v{u}" for u in range(n_vertices)),
                    tuple(Arrow(f"a{k}", u, v) for k, (u, v) in enumerate(arrows)))
    if dynkin_type(quiver) is not None and dim == _path_count(quiver):
        return DerdimEstimate(0, "exact", "rule:hereditary-dynkin")
    candidates = [DerdimEstimate(loewy() - 1, "upper", "loewy-bound")]
    if entry is not None:
        candidates.append(DerdimEstimate(entry[1], "upper", "registry"))
    candidates.sort(key=lambda e: (e.value, 0 if e.provenance == "registry" else 1))
    return candidates[0]


def derdim_estimate(B: BoundQuiverAlgebra,
                    registry: Optional[DerdimRegistry] = None) -> DerdimEstimate:
    """Best available estimate of the derived (Rouquier) dimension of mod B."""
    if B.is_zero_algebra:
        raise InputError("derdim_estimate: the zero algebra has no estimate")
    return estimate_from_layers(B.name, B.dim, B.n_vertices,
                                [(a.source, a.target) for a in B.quiver.arrows],
                                lambda: loewy_length(B), registry)


def merge_estimates(a: DerdimEstimate, b: DerdimEstimate) -> DerdimEstimate:
    """Combine two estimates known to describe the same quantity; a
    contradiction between them is a failed certificate."""
    if a.is_exact and b.is_exact:
        if a.value != b.value:
            raise CertificationError(
                f"inconsistent exact derived-dimension estimates: "
                f"{a.value} ({a.provenance}) vs {b.value} ({b.provenance})"
            )
        return a
    if a.is_exact:
        if b.kind == "upper" and b.value < a.value:
            raise CertificationError(
                f"upper estimate {b.value} ({b.provenance}) below exact "
                f"value {a.value} ({a.provenance})"
            )
        return a
    if b.is_exact:
        return merge_estimates(b, a)
    return a if a.value <= b.value else b
