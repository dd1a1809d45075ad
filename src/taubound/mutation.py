"""Mutation of support pairs and the exchange graph.

One summand of a valid pair is exchanged at a time.  The computable
direction is "down": when the chosen summand X is not generated by the
rest, a minimal left approximation X -> Y into the additive closure of the
remaining summands has an indecomposable cokernel (the replacement), or a
zero cokernel (X leaves the module half and a vertex joins the support).
Every pair sits below the free pair in the generation order, so a
breadth-first search using only down mutations visits the whole graph.

Minimality of the approximation is certified on the nose: f: X -> Y is
left minimal iff the left ideal of endomorphisms of Y killing f lies in
rad End(Y), that is, iff it acts nilpotently on Y.
Nothing else about a valid pair is re-proved (Adachi-Iyama-Reiten 2014):
a zero cokernel needs exactly one vertex outside the support where the
rest vanishes (Lemma 2.1, Prop. 2.3); a nonzero cokernel must be
indecomposable, new, and keep the module tau-rigid over A, which passes
to the support quotient (Lemma 2.1).  By Thm 2.18 both always hold.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import BoundQuiverAlgebra
from .decompose import _indec_iso, decompose, iso_test
from .exceptions import CertificationError, InputError
from .linalg import Mat, Span, nullspace
from .reps import (ModMap, Rep, acts_nilpotently, cokernel, direct_sum, hom_basis,
                   linear_combination, projective, simple, zero_map, zero_rep)
from .tau import SttPair, _classify_valid_pair, hom_to_tau, validate_stt_pair


# ---------------------------------------------------------------------------
# Fac membership


def fac_contains(generators: Sequence[Rep], X: Rep) -> bool:
    """Is X a quotient of a finite direct sum of the generators?  True iff
    the images of all homs into X jointly fill every vertex space."""
    if X.dim_total == 0:
        return True
    F = X.algebra.field
    spans = [Span(F, d) for d in X.dims]
    for G in generators:
        if G.dim_total == 0:
            continue
        for h in hom_basis(G, X):
            for v, blk in enumerate(h.blocks):
                for c in range(blk.ncols):
                    spans[v].add(tuple(blk.entry(r, c) for r in range(blk.nrows)))
    return all(spans[v].dim == X.dims[v] for v in range(len(spans)))


# ---------------------------------------------------------------------------
# Minimal left approximations


def _is_left_approximation(f: ModMap, targets: Sequence[Rep]) -> bool:
    """Does every hom from f.source into each target factor through f?"""
    X, Y = f.source, f.target
    F = X.algebra.field
    for T in targets:
        need = hom_basis(X, T)
        if not need:
            continue
        have = Span(F, len(need[0].vectorize()))
        for u in hom_basis(Y, T):
            have.add(u.compose(f).vectorize())
        if not all(have.contains(g.vectorize()) for g in need):
            return False
    return True


def _certify_left_minimal(f: ModMap):
    """Raise unless {psi in End(Y) : psi . f = 0} is inside rad End(Y).

    That set is a left ideal of End(Y), and a left ideal lies in the
    radical exactly when it is nilpotent, which its action on Y decides."""
    Y = f.target
    if Y.dim_total == 0:
        return
    maps = hom_basis(Y, Y)
    cols = [m.compose(f).vectorize() for m in maps]
    veclen = len(cols[0])
    assert veclen > 0, "nonzero approximation with empty hom coordinates"
    mat = Mat(Y.algebra.field, veclen, len(cols),
              [[cols[j][i] for j in range(len(cols))] for i in range(veclen)])
    killers = [linear_combination(maps, w) for w in nullspace(mat)]
    if not acts_nilpotently(Y, killers):
        raise CertificationError(
            "left approximation minimality could not be certified: an "
            "endomorphism outside the radical annihilates it"
        )


def minimal_left_approximation(X: Rep, targets: Sequence[Rep]):
    """A certified minimal left approximation of X into add(targets).

    Returns (f, kept) where kept is the list of (target index, hom) copies
    forming the codomain of f in order."""
    A = X.algebra
    copies: list[tuple[int, ModMap]] = []
    for ti, T in enumerate(targets):
        for h in hom_basis(X, T):
            copies.append((ti, h))

    def build(sel: Sequence[tuple[int, ModMap]]) -> ModMap:
        if not sel:
            return zero_map(X, zero_rep(A))
        ds = direct_sum(A, [targets[ti] for ti, _ in sel])
        f = None
        for (ti, h), incl in zip(sel, ds.inclusions):
            term = incl.compose(h)
            f = term if f is None else f.add(term)
        return f

    # greedy deletion until no copy can be dropped
    changed = True
    while changed:
        changed = False
        for i in range(len(copies)):
            trial = copies[:i] + copies[i + 1:]
            if _is_left_approximation(build(trial), targets):
                copies = trial
                changed = True
                break
    f = build(copies)
    assert _is_left_approximation(f, targets)
    _certify_left_minimal(f)
    return f, copies


# ---------------------------------------------------------------------------
# Down mutation of a valid pair


@dataclass
class MutationStep:
    pair: SttPair            # the resulting pair
    removed: Rep             # the summand that left
    added: Optional[Rep]     # the new summand, or None when support grew
    new_support_vertex: Optional[int]


def mutate_down(pair: SttPair, slot: int, seed: int = 0) -> MutationStep:
    """Exchange the module summand at ``slot`` downwards; requires that the
    summand is not generated by the others, and that the listed summands
    are the valid pair's indecomposable summands (``mutate`` checks this)."""
    A = pair.algebra
    if not (0 <= slot < len(pair.summands)):
        raise InputError(f"no module summand at slot {slot}")
    X = pair.summands[slot]
    rest = [s for i, s in enumerate(pair.summands) if i != slot]
    if fac_contains(rest, X):
        raise InputError(
            "summand is generated by the others; this slot only mutates upwards"
        )
    f, _ = minimal_left_approximation(X, rest)
    C, _ = cokernel(f)
    if C.dim_total == 0:
        # rest is tau-rigid with n - |support| - 1 indecomposable summands; two
        # candidates would keep it so over n - |support| - 2 vertices (AIR 2.1)
        candidates = [v for v in range(A.n_vertices)
                      if v not in pair.support
                      and all(s.dims[v] == 0 for s in rest)]
        if len(candidates) != 1:
            raise CertificationError(
                f"mutation failed certification: support completion is not "
                f"unique ({len(candidates)} candidate vertices)"
            )
        v = candidates[0]
        new_pair = SttPair(A, tuple(rest), tuple(sorted(pair.support + (v,))))
        return MutationStep(new_pair, X, None, v)
    dec = decompose(C, seed=seed)
    if len(dec.class_reps) != 1 or dec.multiplicities[0] != 1:
        raise CertificationError(
            f"mutation failed certification: the exchange cokernel decomposed "
            f"into {dec.multiplicities} copies instead of one indecomposable"
        )
    if any(_indec_iso(C, R) is not None for R in rest):
        raise CertificationError("mutation failed certification: the exchange "
                                 "cokernel is isomorphic to a remaining summand")
    new_pair = SttPair(A, tuple(rest) + (C,), pair.support)
    defect = hom_to_tau(new_pair.module())
    if defect:
        raise CertificationError("mutation failed certification: Hom(M, tau M) "
                                 f"has dimension {defect}")
    return MutationStep(new_pair, X, C, None)


# ---------------------------------------------------------------------------
# Canonical names for summand classes


class IsoRegistry:
    """Stable names for iso classes of modules: the projectives and simples
    get their standard names, anything else is named by dimension vector
    with a disambiguating suffix.  Most names go to indecomposable summands,
    but the ``tau`` subcommand also names tau(M), which need not be
    indecomposable."""

    def __init__(self, algebra: BoundQuiverAlgebra, seed: int = 0):
        self.algebra = algebra
        self.seed = seed
        self._entries: list[tuple[Rep, str]] = []
        self._names: set[str] = set()
        for v in range(algebra.n_vertices):
            lab = algebra.quiver.vertices[v]
            self._intern(projective(algebra, v), f"P({lab})")
            self._intern(simple(algebra, v), f"S({lab})")

    def _intern(self, rep: Rep, name: Optional[str]) -> str:
        """The name of rep's class; an unseen class is recorded under
        ``name``, or under a fresh dimension-vector name when that is None."""
        for rep0, name0 in self._entries:
            if rep0.dims == rep.dims and \
                    iso_test(rep, rep0, seed=self.seed).isomorphic:
                return name0
        if name is None:
            base = "M(" + ",".join(str(d) for d in rep.dims) + ")"
            name = base
            k = 1
            while name in self._names:
                k += 1
                name = f"{base}#{k}"
        assert name not in self._names
        self._entries.append((rep, name))
        self._names.add(name)
        return name

    def name_of(self, rep: Rep) -> str:
        return self._intern(rep, None)


# ---------------------------------------------------------------------------
# Exchange graph enumeration


@dataclass
class GraphNode:
    key: str
    pair: SttPair
    summand_names: tuple[str, ...]
    classification: str


@dataclass
class GraphEdge:
    src: str
    dst: str
    removed: str   # name of the summand that left the module half
    added: str     # name of the new summand, or P(v) when support grew


@dataclass
class ExchangeGraph:
    algebra: BoundQuiverAlgebra
    nodes: tuple[GraphNode, ...]
    edges: tuple[GraphEdge, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def node(self, key: str) -> GraphNode:
        for n in self.nodes:
            if n.key == key:
                return n
        raise KeyError(key)


_PS_NAME_RE = re.compile(r"^([PS])\((.*)\)$")


def compact_label(name: str) -> str:
    """Graph-facing spelling of a summand name: P(1) -> P1, S(2) -> S2."""
    m = _PS_NAME_RE.match(name)
    return m.group(1) + m.group(2) if m else name


def pair_key(names: Sequence[str]) -> str:
    """Canonical node name: sorted summand labels joined by '+', or '0'.

    The support is not part of the key: a valid pair's module half is
    sincere over the support quotient, so the support is exactly the set
    of vertices where the module half vanishes."""
    return "+".join(names) if names else "0"


def _sorted_pair(names: Sequence[str], pair: SttPair):
    """Sort the summands by their names, which are given in summand order."""
    named = sorted(zip(names, pair.summands), key=lambda t: t[0])
    names = tuple(n for n, _ in named)
    pair = SttPair(pair.algebra, tuple(s for _, s in named), pair.support)
    return names, pair


def enumerate_stt(algebra: BoundQuiverAlgebra, max_nodes: int = 4096,
                  seed: int = 0,
                  registry: Optional[IsoRegistry] = None) -> ExchangeGraph:
    """Breadth-first enumeration of all support pairs by down mutation from
    the free pair (all projectives, empty support)."""
    if algebra.is_zero_algebra:
        raise InputError("cannot enumerate pairs over the zero algebra")
    if registry is None:
        registry = IsoRegistry(algebra, seed=seed)
    projs = [projective(algebra, v) for v in range(algebra.n_vertices)]
    root = SttPair(algebra, tuple(projs), ())
    val = validate_stt_pair(algebra, root.summands, root.support, seed=seed)
    assert val.ok, "the free pair failed validation"

    names, root = _sorted_pair(
        [compact_label(registry.name_of(s)) for s in root.summands], root)
    root_key = pair_key(names)
    order: list[str] = [root_key]
    node_pairs: dict[str, tuple[SttPair, tuple[str, ...]]] = {root_key: (root, names)}
    edges: list[GraphEdge] = []
    queue = [root_key]
    while queue:
        key = queue.pop(0)
        pair, names = node_pairs[key]
        for slot in range(len(pair.summands)):
            X = pair.summands[slot]
            rest = [s for i, s in enumerate(pair.summands) if i != slot]
            if fac_contains(rest, X):
                continue   # mutating this slot goes up; the edge is found
                           # from the other endpoint
            step = mutate_down(pair, slot, seed=seed)
            # the other summands keep their names and order; only C is new
            new_names = names[:slot] + names[slot + 1:]
            if step.added is None:
                lab = algebra.quiver.vertices[step.new_support_vertex]
                added = compact_label(f"P({lab})")
            else:
                added = compact_label(registry.name_of(step.added))
                new_names += (added,)
            new_names, new_pair = _sorted_pair(new_names, step.pair)
            new_key = pair_key(new_names)
            if new_key not in node_pairs:
                if len(node_pairs) >= max_nodes:
                    raise CertificationError(
                        f"enumeration budget exceeded: more than {max_nodes} "
                        f"nodes; rerun with a larger --max-nodes"
                    )
                node_pairs[new_key] = (new_pair, new_names)
                order.append(new_key)
                queue.append(new_key)
            edges.append(GraphEdge(key, new_key, names[slot], added))

    # every node is already validated: the root above, the others by the
    # certificate of the mutate_down that reached them
    nodes = []
    for key in order:
        pair, names = node_pairs[key]
        cls = _classify_valid_pair(algebra, pair.summands, pair.support)
        nodes.append(GraphNode(key, pair, names, cls))
    return ExchangeGraph(algebra, tuple(nodes), tuple(edges))


def mutate(pair: SttPair, slot: int, seed: int = 0,
           max_nodes: int = 4096) -> SttPair:
    """Exchange the summand at ``slot`` (an index into the module summands,
    or, counting onwards, into the support vertices).  Down mutations are
    computed directly; up mutations are read off the enumerated graph."""
    A = pair.algebra
    val = validate_stt_pair(A, pair.summands, pair.support, seed=seed)
    if not val.ok:
        raise InputError("cannot mutate an invalid pair: " + "; ".join(val.reasons))
    if val.summand_classes != len(pair.summands):
        raise InputError("cannot mutate a pair that lists a decomposable summand")
    n_mods = len(pair.summands)
    if 0 <= slot < n_mods:
        X = pair.summands[slot]
        rest = [s for i, s in enumerate(pair.summands) if i != slot]
        if not fac_contains(rest, X):
            return mutate_down(pair, slot, seed=seed).pair
        removed_name = None
    elif n_mods <= slot < n_mods + len(pair.support):
        lab = A.quiver.vertices[pair.support[slot - n_mods]]
        removed_name = compact_label(f"P({lab})")
    else:
        raise InputError(f"slot {slot} out of range for the pair")

    registry = IsoRegistry(A, seed=seed)
    graph = enumerate_stt(A, max_nodes=max_nodes, seed=seed, registry=registry)
    key = pair_key(sorted(compact_label(registry.name_of(s)) for s in pair.summands))
    if removed_name is None:
        removed_name = compact_label(registry.name_of(pair.summands[slot]))
    # the up mutation at this slot is the unique edge into our node whose
    # replacement is the chosen summand
    for e in graph.edges:
        if e.dst == key and e.added == removed_name:
            return graph.node(e.src).pair
    raise RuntimeError(f"no upward exchange found for slot {removed_name} at {key}")
