"""Mutation of support pairs and the exchange graph.

One summand of a valid pair is exchanged at a time.  The direction
computed on the nose is "down": when the chosen summand X is not generated
by the rest, a minimal left approximation X -> Y into the additive closure
of the remaining summands has an indecomposable cokernel (the replacement),
or a zero cokernel (X leaves the module half and a vertex joins the
support).  Every pair sits below the free pair in the generation order, so
a breadth-first search using only down mutations visits the whole graph.
An "up" exchange is a down exchange over the opposite algebra: (M, P) |->
(Tr M_np + P*, M_p*) reverses the order between the pairs over A and over
A^op (Adachi-Iyama-Reiten 2014, Thm 2.14), and Tr X = D(tau X).

For pairwise non-isomorphic indecomposables T_i with End(T_i) local with
residue field k, the copies of T_i in the minimal left approximation of X
are a basis of Hom(X, T_i) modulo the span of the u . g, g in Hom(X, T_j),
u in rad(T_j, T_i): that is Hom(T_j, T_i) for j != i and the span of the
b - λ_b*id for j = i (Auslander-Reiten-Smalø 1995).  Certified: every
X -> T_i factors through the kept copies; left minimality then holds by
construction (``minimal_left_approximation``).
Nothing else about a valid pair is re-proved (Adachi-Iyama-Reiten 2014):
a zero cokernel needs exactly one vertex outside the support where the
rest vanishes (Lemma 2.1, Prop. 2.3); a nonzero cokernel C must be
indecomposable, new, and keep the module tau-rigid over A, which passes
to the support quotient (Lemma 2.1).  The remaining summands R are
already tau-rigid together, certified where their pair was reached, so
only the new blocks Hom(C, tau C), Hom(C, tau R) and Hom(R, tau C) are
checked.  By Thm 2.18 both always hold.  An enumeration, one mutation or
one single-pair report keeps a store of the summand classes met: one module
per class, whose tau, Hom bases, class-triple compositions, λ_b and name
are computed once; a name comes from the stored Hom bases alone.  A step
reads dim C = dim Y - rank f, f's blocks the kept homs' blocks stacked, and
C ~= K for a stored K off stored Homs (``_ClassStore``), with Y and C
unbuilt; it goes on with K.  Only a class not stored is built as coker f,
certified indecomposable by its λ_b (End(C) is local with residue field k)
and joins the store, new to every remaining summand; ``decompose`` only
words a refusal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .algebra import BoundQuiverAlgebra, opposite
from .decompose import _indec_iso, _local_or_split, decompose, iso_test
from .exceptions import CertificationError, InputError
from .linalg import Mat, Span, hstack, nullspace, rank
from .reps import (ModMap, Rep, cokernel, direct_sum, dual, hom_basis, linear_combination,
                   projective, simple)
from .tau import SttPair, _classify_valid_pair, tau, tau_data, validate_stt_pair


# ---------------------------------------------------------------------------
# Fac membership


def fac_contains(generators: Sequence[Rep], X: Rep, *, _store=None) -> bool:
    """Is X a quotient of a finite direct sum of the generators?  True iff
    the images of all homs into X jointly fill every vertex space."""
    if X.dim_total == 0:
        return True
    store = _ClassStore(()) if _store is None else _store
    F = X.algebra.field
    spans = [Span(F, d) for d in X.dims]
    for G in generators:
        if G.dim_total == 0:
            continue
        for h in store.hom(G, X):
            for v, blk in enumerate(h.blocks):
                for c in range(blk.ncols):
                    spans[v].add(tuple(blk.entry(r, c) for r in range(blk.nrows)))
    return all(spans[v].dim == X.dims[v] for v in range(len(spans)))


# ---------------------------------------------------------------------------
# Minimal left approximations


def minimal_left_approximation(X: Rep, targets: Sequence[Rep]):
    """A certified minimal left approximation of X into add(targets), which
    must be pairwise non-isomorphic indecomposables with split local End;
    other targets raise CertificationError.  Returns (f, kept) where kept
    lists the (target index, hom) copies forming the codomain of f in order:
    the basis homs X -> T_i that are new modulo the radical compositions.
    Every X -> T_i factors through them, which is certified.  Left minimal,
    every φ in End(Y) with φ.f = f invertible (Auslander-Reiten-Smalø 1995),
    holds by construction, as for a projective cover (Krause 2015): modulo
    rad End(Y) φ has blocks 0 between copies of T_j != T_i and μ*id between
    copies of T_i, so φ.f = f gives g_c = Σ_d μ_cd g_d modulo the radical
    compositions; the kept g_c are independent there, so μ = 1 and φ is a
    unit, id plus a radical element."""
    store = _ClassStore(())
    kept = _left_approximation(X, targets, store)
    return (_approximation_map(X, targets, kept, store),
            [(i, store.hom(X, targets[i])[c]) for i, c in kept])


def _left_approximation(X: Rep, targets: Sequence[Rep], store) -> list[tuple[int, int]]:
    """The kept copies, as (target index i, position in store.hom(X, T_i))."""
    F = X.algebra.field
    gs = {i: homs for i, T in enumerate(targets) if (homs := store.hom(X, T))}
    # comps[j, i][a][c] is the vector of u_a . g_c, u_a a basis hom T_j -> T_i
    comps = {(j, i): store.comps(X, targets[j], targets[i]) for j in gs for i in gs}
    vecs = {i: [g.vectorize() for g in homs] for i, homs in gs.items()}
    kept = []
    for i in gs:
        rad = Span(F, len(vecs[i][0]))
        for w in (w for j in gs if j != i for row in comps[j, i] for w in row):
            rad.add(w)
        if len(comps[i, i]) > 1:
            lams = store.lams(targets[i])
            if lams is None:
                raise CertificationError(f"approximation target {targets[i].dims_str()} "
                                         f"is not indecomposable with split local End")
            for lam, row in zip(lams, comps[i, i]):
                for w, g in zip(row, vecs[i]):
                    rad.add([F.sub(x, F.mul(lam, y)) for x, y in zip(w, g)])
        kept += [(i, c) for c, g in enumerate(vecs[i]) if rad.add(g)]
    for i in gs:   # every hom X -> T_i factors through the kept copies
        have = Span(F, len(vecs[i][0]))
        for j, c in kept:
            for row in comps[j, i]:
                have.add(row[c])
        if not all(have.contains(g) for g in vecs[i]):
            raise CertificationError(f"left approximation certificate failed: a hom into "
                                     f"{targets[i].dims_str()} does not factor through it")
    return kept


def _stacked_blocks(X: Rep, targets: Sequence[Rep], kept, store) -> list[Mat]:
    """f's block at each vertex: the kept homs' blocks there, stacked in order."""
    rows = [[r for i, c in kept for r in store.hom(X, targets[i])[c].blocks[v].rows]
            for v in range(len(X.dims))]
    return [Mat._make(X.algebra.field, len(rs), d, tuple(rs)) for rs, d in zip(rows, X.dims)]


def _approximation_map(X: Rep, targets: Sequence[Rep], kept, store) -> ModMap:
    """f: X -> Y, Y the direct sum of the kept copies' targets in order."""
    Y = direct_sum(X.algebra, [targets[i] for i, _ in kept]).rep
    return ModMap(X, Y, _stacked_blocks(X, targets, kept, store), check=False)


# ---------------------------------------------------------------------------
# Down mutation of a valid pair


@dataclass
class MutationStep:
    pair: SttPair            # the resulting pair
    removed: Rep             # the summand that left
    added: Optional[Rep]     # the new summand, or None when support grew
    new_support_vertex: Optional[int]


class _UpOnlySlot(InputError):
    """The summand at the slot is generated by the others, so it mutates
    only upwards; callers that try every slot skip it."""


class _ClassStore:
    """Certified-indecomposable, pairwise non-isomorphic canonical modules
    by dimension vector, with their facts (see the module docstring).  For
    C = coker(f: X -> Y = ⊕_c T_c), precomposing with Y -> C maps Hom(C, K)
    onto the h in ⊕_c Hom(T_c, K) with Σ_c h_c.g_c = 0, the nullspace of the
    columns comps(X, T_c, K)[a][c].  If dim K = dim C, h is onto K exactly
    when it induces an iso C -> K.  End(K) is local, so if C ~= K the
    non-isos are the proper subspace rad(C, K): some basis h is onto K."""

    def __init__(self, summands: Sequence[Rep], registry: Optional[IsoRegistry] = None):
        self.classes: dict[tuple, list[Rep]] = {}
        for K in summands:
            self.classes.setdefault(K.dims, []).append(K)
        self.registry, self._facts = registry, {}

    def _fact(self, key: tuple, compute):
        return self._facts[key] if key in self._facts else self._facts.setdefault(key, compute())

    def hom(self, X: Rep, Y: Rep) -> list[ModMap]:
        return self._fact(("hom", X, Y), lambda: hom_basis(X, Y))

    def comps(self, X: Rep, T: Rep, K: Rep) -> list[list[tuple]]:
        """[a][c]: the vector of u_a.g_c, u_a in hom(T, K), g_c in hom(X, T)."""
        return self._fact(("comps", X, T, K), lambda: [
            [u.compose(g).vectorize() for g in self.hom(X, T)] for u in self.hom(T, K)])

    def lams(self, T: Rep) -> Optional[list]:
        return self._fact(("lams", T), lambda: _local_or_split(T, self.hom(T, T))[1])

    def name(self, K: Rep) -> str:
        return self._fact(("name", K), lambda: self.registry.name_of(K, _hom=self.hom))

    def cokernel_class(self, X: Rep, targets, kept, dims: tuple) -> Optional[Rep]:
        """The stored K ~= coker(X -> ⊕ T_c), the kept copies of the targets
        (``_left_approximation``), of dimension vector ``dims``, or None."""
        F = X.algebra.field
        for K in self.classes.get(dims, ()):
            homs = [us for i, _ in kept if (us := self.hom(targets[i], K))]
            cols = [row[c] for i, c in kept for row in self.comps(X, targets[i], K)]
            for x in nullspace(Mat.from_rows(F, cols).transpose()):
                xs = iter(x)   # h = [h_c], h_c = Σ_a x_(c,a) u_a
                hs = [linear_combination(us, [next(xs) for _ in us]) for us in homs]
                if all(rank(hstack(F, [h.blocks[v] for h in hs], d)) == d
                       for v, d in enumerate(dims)):
                    return K
        return None


def mutate_down(pair: SttPair, slot: int, seed: int = 0, *, _store=None) -> MutationStep:
    """Exchange the module summand at ``slot`` downwards; requires that the
    summand is not generated by the others, and that the listed summands
    are the valid pair's indecomposable summands (``mutate`` checks this).
    A failed certificate names the algebra, the slot and the summand."""
    A = pair.algebra
    if not (0 <= slot < len(pair.summands)):
        raise InputError(f"no module summand at slot {slot}")
    store = _ClassStore(pair.summands) if _store is None else _store
    X = pair.summands[slot]
    rest = [s for i, s in enumerate(pair.summands) if i != slot]
    if fac_contains(rest, X, _store=store):
        raise _UpOnlySlot(
            "summand is generated by the others; this slot only mutates upwards"
        )
    try:
        return _exchange_down(pair, X, rest, seed, store)
    except CertificationError as err:
        raise CertificationError(
            f"mutation of {A.name} at slot {slot} (summand {X.dims_str()}) "
            f"failed certification: {err}") from err


def _exchange_down(pair: SttPair, X: Rep, rest: list[Rep], seed: int, store) -> MutationStep:
    A = pair.algebra
    kept = _left_approximation(X, rest, store)
    # dim C_v = dim Y_v - rank f_v
    dims = tuple(f_v.nrows - rank(f_v) for f_v in _stacked_blocks(X, rest, kept, store))
    if not any(dims):
        # rest is tau-rigid with n - |support| - 1 indecomposable summands; two
        # candidates would keep it so over n - |support| - 2 vertices (AIR 2.1)
        candidates = [v for v in range(A.n_vertices)
                      if v not in pair.support
                      and all(s.dims[v] == 0 for s in rest)]
        if len(candidates) != 1:
            raise CertificationError(f"support completion is not unique "
                                     f"({len(candidates)} candidate vertices)")
        v = candidates[0]
        new_pair = SttPair(A, tuple(rest), tuple(sorted(pair.support + (v,))))
        return MutationStep(new_pair, X, None, v)
    C = store.cokernel_class(X, rest, kept, dims)
    if C in rest:
        raise CertificationError("the exchange cokernel is isomorphic to a "
                                 "remaining summand")
    if C is None:   # a new class: build it, on the nose
        C, _ = cokernel(_approximation_map(X, rest, kept, store))
        if C.dims != dims:
            raise CertificationError(f"the exchange cokernel {C.dims_str()} does not have "
                                     f"the predicted dimension vector {dims}")
        if store.lams(C) is None:
            raise CertificationError(f"the exchange cokernel decomposed into "
                                     f"{decompose(C, seed=seed).multiplicities} "
                                     f"copies instead of one indecomposable")
        store.classes.setdefault(C.dims, []).append(C)
    # tau commutes with direct sums, so the new blocks add up to the
    # dimension of Hom(M, tau M) for the whole new module
    tC = tau(C)
    defect = len(store.hom(C, tC)) + sum(len(store.hom(C, tau(R))) + len(store.hom(R, tC))
                                         for R in rest)
    if defect:
        raise CertificationError(f"Hom(M, tau M) has dimension {defect}")
    return MutationStep(SttPair(A, tuple(rest) + (C,), pair.support), X, C, None)


# ---------------------------------------------------------------------------
# Canonical names for summand classes


class IsoRegistry:
    """Stable names for iso classes of modules: the projectives and simples
    get their standard names, anything else is named by dimension vector
    with a disambiguating suffix.  Most names go to indecomposable summands,
    but the ``tau`` subcommand also names tau(M), which need not be
    indecomposable.  P(v) has top S(v), so it is isomorphic to no P(w) or
    S(w) for w != v, and to S(v) exactly when it is simple, that is when the
    two share a dimension vector: then the class is named P(v)."""

    def __init__(self, algebra: BoundQuiverAlgebra, seed: int = 0):
        self.algebra = algebra
        self.seed = seed
        self._entries: dict[str, Rep] = {}   # name -> module, in order of naming
        for v, lab in enumerate(algebra.quiver.vertices):
            P, S = projective(algebra, v), simple(algebra, v)
            self._entries[f"P({lab})"] = P
            if S.dims != P.dims:
                self._entries[f"S({lab})"] = S

    def name_of(self, rep: Rep, *, _hom=None) -> str:
        """The name of rep's class, a fresh one for an unseen class.  A
        certified indecomposable rep is matched by ``_hom``'s bases alone."""
        for name, rep0 in self._entries.items():
            if rep0.dims == rep.dims and (
                    _indec_iso(rep, rep0, _hom) is not None if _hom
                    else iso_test(rep, rep0, seed=self.seed).isomorphic):
                return name
        base = name = "M(" + ",".join(str(d) for d in rep.dims) + ")"
        k = 1
        while name in self._entries:
            k += 1
            name = f"{base}#{k}"
        self._entries[name] = rep
        return name


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
    # the enumeration's class store, for the reports on its nodes
    _store: Optional[_ClassStore] = field(default=None, repr=False, compare=False)

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
    if max_nodes < 1:
        raise InputError(f"--max-nodes must be at least 1, got {max_nodes}")
    if algebra.is_zero_algebra:
        raise InputError("cannot enumerate pairs over the zero algebra")
    # valid by construction: each P(v) has local End, their tops differ, tau P(v) = 0
    projs = [projective(algebra, v) for v in range(algebra.n_vertices)]
    store = _ClassStore(projs, registry or IsoRegistry(algebra, seed=seed))
    names, root = _sorted_pair([compact_label(store.name(s)) for s in projs],
                               SttPair(algebra, tuple(projs), ()))
    found = [(pair_key(names), root, names)]   # breadth first: walked as it grows
    keys = {found[0][0]}
    edges: list[GraphEdge] = []
    for key, pair, names in found:
        for slot in range(len(pair.summands)):
            try:
                step = mutate_down(pair, slot, seed=seed, _store=store)
            except _UpOnlySlot:
                continue   # mutating this slot goes up; the edge is found
                           # from the other endpoint
            except CertificationError as err:
                raise CertificationError(
                    f"at node {key}, summand {names[slot]}: {err}") from err
            # the other summands keep their names and order; only C is new
            new_names = names[:slot] + names[slot + 1:]
            if step.added is None:
                lab = algebra.quiver.vertices[step.new_support_vertex]
                added = compact_label(f"P({lab})")
            else:
                added = compact_label(store.name(step.added))
                new_names += (added,)
            new_names, new_pair = _sorted_pair(new_names, step.pair)
            new_key = pair_key(new_names)
            if new_key not in keys:
                if len(keys) >= max_nodes:
                    raise CertificationError(
                        f"enumeration budget exceeded: more than {max_nodes} "
                        f"nodes; rerun with a larger --max-nodes"
                    )
                keys.add(new_key)
                found.append((new_key, new_pair, new_names))
            edges.append(GraphEdge(key, new_key, names[slot], added))

    # every node is already validated: the root by construction, the others
    # by the certificate of the mutate_down that reached them
    return ExchangeGraph(algebra, tuple(
        GraphNode(key, pair, names, _classify_valid_pair(algebra, pair.summands, pair.support))
        for key, pair, names in found), tuple(edges), store)


def mutate(pair: SttPair, slot: int, seed: int = 0) -> SttPair:
    """Exchange the summand at ``slot`` (an index into the module summands,
    or, counting onwards, into the support vertices).  Down mutations are
    computed directly.  An up mutation is a down mutation of the dual pair
    over A^op at the chosen slot's image; the other summands are kept, and
    only the new one is carried back."""
    A = pair.algebra
    val = validate_stt_pair(A, pair.summands, pair.support, seed=seed)
    if not val.ok:
        raise InputError("cannot mutate an invalid pair: " + "; ".join(val.reasons))
    if val.summand_classes != len(pair.summands):
        raise InputError("cannot mutate a pair that lists a decomposable summand")
    n_mods = len(pair.summands)
    if not 0 <= slot < n_mods + len(pair.support):
        raise InputError(f"slot {slot} out of range for the pair")
    others = tuple(s for i, s in enumerate(pair.summands) if i != slot)
    if slot < n_mods:
        try:
            return mutate_down(pair, slot, seed=seed).pair
        except _UpOnlySlot:
            pass   # the summand is generated by the others: an up-step
    Aop = opposite(A)
    if slot < n_mods:
        # the summand is generated by the others, so it is not projective
        chosen, support = dual(tau(pair.summands[slot]), Aop), pair.support
    else:
        v = pair.support[slot - n_mods]
        chosen = projective(Aop, v)
        support = tuple(w for w in pair.support if w != v)

    # the dual pair (Tr M_np + P*, M_p*) over A^op, the chosen slot first
    op_summands, op_support = [chosen], []
    for Y in others:
        td = tau_data(Y)
        if td.tau.dim_total:
            op_summands.append(dual(td.tau, Aop))
        else:
            op_support.append(td.presentation.p0_vertices[0])   # Y = P(v)
    op_summands += [projective(Aop, w) for w in support]
    step = mutate_down(SttPair(Aop, tuple(op_summands), tuple(sorted(op_support))),
                       0, seed=seed)
    # a new summand over A^op is never projective: it would lie in add(rest)
    new = (projective(A, step.new_support_vertex) if step.added is None
           else dual(tau(step.added), A))
    return SttPair(A, others + (new,), support)
