"""Verification reports for the derived-dimension bound.

For a sincere valid pair with module M over A, put r = nilpotency index of
ann(M) and B = End(M).  The inequality under test is

    derdim(A) <= r * (1 + derdim(B)) - 1.

Exact values are rarely available, so both sides are tracked as estimates
(exact or upper) and refined through certified derived equivalences:

* When the pair is tilting, M is faithful (AIR Prop. 2.2), so r = 1 and
  A and B themselves are derived equivalent: their estimates merge, on
  the certificates that classified the pair.
* Otherwise M is a tilting module over the proper quotient C = A / ann(M),
  again on the pair's own certificates (Adachi-Iyama-Reiten, *tau-tilting
  theory*, 2014): M is tau_C-rigid as it is tau_A-rigid (Lemma 2.1), with
  n summands over C, which has A's n vertices (Hom_C = Hom_A), so M is
  tilting over C (Prop. 2.2); estimates for C then transfer to B.

B and C are estimated off their radical layers, not presented (``endo``):
C = A/ann has dim A - dim ann, the arrows u -> v of C number
dim e_u(rad A)e_v - dim e_u(rad^2 A + ann)e_v, where rad^2 A is the span of
the basis paths of length >= 2, and LL(C) = LL(M), as M is faithful over C.
C is estimated without the registry, as every annihilator quotient is
named ``A/I``.  A single pair's validation certifies its summands
indecomposable and pairwise non-isomorphic, so, as an enumeration's nodes
do, they are named and give End(M) through a class store.  A report never silently repairs an inconsistency: two
estimates of one quantity that contradict each other raise InputError
when a registry entry is involved, and CertificationError otherwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import (BoundQuiverAlgebra, Ideal, Quiver, construct_algebra,
                      factor_algebra, loewy_length)
from .endo import (DerdimEstimate, DerdimRegistry, derdim_estimate,
                   endo_algebra, endo_estimate, estimate_from_layers,
                   merge_estimates)
from .exceptions import CertificationError, InputError
from .linalg import Span
from .mutation import (ExchangeGraph, GraphNode, IsoRegistry, _ClassStore, _sorted_pair,
                       compact_label, enumerate_stt, pair_key)
from .reps import (Rep, _layer_walk, annihilator, annihilator_dim, direct_sum, ext1_dim,
                   projective_dimension, restrict_to_quotient)
from .tau import SttPair, _classify_valid_pair, validate_stt_pair


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# The annihilator quotient and the tilting re-check


def quotient_by_annihilator(algebra: BoundQuiverAlgebra, M: Rep):
    """(C, ann, M as a C-module) where C = A / ann(M), built in one quotient
    step: the idempotent of each vertex where M vanishes lies in ann(M), so
    the quotient drops that vertex.  M = 0 gives the zero algebra."""
    ann = annihilator(M)
    if ann.dim == algebra.dim:
        C = construct_algebra(f"{algebra.name}/I", algebra.field, Quiver((), ()))
    else:
        C = factor_algebra(algebra, ann)
    return C, ann, (M if C is algebra else restrict_to_quotient(M, C))


@dataclass
class TiltingProxyReport:
    """The computable consequences of "M is a tilting module over C".

    C is the annihilator quotient; the four checks are projective
    dimension, self-extensions, summand count against the simples of C,
    and transport of the endomorphism algebra along A -> C."""

    quotient_name: str
    quotient_dim: int
    pd: Optional[int]
    ext1: int
    classes: int
    n_simples: int
    endo_dim_ambient: int
    endo_dim_quotient: int
    presentations_match: Optional[bool]   # None when M = 0 (nothing to compare)
    ok: bool
    notes: tuple[str, ...]


def tilting_proxy_check(algebra: BoundQuiverAlgebra,
                        summands: Sequence[Rep]) -> TiltingProxyReport:
    """Check that the direct sum of ``summands`` is a tilting module over
    its annihilator quotient C, and that End does not change under the
    transport to C.  The summands must be a valid pair's indecomposable,
    pairwise non-isomorphic summands (none gives C = 0); as Hom_C = Hom_A
    for C-modules, their number is the summand count over C, and End over
    A and over C agree exactly when their tables and idempotents do.  Each
    check is computed afresh on the direct sum over C."""
    summands = list(summands)
    C, _, MC = quotient_by_annihilator(algebra, direct_sum(algebra, summands).rep)
    notes: list[str] = []
    pd = projective_dimension(MC)
    if pd is None or pd > 1:
        notes.append(f"pd over {C.name} is {pd}, not <= 1")
    ext = ext1_dim(MC, MC)
    if ext:
        notes.append(f"Ext^1(M, M) has dimension {ext} over {C.name}")
    classes = len(summands)
    if classes != C.n_vertices:
        notes.append(f"{classes} summand classes over an algebra with "
                     f"{C.n_vertices} vertices")

    match, dim_a, dim_c = None, 0, 0
    if summands:
        endo = endo_algebra(summands)
        endo_c = endo_algebra([restrict_to_quotient(s, C) for s in summands])
        dim_a, dim_c = endo.dim, endo_c.dim
        match = (endo_c.sa.table == endo.sa.table
                 and endo_c.sa.idempotents == endo.sa.idempotents)
        if not match:
            notes.append("endomorphism algebra changed under the quotient "
                         "transport")
    return TiltingProxyReport(C.name, C.dim, pd, ext, classes, C.n_vertices,
                              dim_a, dim_c, match, not notes, tuple(notes))


# ---------------------------------------------------------------------------
# Per-pair report


@dataclass
class BoundReport:
    algebra_name: str
    key: str
    classification: str
    applicable: bool
    ann_dim: Optional[int]
    r: Optional[int]
    endo_dim: Optional[int]
    d_b: Optional[DerdimEstimate]
    lhs: Optional[DerdimEstimate]
    rhs_value: Optional[int]
    rhs_kind: Optional[str]
    loewy_rhs: Optional[int]
    status: str          # "tight" | "satisfied" | "bound-only" | "inapplicable"
    notes: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "algebra": self.algebra_name,
            "pair": self.key,
            "classification": self.classification,
            "applicable": self.applicable,
            "ann_dim": self.ann_dim,
            "r": self.r,
            "endo_dim": self.endo_dim,
            "d_b": self.d_b.to_json_dict() if self.d_b else None,
            "lhs": self.lhs.to_json_dict() if self.lhs else None,
            "rhs": ({"value": self.rhs_value, "kind": self.rhs_kind}
                    if self.rhs_value is not None else None),
            "loewy_rhs": self.loewy_rhs,
            "status": self.status,
            "notes": list(self.notes),
        }

    def summary_line(self) -> str:
        if not self.applicable:
            return f"{self.key}: {self.classification} -> inapplicable"
        lhs = f"{self.lhs.value}" + ("" if self.lhs.is_exact else "?")
        rhs = f"{self.rhs_value}" + ("" if self.rhs_kind == "exact" else "?")
        return (f"{self.key}: {self.classification}, r={self.r}, "
                f"d_B={self.d_b.value}{'' if self.d_b.is_exact else '?'}, "
                f"lhs={lhs} <= rhs={rhs} -> {self.status}")


def derdim_bound_report(algebra: BoundQuiverAlgebra, summands: Sequence[Rep],
                        support: Optional[Sequence[int]] = None,
                        registry: Optional[DerdimRegistry] = None,
                        seed: int = 0) -> BoundReport:
    """Verify the bound for one pair.  With support=None the support is
    inferred as the set of vertices where the module vanishes."""
    if support is None:
        if other := [s.algebra.name for s in summands if s.algebra is not algebra]:
            raise InputError(f"direct_sum: summand over {other[0]}, not {algebra.name}")
        support = [v for v in range(algebra.n_vertices) if not any(s.dims[v] for s in summands)]
    val = validate_stt_pair(algebra, summands, support, seed=seed)
    if not val.ok:
        raise InputError("not a support tau-tilting pair: " + "; ".join(val.reasons))
    if val.summand_classes != len(summands):
        raise InputError("cannot report on a pair that lists a decomposable summand")
    classification = _classify_valid_pair(algebra, summands, support)
    store = _ClassStore(summands, IsoRegistry(algebra, seed=seed))
    names, pair = _sorted_pair([compact_label(store.name(s)) for s in summands],
                               SttPair(algebra, tuple(summands), tuple(support)))
    lhs = (None if classification in ("zero", "proper-support")
           else derdim_estimate(algebra, registry))
    return _node_report(GraphNode(pair_key(names), pair, names, classification),
                        registry, loewy_length(algebra) - 1, lhs, store)


def _node_report(node: GraphNode, registry: Optional[DerdimRegistry],
                 loewy_rhs: int, lhs: Optional[DerdimEstimate], store) -> BoundReport:
    """The report on a pair that is already validated, named (summands in
    name order) and classified; ``loewy_rhs`` is Loewy length minus one,
    ``lhs`` the estimate of derdim(A), None when the pair is inapplicable,
    and ``store`` a class store that holds the summands."""
    algebra, key, classification = node.pair.algebra, node.key, node.classification
    summands, names = list(node.pair.summands), list(node.summand_names)

    if classification in ("zero", "proper-support"):
        return BoundReport(algebra.name, key, classification, False,
                           annihilator_dim(direct_sum(algebra, summands).rep),
                           None, None, None, None, None, None, loewy_rhs,
                           "inapplicable",
                           ("the annihilator contains idempotents: the bound "
                            "addresses tau-tilting modules",))

    endo = endo_algebra(summands, labels=names, _store=store)
    b_name = f"End[{algebra.name}:{key}]"
    d_b = endo_estimate(endo, b_name, registry)
    where = f"pair {key} of {algebra.name}"
    # the registry entries that an estimate rests on
    b_entries = {b_name} if d_b.provenance == "registry" else set()
    entries = b_entries | ({algebra.name} if lhs.provenance == "registry" else set())

    if classification == "tilting":
        # pd M <= 1 and Ext^1(M, M) = 0 are the classification's own
        # certificates, and a tilting M is faithful (AIR Prop. 2.2): ann(M)
        # = 0, r = 1, C = A, and A and B exchange estimates once
        ann_dim, r = 0, 1
        d_b, lhs = (_merge_at(where, entries, d_b, DerdimEstimate(
                        lhs.value, lhs.kind, f"derived-equivalence:{algebra.name}")),
                    _merge_at(where, entries, lhs, DerdimEstimate(
                        d_b.value, d_b.kind, f"derived-equivalence:{b_name}")))
        notes = ["annihilator has dimension 0, nilpotency index 1",
                 f"tilting over {algebra.name} certified; estimates merged",
                 "faithful pair: the algebra and its endomorphism "
                 "algebra exchange estimates"]
    else:
        # M is tilting over C = A/ann(M) (module docstring): estimates
        # transfer along the derived equivalence C ~ B
        M = direct_sum(algebra, summands).rep
        ann = annihilator(M)
        ann_dim, r = ann.dim, ann.nilpotency_index()
        c_name = f"{algebra.name}/I"
        est_c = _quotient_estimate(c_name, M, ann)
        d_b = _merge_at(where, b_entries, d_b, DerdimEstimate(
            est_c.value, est_c.kind, f"derived-equivalence:{c_name}"))
        notes = [f"annihilator has dimension {ann_dim}, nilpotency index {r}",
                 f"tilting over {c_name} certified; estimates merged"]

    rhs_value = r * (1 + d_b.value) - 1
    rhs_kind = d_b.kind
    # the bound itself is an upper estimate for the left-hand side; an
    # exact lhs above it is a hard inconsistency
    lhs = _merge_at(where, entries, lhs,
                    DerdimEstimate(rhs_value, "upper", "pair-bound"))

    if lhs.is_exact and d_b.is_exact and lhs.value == rhs_value:
        status = "tight"
    elif lhs.is_exact:
        status = "satisfied"
    else:
        status = "bound-only"
    return BoundReport(algebra.name, key, classification, True, ann_dim, r,
                       endo.dim, d_b, lhs, rhs_value, rhs_kind, loewy_rhs,
                       status, tuple(notes))


def _merge_at(where: str, entries: set[str], a: DerdimEstimate,
              b: DerdimEstimate) -> DerdimEstimate:
    """merge_estimates inside a report.  A contradiction is bad input when
    a or b rests on registry ``entries``, and a failed certificate otherwise."""
    try:
        return merge_estimates(a, b)
    except CertificationError as e:
        if entries:
            raise InputError(f"registry entry {', '.join(map(repr, sorted(entries)))} "
                             f"contradicts the report on {where}: {e}") from None
        raise CertificationError(f"report on {where}: {e}") from None


def _quotient_estimate(name: str, M: Rep, ann: Ideal) -> DerdimEstimate:
    """The estimate of C = A/ann for a sincere M (module docstring): ann
    lies in rad A, so C keeps as many of A's arrows u -> v as ann misses."""
    A = M.algebra
    arrows = [(a.source, a.target) for a in A.quiver.arrows]
    kept = []
    for block in set(arrows):
        ks = [A.arrow_basis_index[k] for k, b in enumerate(arrows) if b == block]
        span = Span(A.field, len(ks))
        for x in ann.basis_vectors():
            span.add([x[i] for i in ks])
        kept += [block] * (len(ks) - span.dim)
    return estimate_from_layers(name, A.dim - ann.dim, A.n_vertices, kept, lambda: _layer_walk(
        M, [(u, v, mat) for (u, v), mat in zip(arrows, M.maps)]))   # LL(M): M along the arrows


def graph_reports(algebra: BoundQuiverAlgebra,
                  registry: Optional[DerdimRegistry] = None,
                  seed: int = 0, max_nodes: int = 4096):
    """Enumerate the exchange graph and report on every node; the nodes
    come validated, named and classified, their summands the class objects
    of the enumeration's class store."""
    graph = enumerate_stt(algebra, max_nodes=max_nodes, seed=seed)
    loewy_rhs = loewy_length(algebra) - 1
    lhs = derdim_estimate(algebra, registry)
    reports = [_node_report(node, registry, loewy_rhs, lhs, graph._store)
               for node in graph.nodes]
    return graph, reports


# ---------------------------------------------------------------------------
# Graph exports


def export_graph_json(graph: ExchangeGraph) -> dict:
    nodes = [{
        "key": n.key,
        "summands": list(n.summand_names),
        "support": [str(l) for l in n.pair.support_labels()],
        "classification": n.classification,
    } for n in sorted(graph.nodes, key=lambda n: n.key)]
    edges = [{
        "src": e.src, "dst": e.dst, "removed": e.removed, "added": e.added,
    } for e in sorted(graph.edges, key=lambda e: (e.src, e.dst, e.removed))]
    return {
        "algebra": graph.algebra.name,
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "nodes": nodes,
        "edges": edges,
    }


def export_graph_dot(graph: ExchangeGraph) -> str:
    lines = ["digraph exchange {"]
    lines.append('  rankdir=TB;')
    for n in sorted(graph.nodes, key=lambda n: n.key):
        attrs = [f'label="{n.key}"']
        if n.classification == "tau-tilting-not-tilting":
            attrs.append('color=red')
        lines.append(f'  "{n.key}" [{", ".join(attrs)}];')
    for e in sorted(graph.edges, key=lambda e: (e.src, e.dst, e.removed)):
        lines.append(f'  "{e.src}" -> "{e.dst}" [label="{e.removed}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
