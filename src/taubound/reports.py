"""Verification reports for the derived-dimension bound.

For a sincere valid pair with module M over A, put r = nilpotency index of
ann(M) and B = End(M).  The inequality under test is

    derdim(A) <= r * (1 + derdim(B)) - 1.

Exact values are rarely available, so both sides are tracked as estimates
(exact or upper) and refined through certified derived equivalences:

* When the pair is tilting, M is faithful (AIR Prop. 2.2), so r = 1 and
  A and B themselves are derived equivalent: their estimates merge, on
  the certificates that classified the pair.
* Otherwise M is a tilting module over the proper quotient C = A / ann(M);
  once the tilting axioms are re-checked computationally over C,
  estimates for C transfer to B.

C is estimated without the registry, as every annihilator quotient is
named ``A/I``.  A report never silently repairs an inconsistency: two
estimates of one quantity that contradict each other raise InputError
when a registry entry is involved, and CertificationError otherwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import (BoundQuiverAlgebra, Quiver, construct_algebra,
                      factor_algebra, loewy_length)
from .endo import (DerdimEstimate, DerdimRegistry, EndoAlgebra, derdim_estimate,
                   endo_algebra, merge_estimates, quiver_presentation)
from .exceptions import CertificationError, InputError
from .mutation import (ExchangeGraph, GraphNode, IsoRegistry, _sorted_pair,
                       compact_label, enumerate_stt, pair_key)
from .reps import (Rep, annihilator, direct_sum, ext1_dim,
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
    for C-modules, their number is the summand count over C."""
    M = direct_sum(algebra, list(summands)).rep
    C, _, MC = quotient_by_annihilator(algebra, M)
    endo = endo_algebra(list(summands)) if summands else None
    return _tilting_proxy(summands, C, MC, endo)


def _tilting_proxy(summands: Sequence[Rep], C: BoundQuiverAlgebra, MC: Rep,
                   endo: Optional[EndoAlgebra]) -> TiltingProxyReport:
    """tilting_proxy_check given C, M as a C-module and End(M) over the
    ambient algebra (None when M = 0).  End over C is computed afresh; as
    Hom_C = Hom_A inside the same coordinate space and ``hom_basis`` reads
    its basis off that space, the two agree exactly when their structure
    tables and idempotents do, which makes their presentations identical."""
    notes: list[str] = []
    ok = True
    pd = projective_dimension(MC)
    if pd is None or pd > 1:
        ok = False
        notes.append(f"pd over {C.name} is {pd}, not <= 1")
    ext = ext1_dim(MC, MC)
    if ext:
        ok = False
        notes.append(f"Ext^1(M, M) has dimension {ext} over {C.name}")
    classes = len(summands)
    if classes != C.n_vertices:
        ok = False
        notes.append(f"{classes} summand classes over an algebra with "
                     f"{C.n_vertices} vertices")

    match, dim_a, dim_c = None, 0, 0
    if endo is not None:
        endo_c = endo_algebra([restrict_to_quotient(s, C) for s in summands])
        dim_a, dim_c = endo.dim, endo_c.dim
        match = (endo_c.sa.table == endo.sa.table
                 and endo_c.sa.idempotents == endo.sa.idempotents)
        if not match:
            ok = False
            notes.append("endomorphism algebra changed under the quotient "
                         "transport")
    return TiltingProxyReport(C.name, C.dim, pd, ext, classes, C.n_vertices,
                              dim_a, dim_c, match, ok, tuple(notes))


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
        if summands:
            M0 = direct_sum(algebra, list(summands)).rep
            support = [v for v in range(algebra.n_vertices) if M0.dims[v] == 0]
        else:
            support = list(range(algebra.n_vertices))
    val = validate_stt_pair(algebra, summands, support, seed=seed)
    if not val.ok:
        raise InputError("not a support tau-tilting pair: " + "; ".join(val.reasons))
    if val.summand_classes != len(summands):
        raise InputError("cannot report on a pair that lists a decomposable summand")
    classification = _classify_valid_pair(algebra, summands, support)
    iso = IsoRegistry(algebra, seed=seed)
    names, pair = _sorted_pair([compact_label(iso.name_of(s)) for s in summands],
                               SttPair(algebra, tuple(summands), tuple(support)))
    lhs = (None if classification in ("zero", "proper-support")
           else derdim_estimate(algebra, registry))
    return _node_report(GraphNode(pair_key(names), pair, names, classification),
                        registry, loewy_length(algebra) - 1, lhs)


def _node_report(node: GraphNode, registry: Optional[DerdimRegistry],
                 loewy_rhs: int, lhs: Optional[DerdimEstimate]) -> BoundReport:
    """The report on a pair that is already validated, named (summands in
    name order) and classified; ``loewy_rhs`` is Loewy length minus one and
    ``lhs`` the estimate of derdim(A), None when the pair is inapplicable."""
    algebra, key, classification = node.pair.algebra, node.key, node.classification
    summands, names = list(node.pair.summands), list(node.summand_names)

    if classification in ("zero", "proper-support"):
        return BoundReport(algebra.name, key, classification, False,
                           annihilator(direct_sum(algebra, summands).rep).dim,
                           None, None, None, None, None, None, loewy_rhs,
                           "inapplicable",
                           ("the annihilator contains idempotents: the bound "
                            "addresses tau-tilting modules",))

    endo = endo_algebra(summands, labels=names)
    B = quiver_presentation(endo, name=f"End[{algebra.name}:{key}]")
    d_b = derdim_estimate(B, registry)
    where = f"pair {key} of {algebra.name}"
    # the registry entries that an estimate rests on
    b_entries = {B.name} if d_b.provenance == "registry" else set()
    entries = b_entries | ({algebra.name} if lhs.provenance == "registry" else set())

    if classification == "tilting":
        # pd M <= 1 and Ext^1(M, M) = 0 are the classification's own
        # certificates, and a tilting M is faithful (AIR Prop. 2.2): ann(M)
        # = 0, r = 1, C = A, and A and B exchange estimates once
        ann_dim, r = 0, 1
        d_b, lhs = (_merge_at(where, entries, d_b, DerdimEstimate(
                        lhs.value, lhs.kind, f"derived-equivalence:{algebra.name}")),
                    _merge_at(where, entries, lhs, DerdimEstimate(
                        d_b.value, d_b.kind, f"derived-equivalence:{B.name}")))
        notes = ["annihilator has dimension 0, nilpotency index 1",
                 f"tilting over {algebra.name} certified; estimates merged",
                 "faithful pair: the algebra and its endomorphism "
                 "algebra exchange estimates"]
    else:
        # M is tilting over the proper quotient C = A/ann(M); a certified
        # re-check lets estimates transfer along the derived equivalence C ~ B
        C, ann, MC = quotient_by_annihilator(algebra, direct_sum(algebra, summands).rep)
        ann_dim, r = ann.dim, ann.nilpotency_index()
        notes = [f"annihilator has dimension {ann_dim}, nilpotency index {r}"]
        proxy = _tilting_proxy(summands, C, MC, endo)
        if proxy.ok:
            est_c = derdim_estimate(C)
            d_b = _merge_at(where, b_entries, d_b, DerdimEstimate(
                est_c.value, est_c.kind, f"derived-equivalence:{C.name}"))
            notes.append(f"tilting over {C.name} certified; estimates merged")
        else:
            notes.append("quotient tilting re-check failed: "
                         + "; ".join(proxy.notes))

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


def graph_reports(algebra: BoundQuiverAlgebra,
                  registry: Optional[DerdimRegistry] = None,
                  seed: int = 0, max_nodes: int = 4096):
    """Enumerate the exchange graph and report on every node; the nodes
    come validated, named and classified."""
    graph = enumerate_stt(algebra, max_nodes=max_nodes, seed=seed)
    loewy_rhs = loewy_length(algebra) - 1
    lhs = derdim_estimate(algebra, registry)
    reports = [_node_report(node, registry, loewy_rhs, lhs) for node in graph.nodes]
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
