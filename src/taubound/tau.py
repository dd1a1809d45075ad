"""The AR translate, tau-rigidity, and support pairs.

tau(M) is computed from a minimal projective presentation P1 -> P0 -> M:
apply the Nakayama functor (P(i) |-> I(i), a map given by left
multiplication with x turns into the dual of right multiplication with x)
and take the kernel of nu(d1).  Injective coordinates at a vertex u are
dual to the basis paths u -> v, so the block of nu(d1) from the copy I(i_k)
to the copy I(j_l) has entry [s, r] equal to the coefficient of r in s*x,
where s runs over basis paths u -> j_l and r over basis paths u -> i_k.

A support pair (M, P) is a module plus a set of vertices where it is
required to vanish.  As in Adachi-Iyama-Reiten 2014, section 0, it is
decided over A itself: M is tau-rigid over A, Hom(P, M) = 0, and M has
n - |P| summand classes.  By their Lemma 2.1(b), tau-rigidity over A/<e>
and over A agree for a module that vanishes at e, so the support-deleted
algebra is never built.  tau commutes with direct sums, and tau of each
listed summand is memoised on it, so Hom(M, tau M) is the sum of the
Hom(X, tau Y) over listed summands X and Y, and the classes are counted
from each summand's own decomposition.  A sincere valid pair is tilting
exactly when every summand has projective dimension at most one, read off
the memoised presentation; by AIR Prop. 2.2 that is the same as faithful,
and ``reps.is_faithful`` serves as the test oracle for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import BoundQuiverAlgebra
from .decompose import _iso_classes, decompose
from .exceptions import CertificationError, InputError
from .linalg import Mat
from .reps import (ModMap, Presentation, Rep, direct_sum, hom_basis, hom_dim,
                   injective_rep, kernel, minimal_presentation, zero_rep)


# ---------------------------------------------------------------------------
# Nakayama functor on a presentation


def nakayama_presentation(pres: Presentation):
    """(nu P1, nu P0, nu d1) for a projective presentation."""
    A = pres.module.algebra
    F = A.field
    nu_p1 = direct_sum(A, [injective_rep(A, i) for i in pres.p1_vertices])
    nu_p0 = direct_sum(A, [injective_rep(A, j) for j in pres.p0_vertices])

    blocks = []
    for u in range(A.n_vertices):
        nrows = nu_p0.rep.dims[u]
        ncols = nu_p1.rep.dims[u]
        m = [[F.zero] * ncols for _ in range(nrows)]
        roff = 0
        for l, j in enumerate(pres.p0_vertices):
            s_paths = A.block(u, j)
            coff = 0
            for k, i in enumerate(pres.p1_vertices):
                r_paths = A.block(u, i)
                x = pres.amatrix[l][k]
                for si, sp in enumerate(s_paths):
                    prod = A.mul(A.unit_vec(sp), x)   # s * x, a path combo u -> i
                    for ri, rp in enumerate(r_paths):
                        m[roff + si][coff + ri] = prod[rp]
                coff += len(r_paths)
            roff += len(s_paths)
        blocks.append(Mat(F, nrows, ncols, m))
    nu_d1 = ModMap(nu_p1.rep, nu_p0.rep, blocks)
    return nu_p1.rep, nu_p0.rep, nu_d1


@dataclass(frozen=True)
class TauData:
    """What ``tau_data`` keeps for one module; every caller shares it."""
    presentation: Presentation
    tau: Rep


def tau_data(M: Rep) -> TauData:
    """The presentation and translate of M, computed once per module."""
    if M._tau_data is None:
        pres = minimal_presentation(M)
        _, _, nu_d1 = nakayama_presentation(pres)
        M._tau_data = TauData(pres, kernel(nu_d1)[0])
    return M._tau_data


def tau(M: Rep) -> Rep:
    """The AR translate; zero exactly when M is projective (or zero)."""
    if M.dim_total == 0:
        return zero_rep(M.algebra)
    return tau_data(M).tau


def hom_to_tau(M: Rep) -> int:
    """dim Hom(M, tau M); zero iff M is tau-rigid."""
    return len(hom_basis(M, tau(M)))


def is_tau_rigid(M: Rep) -> bool:
    return hom_to_tau(M) == 0


# ---------------------------------------------------------------------------
# Support pairs


@dataclass
class SttPair:
    """A module with a support set: summands plus the vertex indices that
    carry the projective half of the pair."""
    algebra: BoundQuiverAlgebra
    summands: tuple[Rep, ...]
    support: tuple[int, ...]

    def module(self) -> Rep:
        if not self.summands:
            return zero_rep(self.algebra)
        return direct_sum(self.algebra, list(self.summands)).rep

    def support_labels(self) -> tuple:
        return tuple(self.algebra.quiver.vertices[v] for v in self.support)


@dataclass
class ValidationResult:
    status: str                 # "valid-stt" | "tau-rigid-only" | "invalid"
    reasons: tuple[str, ...]
    summand_classes: int
    expected_classes: int

    @property
    def ok(self) -> bool:
        return self.status == "valid-stt"


def _support_indices(algebra: BoundQuiverAlgebra, support) -> tuple[int, ...]:
    out = sorted(set(support))
    for v in out:
        if not (0 <= v < algebra.n_vertices):
            raise InputError(f"support vertex index {v} out of range")
    return tuple(out)


def validate_stt_pair(algebra: BoundQuiverAlgebra, summands: Sequence[Rep],
                      support: Sequence[int], seed: int = 0) -> ValidationResult:
    """Check whether (sum of summands, support) is a support tau-tilting
    pair, for outside input whose summands may be decomposable or repeated.
    Everything is decided over A, summand by summand (AIR section 0 and
    Lemma 2.1(b)); ``mutate_down`` certifies its output."""
    support = _support_indices(algebra, support)
    expected = algebra.n_vertices - len(support)
    reasons = []
    for s in summands:
        if s.algebra is not algebra:
            raise InputError("summand over a different algebra")
        if s.dim_total == 0:
            return ValidationResult("invalid", ("zero module listed as a summand",),
                                    0, expected)

    bad = [algebra.quiver.vertices[v] for v in support
           if any(s.dims[v] for s in summands)]
    if bad:
        reasons.append(f"module is nonzero at support vertices {bad}")
        return ValidationResult("invalid", tuple(reasons), 0, expected)
    if not summands:
        if expected == 0:
            return ValidationResult("valid-stt", (), 0, 0)
        reasons.append(f"zero module but only {len(support)} support vertices")
        return ValidationResult("tau-rigid-only", tuple(reasons), 0, expected)

    # tau commutes with direct sums: Hom(M, tau M) splits into Hom(X, tau Y)
    defect = sum(hom_dim(X, tau(Y)) for X in summands for Y in summands)
    if defect:
        reasons.append(f"Hom(M, tau M) has dimension {defect}")
        return ValidationResult("invalid", tuple(reasons), 0, expected)

    _, counts = _iso_classes([leaf.rep for s in summands
                              for leaf in decompose(s, seed=seed).leaves])
    classes = len(counts)
    if classes > expected:
        raise CertificationError(
            f"tau-rigid module with {classes} summand classes over an algebra "
            f"with {expected} vertices; this contradicts rigidity"
        )
    if any(c > 1 for c in counts):
        reasons.append("repeated indecomposable summands (module is not basic)")
        return ValidationResult("tau-rigid-only", tuple(reasons), classes, expected)
    if classes < expected:
        reasons.append(f"only {classes} of the {expected} summands needed to "
                       f"complete the pair")
        return ValidationResult("tau-rigid-only", tuple(reasons), classes, expected)
    return ValidationResult("valid-stt", (), classes, expected)


def classify_pair(algebra: BoundQuiverAlgebra, summands: Sequence[Rep],
                  support: Sequence[int], seed: int = 0) -> str:
    """One of "zero", "tilting", "tau-tilting-not-tilting", "proper-support"
    for a valid support pair."""
    val = validate_stt_pair(algebra, summands, support, seed=seed)
    if not val.ok:
        raise InputError("not a support tau-tilting pair: "
                         + "; ".join(val.reasons))
    return _classify_valid_pair(algebra, summands, support)


def _classify_valid_pair(algebra: BoundQuiverAlgebra, summands: Sequence[Rep],
                         support: Sequence[int]) -> str:
    """classify_pair for a pair already validated.  A valid pair's support
    is fixed by its module half, so the support alone separates the zero
    and proper-support pairs from the sincere ones.  A sincere tau-tilting
    module M is tilting exactly when pd M <= 1: then Ext^1(M, M) ~= D Hom(M,
    tau M) = 0 by the AR formula, and by AIR Prop. 2.2 this is the same as
    M faithful.  pd X <= 1 means that d1 of X's memoised minimal
    presentation is injective, that is dim P1 = dim P0 - dim X."""
    support = _support_indices(algebra, support)
    if len(support) == algebra.n_vertices:
        return "zero"
    if support:
        return "proper-support"
    assert all(any(s.dims[v] for s in summands) for v in range(algebra.n_vertices)), \
        "support-free valid pair must be sincere"
    pres = [tau_data(s).presentation for s in summands]
    tilting = all(p.p1.dim_total == p.p0.dim_total - p.module.dim_total for p in pres)
    return "tilting" if tilting else "tau-tilting-not-tilting"
