"""Certified direct-sum decomposition and isomorphism testing.

Splitting is driven by idempotents of End(M), read off single elements.
For each element b of a basis of End(M), the minimal polynomial of b is
factored: two coprime factors give, by the CRT in k[b], an idempotent of
End(M) itself, and M splits on it.  Otherwise b has one eigenvalue λ_b or
none in k.  When every b has one and the maps b - λ_b*id generate a
nilpotent algebra, End(M) is k*id plus a nilpotent ideal, so M is
indecomposable; nilpotency is certified by the action on M
(``reps.acts_nilpotently``), exactly and in every characteristic.  Every
split is certified on the nose: the leaf witnesses are orthogonal
idempotent endomorphisms of the original module summing to the identity.
When the basis settles nothing, seeded random combinations are tried, by a
generator seeded from ``seed`` and the dimension vector.

Isomorphism is decided by the radical criterion, with no sampling: for
indecomposable X and Y the non-isomorphisms X -> Y form the subspace
rad(X, Y), which is proper when X ~= Y, so X ~= Y exactly when some element
of any basis of Hom(X, Y) is invertible.  ``iso_test`` tries this on the
whole modules first; unless M is indecomposable it then matches summands.

An indecomposable module may have a non-split endomorphism ring over a
non-closed field (End(M)/rad a proper field extension of k); that raises
CertificationError rather than return an uncertified answer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from sympy import Poly, Rational, Symbol

from .exceptions import CertificationError
from .fields import PrimeField
from .linalg import Span, coordinates, is_invertible
from .reps import (ModMap, Rep, acts_nilpotently, hom_basis, identity_map, image,
                   linear_combination, zero_map)

_T = Symbol("t")

IDEMPOTENT_ATTEMPTS = 64


# ---------------------------------------------------------------------------
# Minimal polynomials, CRT idempotents and eigenvalues of endomorphisms


def _minimal_polynomial(b: ModMap) -> list:
    """Monic minimal polynomial of the endomorphism b, as coefficients
    low -> high; powers are composed blockwise."""
    F = b.source.algebra.field
    cur = identity_map(b.source)
    powers = [cur.vectorize()]
    span = Span(F, len(powers[0]))
    span.add(powers[0])
    while True:
        cur = cur.compose(b)
        if not span.add(cur.vectorize()):
            break
        powers.append(cur.vectorize())
    coeffs = coordinates(F, powers, [cur.vectorize()])[0]
    return [F.neg(c) for c in coeffs] + [F.one]


def _to_sympy_poly(field, coeffs_low_high) -> Poly:
    hi_lo = list(reversed(coeffs_low_high))
    if isinstance(field, PrimeField):
        return Poly([int(c) for c in hi_lo], _T, modulus=field.p)
    return Poly([Rational(c.numerator, c.denominator) for c in hi_lo],
                _T, domain="QQ")


def _from_sympy_coeffs(field, poly: Poly) -> list:
    """Poly -> coefficients low -> high, as field scalars."""
    out = []
    for c in reversed(poly.all_coeffs()):
        if isinstance(field, PrimeField):
            out.append(int(c) % field.p)
        else:
            r = Rational(c)
            out.append(Fraction(int(r.p), int(r.q)))
    return out


def _horner(coeffs_low_high, b: ModMap) -> ModMap:
    ident = identity_map(b.source)
    acc = zero_map(b.source, b.source)
    for c in reversed(coeffs_low_high):
        acc = acc.compose(b).add(ident.scale(c))
    return acc


def _eigen_split(b: ModMap):
    """(e, None) with e a nontrivial idempotent of k[b], by the CRT, when
    the minimal polynomial of b has two coprime factors; (None, λ) when it
    is a power of t - λ; (None, None) when it is a power of one irreducible
    of degree > 1."""
    F = b.source.algebra.field
    minpoly = _minimal_polynomial(b)
    poly = _to_sympy_poly(F, minpoly)
    _, factors = poly.factor_list()
    if len(factors) == 1:
        root = factors[0][0]
        if root.degree() != 1:
            return None, None
        return None, F.neg(_from_sympy_coeffs(F, root.monic())[0])
    factors = sorted(factors, key=lambda fm: (fm[0].degree(), str(fm[0])))
    f = factors[0][0] ** factors[0][1]
    g = poly.exquo(f)
    s, t, h = f.gcdex(g)
    assert h.degree() == 0, "factor split is not coprime"
    if isinstance(F, PrimeField):
        scale = pow(int(h.all_coeffs()[0]) % F.p, -1, F.p)
    else:
        scale = Rational(1) / h.all_coeffs()[0]
    e = _horner(_from_sympy_coeffs(F, (t * g * scale) % poly), b)
    assert e.compose(e) == e, "CRT element is not idempotent"
    assert not e.is_zero() and e != identity_map(b.source)
    return e, None


def _local_or_split(M: Rep, maps: Sequence[ModMap]):
    """(e, None) for the first map with a CRT idempotent e; (None, λs) when
    each map b is λ_b*id plus a nilpotent and the maps b - λ_b*id generate a
    nilpotent algebra, so that k*id + span(maps) is local with residue field
    k; (None, None) when neither holds."""
    ident = identity_map(M)
    lams, shifted = [], []
    for b in maps:
        e, lam = _eigen_split(b)
        if e is not None:
            return e, None
        if lam is None:
            return None, None
        lams.append(lam)
        shifted.append(b.sub(ident.scale(lam)))
    return None, (lams if acts_nilpotently(M, shifted) else None)


def _splitting_idempotent(M: Rep, basis: Sequence[ModMap],
                          rng: random.Random) -> Optional[ModMap]:
    """A nontrivial idempotent endomorphism of M, or None when End(M) is
    certified local with residue field k (M indecomposable).  ``basis`` is
    a basis of End(M).  Raises CertificationError when neither can be
    certified."""
    F = M.algebra.field
    if len(basis) == 1:
        return None
    e, lams = _local_or_split(M, basis)
    if lams is not None:
        return None
    if e is not None:
        return e
    for _ in range(IDEMPOTENT_ATTEMPTS):
        x = linear_combination(basis, [F.random(rng) for _ in basis])
        e, _ = _eigen_split(x)
        if e is not None:
            return e
    raise CertificationError(
        f"non-split endomorphism ring: End(M) of dimension {len(basis)} is "
        f"not local with residue field {F.name}, and no splitting idempotent "
        f"was certified"
    )


# ---------------------------------------------------------------------------
# Decomposition


@dataclass
class Leaf:
    rep: Rep
    embed: ModMap    # rep -> module
    retract: ModMap  # module -> rep; retract.embed = id


@dataclass
class Decomposition:
    module: Rep
    leaves: tuple[Leaf, ...]
    class_reps: tuple[Rep, ...]
    multiplicities: tuple[int, ...]

    @property
    def summand_count(self) -> int:
        return len(self.leaves)

    @property
    def is_basic(self) -> bool:
        return all(m == 1 for m in self.multiplicities)


def _split_rec(rep: Rep, embed: ModMap, retract: ModMap,
               rng: random.Random, out: list[Leaf]):
    if rep.dim_total == 0:
        return
    e_map = _splitting_idempotent(rep, hom_basis(rep, rep), rng)
    if e_map is None:
        out.append(Leaf(rep, embed, retract))
        return
    im_e, incl_e, core_e = image(e_map)
    complement = identity_map(rep).sub(e_map)
    im_f, incl_f, core_f = image(complement)
    assert im_e.dim_total + im_f.dim_total == rep.dim_total, "split lost dimensions"
    assert 0 < im_e.dim_total < rep.dim_total
    _split_rec(im_e, embed.compose(incl_e), core_e.compose(retract), rng, out)
    _split_rec(im_f, embed.compose(incl_f), core_f.compose(retract), rng, out)


def decompose(M: Rep, seed: int = 0) -> Decomposition:
    rng = random.Random(f"decompose:{seed}:{M.dims}")
    leaves: list[Leaf] = []
    _split_rec(M, identity_map(M), identity_map(M), rng, leaves)

    # certify the witnesses: orthogonal idempotents summing to the identity
    total = None
    for i, leaf in enumerate(leaves):
        e_i = leaf.embed.compose(leaf.retract)
        total = e_i if total is None else total.add(e_i)
        assert e_i.compose(e_i) == e_i, "leaf witness is not idempotent"
        for other in leaves[i + 1:]:
            e_j = other.embed.compose(other.retract)
            assert e_i.compose(e_j).is_zero(), "leaf witnesses are not orthogonal"
    if leaves:
        assert total == identity_map(M), "leaf witnesses do not sum to the identity"

    class_reps: list[Rep] = []
    counts: list[int] = []
    for leaf in leaves:
        for ci, rep0 in enumerate(class_reps):
            if _indec_iso(leaf.rep, rep0) is not None:
                counts[ci] += 1
                break
        else:
            class_reps.append(leaf.rep)
            counts.append(1)
    return Decomposition(M, tuple(leaves), tuple(class_reps), tuple(counts))


# ---------------------------------------------------------------------------
# Isomorphism testing


def _indec_iso(X: Rep, Y: Rep) -> Optional[ModMap]:
    """The first element of hom_basis(X, Y) that is an isomorphism, or None.

    For indecomposable X and Y this decides X ~= Y exactly: the
    non-isomorphisms X -> Y form the proper subspace rad(X, Y) of Hom(X, Y)
    when X ~= Y, so some basis element lies outside it."""
    if X.dims != Y.dims:
        return None
    for h in hom_basis(X, Y):
        if all(is_invertible(b) for b in h.blocks):
            return h
    return None


@dataclass
class IsoResult:
    isomorphic: bool
    certificate: Optional[ModMap]
    detail: str


def iso_test(M: Rep, N: Rep, seed: int = 0) -> IsoResult:
    """Decide M ~= N with a certificate (an invertible ModMap) or a
    structural refutation.  ``seed`` feeds only the decompositions that
    match indecomposable summands when no basis hom is invertible."""
    if M.dims != N.dims:
        return IsoResult(False, None, "dimension vectors differ")
    if M.dim_total == 0:
        return IsoResult(True, zero_map(M, N), "both modules are zero")
    cert = _indec_iso(M, N)
    if cert is not None:
        return IsoResult(True, cert, "a basis hom is invertible")
    dm = decompose(M, seed=seed)
    if len(dm.leaves) == 1:
        return IsoResult(False, None, "indecomposable and no basis hom is invertible")
    dn = decompose(N, seed=seed)
    if sorted(l.rep.dims for l in dm.leaves) != sorted(l.rep.dims for l in dn.leaves):
        return IsoResult(False, None, "summand dimension multisets differ")
    unused = list(range(len(dn.leaves)))
    pieces = []
    for ml in dm.leaves:
        matched = None
        for pos, j in enumerate(unused):
            phi = _indec_iso(ml.rep, dn.leaves[j].rep)
            if phi is not None:
                matched = (pos, j, phi)
                break
        if matched is None:
            return IsoResult(False, None,
                             f"no partner for a summand of dims {ml.rep.dims_str()}")
        pos, j, phi = matched
        unused.pop(pos)
        pieces.append(dn.leaves[j].embed.compose(phi).compose(ml.retract))
    cert = pieces[0]
    for p in pieces[1:]:
        cert = cert.add(p)
    assert all(is_invertible(b) for b in cert.blocks), "assembled iso is singular"
    return IsoResult(True, cert, "assembled from summand isomorphisms")
