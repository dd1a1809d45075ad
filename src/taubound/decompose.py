"""Certified direct-sum decomposition and isomorphism testing.

Splitting is driven by idempotents of End(M): the semisimple quotient
End(M)/rad is computed exactly (trace form), a nontrivial idempotent is
found there by factoring the minimal polynomial of a candidate element and
applying the CRT, and the idempotent is lifted through the radical by the
Newton iteration e <- 3e^2 - 2e^3.  Every split is certified on the nose:
the leaf witnesses are orthogonal idempotent endomorphisms of the original
module summing to the identity.  Only this idempotent search is randomized,
by a generator seeded from ``seed`` and the dimension vector.

Isomorphism is decided by the radical criterion, with no sampling: for
indecomposable X and Y the non-isomorphisms X -> Y form the subspace
rad(X, Y), which is proper when X ~= Y, so X ~= Y exactly when some element
of any basis of Hom(X, Y) is invertible.  ``iso_test`` tries this on the
whole modules first; unless M is indecomposable it then matches summands.

Over a too-small prime field (p <= dim End) the trace-form radical is not
trustworthy, and an indecomposable module may have a non-split endomorphism
ring over a non-closed field; both situations raise CertificationError
rather than return an uncertified answer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from sympy import Poly, Rational, Symbol

from .algebra import StructureAlgebra, quotient_structure, structure_radical
from .endo import end_structure
from .exceptions import CertificationError
from .fields import PrimeField
from .linalg import Span, coordinates, is_invertible
from .reps import ModMap, Rep, hom_basis, identity_map, image, zero_map

_T = Symbol("t")

IDEMPOTENT_ATTEMPTS = 64
LIFT_ITERATIONS = 64


# ---------------------------------------------------------------------------
# Minimal polynomials and CRT idempotents inside a structure algebra


def _minimal_polynomial(sa: StructureAlgebra, x: tuple) -> list:
    """Monic minimal polynomial of x, as coefficients low -> high."""
    F = sa.field
    span = Span(F, sa.dim)
    cur = sa.unit()
    powers = [cur]
    span.add(cur)
    while True:
        cur = sa.mul(cur, x)
        if not span.add(cur):
            break
        powers.append(cur)
    coeffs = coordinates(F, powers, [cur])[0]
    out = [F.neg(c) for c in coeffs]
    out.append(F.one)
    return out


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


def _horner(sa: StructureAlgebra, coeffs_low_high, x: tuple) -> tuple:
    acc = sa.zero_vec()
    for c in reversed(coeffs_low_high):
        acc = sa.add(sa.mul(acc, x), sa.scale(c, sa.unit()))
    return acc


def _crt_idempotent(sa: StructureAlgebra, x: tuple) -> Optional[tuple]:
    """A nontrivial idempotent in the subalgebra generated by x, or None
    when the minimal polynomial of x is a power of one irreducible."""
    F = sa.field
    minpoly = _minimal_polynomial(sa, x)
    if len(minpoly) <= 2:
        return None
    poly = _to_sympy_poly(F, minpoly)
    _, factors = poly.factor_list()
    if len(factors) < 2:
        return None
    factors = sorted(factors, key=lambda fm: (fm[0].degree(), str(fm[0])))
    f = factors[0][0] ** factors[0][1]
    g = poly.exquo(f)
    s, t, h = f.gcdex(g)
    assert h.degree() == 0, "factor split is not coprime"
    if isinstance(F, PrimeField):
        scale = pow(int(h.all_coeffs()[0]) % F.p, -1, F.p)
    else:
        scale = Rational(1) / h.all_coeffs()[0]
    ebar_poly = (t * g * scale) % poly
    coeffs = _from_sympy_coeffs(F, ebar_poly)
    e = _horner(sa, coeffs, x)
    assert tuple(sa.mul(e, e)) == tuple(e), "CRT element is not idempotent"
    if sa.is_zero_vec(e) or e == sa.unit():
        return None
    return e


# ---------------------------------------------------------------------------
# The semisimple quotient of End(M) and idempotent lifting


def _lift_idempotent(sa: StructureAlgebra, e0: tuple) -> tuple:
    """Newton-lift e0 (idempotent modulo the radical) to a true idempotent."""
    F = sa.field
    e = e0
    for _ in range(LIFT_ITERATIONS):
        sq = sa.mul(e, e)
        if sq == tuple(e):
            return tuple(e)
        cube = sa.mul(sq, e)
        # 3e^2 - 2e^3
        three = F.add(F.one, F.add(F.one, F.one))
        two = F.add(F.one, F.one)
        e = sa.add(sa.scale(three, sq), sa.scale(F.neg(two), cube))
    raise RuntimeError("idempotent lifting did not converge")


def _splitting_idempotent(sa: StructureAlgebra, maps: Sequence[ModMap],
                          rad_vecs: Sequence[tuple],
                          rng: random.Random) -> Optional[ModMap]:
    """A nontrivial idempotent endomorphism, or None when End/rad is one
    dimensional (certified indecomposable).  Raises CertificationError when
    End/rad is bigger but no splitting idempotent can be certified."""
    F = sa.field
    quot, survivors = quotient_structure(sa, rad_vecs)
    if quot.dim == 1:
        return None
    candidates = [quot.unit_vec(i) for i in range(quot.dim)]
    for _ in range(IDEMPOTENT_ATTEMPTS):
        candidates.append(tuple(F.random(rng) for _ in range(quot.dim)))
    for cand in candidates:
        ebar = _crt_idempotent(quot, cand)
        if ebar is None:
            continue
        # section back to End(M) and lift through the radical
        e0 = list(sa.zero_vec())
        for c, i in zip(ebar, survivors):
            e0[i] = c
        e = _lift_idempotent(sa, tuple(e0))
        assert not sa.is_zero_vec(e) and e != sa.unit()
        out = None
        for c, m in zip(e, maps):
            term = m.scale(c)
            out = term if out is None else out.add(term)
        return out
    raise CertificationError(
        f"non-split endomorphism ring: End/rad has dimension {quot.dim} but no "
        f"splitting idempotent was certified over {F.name}"
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


def _check_field_size(F, end_dim: int):
    if F.characteristic != 0 and F.characteristic <= end_dim:
        raise CertificationError(
            f"field too small: characteristic {F.characteristic} <= "
            f"dim End(M) = {end_dim}; decomposition needs a larger prime"
        )


def _split_rec(rep: Rep, embed: ModMap, retract: ModMap,
               rng: random.Random, out: list[Leaf]):
    if rep.dim_total == 0:
        return
    F = rep.algebra.field
    sa, maps = end_structure(rep)
    _check_field_size(F, sa.dim)
    rad_vecs = structure_radical(sa)
    e_map = _splitting_idempotent(sa, maps, rad_vecs, rng)
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
