"""Certified direct-sum decomposition and isomorphism testing.

Splitting is driven by idempotents of End(M), read off single elements.
For each element b of a basis of End(M), the minimal polynomial of b is
split with exact polynomial arithmetic over k, without factoring it: two
coprime factors, t^a and the rest or (t - λ)^a and the rest for a root λ in
k, give by the CRT in k[b] an idempotent of End(M) itself, and M splits on
it.  Otherwise b has one eigenvalue λ_b, or none that is found in k.  When
every b has one and the maps b - λ_b*id generate a nilpotent algebra,
End(M) is k*id plus a nilpotent ideal, so M is
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
from itertools import product, zip_longest
from math import gcd, isqrt, lcm
from typing import Optional, Sequence

from .exceptions import CertificationError
from .fields import PrimeField
from .linalg import Span, coordinates, is_invertible
from .reps import (ModMap, Rep, acts_nilpotently, hom_basis, identity_map, image,
                   linear_combination, zero_map)

IDEMPOTENT_ATTEMPTS = 64


# ---------------------------------------------------------------------------
# Polynomials over k, as coefficient lists low -> high with no trailing zero;
# minimal polynomials, CRT idempotents and eigenvalues of endomorphisms


def _trim(F, f: list) -> list:
    while f and F.is_zero(f[-1]):
        f.pop()
    return f


def _psub(F, f: list, g: list) -> list:
    return _trim(F, [F.sub(x, y) for x, y in zip_longest(f, g, fillvalue=F.zero)])


def _pmul(F, f: list, g: list) -> list:
    out = [F.zero] * max(len(f) + len(g) - 1, 0)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return out


def _pdivmod(F, f: list, g: list) -> tuple[list, list]:
    """(q, r) with f = q*g + r and deg r < deg g, for g nonzero."""
    r, n = list(f), len(g) - 1
    q = [F.zero] * max(len(f) - n, 0)
    inv = F.inv(g[-1])
    for k in range(len(q) - 1, -1, -1):
        q[k] = c = F.mul(r[k + n], inv)
        for j, y in enumerate(g):
            r[k + j] = F.sub(r[k + j], F.mul(c, y))
    return q, _trim(F, r[:n])


def _pgcdex(F, f: list, g: list) -> tuple[list, list]:
    """(u, h) with u*g = h mod f, h the monic gcd of f and g (not both 0)."""
    r0, r1, u0, u1 = f, g, [], [F.one]
    while r1:
        q, r = _pdivmod(F, r0, r1)
        r0, r1, u0, u1 = r1, r, u1, _psub(F, u0, _pmul(F, q, u1))
    c = F.inv(r0[-1])
    return [F.mul(c, x) for x in u0], [F.mul(c, x) for x in r0]


def _ppowmod(F, f: list, n: int, m: list) -> list:
    """f**n mod m, for deg f < deg m."""
    out = [F.one]
    for bit in bin(n)[2:]:
        out = _pdivmod(F, _pmul(F, out, out), m)[1]
        if bit == "1":
            out = _pdivmod(F, _pmul(F, out, f), m)[1]
    return out


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


def _horner(coeffs_low_high, b: ModMap) -> ModMap:
    ident = identity_map(b.source)
    acc = zero_map(b.source, b.source)
    for c in reversed(coeffs_low_high):
        acc = acc.compose(b).add(ident.scale(c))
    return acc


def _certify(ok: bool, what: str):
    """Raise CertificationError naming the failed check (survives ``-O``)."""
    if not ok:
        raise CertificationError(f"decompose: {what}")


def _power_root(F, f: list):
    """λ when f = (t - λ)^m, else None.  In characteristic p with
    m = p^s * m', (t - λ)^m = (t^(p^s) - λ)^m' over Fp, so λ is read off the
    coefficient of t^(m - p^s); the expansion confirms it."""
    m, p, q = len(f) - 1, F.characteristic, 1
    while p and m % (q * p) == 0:
        q *= p
    lam = F.neg(F.mul(f[m - q], F.inv(F.of_int(m // q))))
    power = [F.one]
    for _ in range(m):
        power = _pmul(F, power, [F.neg(lam), F.one])
    return lam if power == f else None


def _root_fp(F, f: list):
    """A root of f in Fp, or None, for f(0) != 0.  The roots of f are those
    of L = gcd(f, t^p - t), and gcd(L, (t + c)^((p-1)/2) - 1) splits L for
    some c, tried in the fixed order c = 0, 1, 2, ...  Over F_2 this tests
    t = 0 and t = 1 directly: L is t - 1 or 1."""
    L = _pgcdex(F, f, _psub(F, _ppowmod(F, [0, 1], F.p, f), [0, 1]))[1]
    c = 0
    while len(L) > 2 and c < F.p * len(f):   # p tries per split suffice
        h = _pgcdex(F, L, _psub(F, _ppowmod(F, [F.of_int(c), 1], (F.p - 1) // 2, L),
                                [1]))[1]
        L, c = (h if 1 < len(h) < len(L) else L), c + 1
    return F.neg(L[0]) if len(L) == 2 else None


def _divisors(n: int) -> list[int]:
    """The divisors d and n/d of n with d <= 2^16: trial division stops there,
    so that a huge coefficient cannot hang; a root it misses goes to (d)."""
    return sorted({x for d in range(1, min(isqrt(n), 1 << 16) + 1)
                   if n % d == 0 for x in (d, n // d)})


def _root_q(f: list):
    """A rational root u/v of the monic f, or None, for f(0) != 0: by the
    rational-root theorem on the integer multiple a of f, u divides a_0 and
    v divides a_n."""
    den = lcm(*(c.denominator for c in f))
    a = [int(c * den) for c in f]
    for v, u, sign in product(_divisors(a[-1]), _divisors(abs(a[0])), (1, -1)):
        if gcd(u, v) == 1 and not sum(c * (sign * u) ** i * v ** (len(a) - 1 - i)
                                      for i, c in enumerate(a)):
            return Fraction(sign * u, v)
    return None


def _crt_idempotent(b: ModMap, f: list, part: list) -> ModMap:
    """e(b) for e = 1 mod part and e = 0 mod g, where f = part * g with part
    and g coprime: a nontrivial idempotent of k[b], by the CRT."""
    F = b.source.algebra.field
    g, rem = _pdivmod(F, f, part)
    u, h = _pgcdex(F, part, g)
    _certify(not rem and len(h) == 1, "CRT split: the minimal polynomial is not "
             "the product of the part and a coprime cofactor")
    e = _horner(_pdivmod(F, _pmul(F, u, g), f)[1], b)
    _certify(e.compose(e) == e and not e.is_zero() and e != identity_map(b.source),
             "CRT split: the CRT element is not a nontrivial idempotent")
    return e


def _eigen_split(b: ModMap):
    """(e, None) with e a nontrivial idempotent of k[b], by the CRT, when
    two coprime factors of the minimal polynomial f of b are found;
    (None, λ) when f = (t - λ)^m; (None, None) otherwise.  In this order:
    (a) f = t^a * g with 0 < a < deg f splits by Fitting's lemma; (b) a
    power of t - λ is read off f; (c) a root λ in k splits f as
    (t - λ)^a * g.  What is left, a power of one irreducible of degree > 1
    or a product of such irreducibles, is (d)."""
    F = b.source.algebra.field
    f = _minimal_polynomial(b)
    a = next(i for i, c in enumerate(f) if not F.is_zero(c))
    if 0 < a < len(f) - 1:
        return _crt_idempotent(b, f, [F.zero] * a + [F.one]), None
    lam = _power_root(F, f)
    if lam is not None:
        return None, lam
    lam = _root_fp(F, f) if isinstance(F, PrimeField) else _root_q(f)
    if lam is None:
        return None, None
    part = linear = [F.neg(lam), F.one]
    while not _pdivmod(F, f, _pmul(F, part, linear))[1]:
        part = _pmul(F, part, linear)
    return _crt_idempotent(b, f, part), None


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
    _certify(im_e.dim_total + im_f.dim_total == rep.dim_total and im_e.dim_total > 0
             and im_f.dim_total > 0, "split: e and 1 - e do not split the dimension")
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
        _certify(e_i.compose(e_i) == e_i, "leaf witness is not idempotent")
        for other in leaves[i + 1:]:
            e_j = other.embed.compose(other.retract)
            _certify(e_i.compose(e_j).is_zero(), "leaf witnesses are not orthogonal")
    if leaves:
        _certify(total == identity_map(M), "leaf witnesses do not sum to the identity")

    class_reps, counts = _iso_classes([leaf.rep for leaf in leaves])
    return Decomposition(M, tuple(leaves), tuple(class_reps), tuple(counts))


def _iso_classes(indecs: Sequence[Rep]) -> tuple[list[Rep], list[int]]:
    """Class representatives, in order of first appearance, and
    multiplicities of a list of certified indecomposables, matched by
    ``_indec_iso``."""
    class_reps: list[Rep] = []
    counts: list[int] = []
    for rep in indecs:
        for ci, rep0 in enumerate(class_reps):
            if _indec_iso(rep, rep0) is not None:
                counts[ci] += 1
                break
        else:
            class_reps.append(rep)
            counts.append(1)
    return class_reps, counts


# ---------------------------------------------------------------------------
# Isomorphism testing


def _indec_iso(X: Rep, Y: Rep, hom=None) -> Optional[ModMap]:
    """The first element of hom(X, Y), hom_basis by default, that is an iso, or None.

    For indecomposable X and Y this decides X ~= Y exactly: the
    non-isomorphisms X -> Y form the proper subspace rad(X, Y) of Hom(X, Y)
    when X ~= Y, so some basis element lies outside it."""
    if X.dims != Y.dims:
        return None
    for h in (hom or hom_basis)(X, Y):
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
    _certify(all(is_invertible(b) for b in cert.blocks), "iso_test: the assembled iso is singular")
    return IsoResult(True, cert, "assembled from summand isomorphisms")
