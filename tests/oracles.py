"""Test-support oracles: certificates that the package proves by
construction, re-checked here by independent means."""

from taubound import CertificationError
from taubound.decompose import iso_test
from taubound.linalg import Mat, nullspace
from taubound.reps import (ModMap, acts_nilpotently, direct_sum, hom_basis, linear_combination,
                           projective, simple, zero_map)


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


class ReferenceRegistry:
    """Names as ``IsoRegistry`` gives them, every match decided by
    ``iso_test``: P(v) and then S(v) are recorded vertex by vertex, a module
    isomorphic to a recorded one takes its name, and any other module gets
    a fresh dimension-vector name."""

    def __init__(self, algebra, seed=0):
        self.seed, self.entries = seed, []
        for v, lab in enumerate(algebra.quiver.vertices):
            self._record(projective(algebra, v), f"P({lab})")
            self._record(simple(algebra, v), f"S({lab})")

    def _record(self, rep, name=None):
        for rep0, name0 in self.entries:
            if iso_test(rep, rep0, seed=self.seed).isomorphic:
                return name0
        if name is None:
            base = name = "M(" + ",".join(map(str, rep.dims)) + ")"
            taken, k = {name0 for _, name0 in self.entries}, 1
            while name in taken:
                k += 1
                name = f"{base}#{k}"
        self.entries.append((rep, name))
        return name

    def name_of(self, rep):
        return self._record(rep)


def approximation_map_from_inclusions(X, homs):
    """f = Σ_c ι_c ∘ g_c: X -> Y for the kept copies g_c: X -> T_c, Y the
    direct sum of the T_c in order and ι_c its inclusions."""
    ds = direct_sum(X.algebra, [g.target for g in homs])
    f = zero_map(X, ds.rep)
    for g, incl in zip(homs, ds.inclusions):
        f = f.add(incl.compose(g))
    return f
