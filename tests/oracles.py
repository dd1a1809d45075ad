"""Test-support oracles: certificates that the package proves by
construction, re-checked here by independent means."""

from taubound import CertificationError
from taubound.linalg import Mat, nullspace
from taubound.reps import ModMap, acts_nilpotently, hom_basis, linear_combination


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
