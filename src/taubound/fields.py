"""Exact coefficient fields.

Two fields are supported: a prime field Fp (elements are canonical ints in
[0, p)) and the rationals Q (elements are fractions.Fraction).  Everything
downstream is parameterised over a field object so that all linear algebra
stays exact; floating point is never used.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Union


class FieldError(ValueError):
    pass


# Miller-Rabin to the first 13 prime bases is exact below this bound
# (Sorenson-Webster 2015); from it on, base 2 plus a strong Lucas test is BPSW
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _strong_probable_prime(n: int, a: int) -> bool:
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    return x == 1 or any(pow(x, 1 << r, n) == n - 1 for r in range(s))


def _jacobi(a: int, n: int) -> int:
    a, sign = a % n, 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        sign *= -1 if twos % 2 and n % 8 in (3, 5) else 1
        sign *= -1 if a % 4 == 3 and n % 4 == 3 else 1
        a, n = n % a, a
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test with Selfridge's parameters, for odd n > 41:
    D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1-D)/4."""
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q, half = (1 - D) // 4, (n + 1) // 2
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    hit = U == 0 or V == 0
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        hit = hit or V == 0
    return hit


def is_prime(n: int) -> bool:
    """Exact below 3317044064679887385961981; from there on Baillie-PSW,
    which has no known counterexample."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    return (all(_strong_probable_prime(n, a) for a in _MR_BASES)
            and (n < _MR_EXACT_BELOW or _strong_lucas_probable_prime(n)))


@dataclass(frozen=True)
class PrimeField:
    """Arithmetic of Z/p for a prime p, elements normalised to [0, p)."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise FieldError(f"field Fp needs a prime, got {self.p}")

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def of_int(self, n: int) -> int:
        return n % self.p

    def of_fraction(self, num: int, den: int) -> int:
        if den % self.p == 0:
            raise FieldError(f"denominator {den} is zero mod {self.p}")
        return (num * pow(den, -1, self.p)) % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise FieldError("division by zero in Fp")
        return pow(a, -1, self.p)

    def is_zero(self, a: int) -> bool:
        return a % self.p == 0

    def random(self, rng) -> int:
        return rng.randrange(self.p)

    def to_str(self, a: int) -> str:
        return str(a)

    @property
    def name(self) -> str:
        return f"Fp {self.p}"

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


@dataclass(frozen=True)
class RationalField:
    """The field of rational numbers, elements are Fraction instances."""

    @property
    def characteristic(self) -> int:
        return 0

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def of_int(self, n: int) -> Fraction:
        return Fraction(n)

    def of_fraction(self, num: int, den: int) -> Fraction:
        return Fraction(num, den)

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def sub(self, a: Fraction, b: Fraction) -> Fraction:
        return a - b

    def neg(self, a: Fraction) -> Fraction:
        return -a

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def inv(self, a: Fraction) -> Fraction:
        if a == 0:
            raise FieldError("division by zero in Q")
        return 1 / a

    def is_zero(self, a: Fraction) -> bool:
        return a == 0

    def random(self, rng) -> Fraction:
        return Fraction(rng.randrange(-8, 9))

    def to_str(self, a: Fraction) -> str:
        return str(a)

    @property
    def name(self) -> str:
        return "Q"

    def __repr__(self) -> str:
        return "RationalField()"


Field = Union[PrimeField, RationalField]

DEFAULT_PRIME = 32003

QQ = RationalField()


def default_prime_field() -> PrimeField:
    return PrimeField(DEFAULT_PRIME)
