"""Exact coefficient fields.

Two fields are supported: a prime field Fp (elements are canonical ints in
[0, p)) and the rationals Q (elements are fractions.Fraction).  Everything
downstream is parameterised over a field object so that all linear algebra
stays exact; floating point is never used.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union


class FieldError(ValueError):
    pass


@dataclass(frozen=True)
class PrimeField:
    """Arithmetic of Z/p for a prime p, elements normalised to [0, p)."""

    p: int

    def __post_init__(self):
        if self.p < 2:
            raise FieldError(f"field Fp needs a prime, got {self.p}")
        import sympy

        if not sympy.isprime(self.p):
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

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

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

    def div(self, a: Fraction, b: Fraction) -> Fraction:
        return a / self._nonzero(b)

    def _nonzero(self, b: Fraction) -> Fraction:
        if b == 0:
            raise FieldError("division by zero in Q")
        return b

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
