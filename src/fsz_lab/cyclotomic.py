"""Exact arithmetic in the cyclotomic integers Z[zeta_p] for an odd prime p.

Numbers are stored as their integer coefficients in the power basis
{1, zeta, ..., zeta^(p-2)}, so rationality is literally a zero-coefficient
test and equal numbers have equal coefficients.  The Galois action, complex
conjugation, squared modulus, the canonical additive character e_q of a
finite field, and Gauss sums are all computed without any floating point.

Every character sum here, every Gauss sum and every beta is a sum of p-th
roots of unity with integer multiplicities, so Z[zeta_p] holds them all and
no denominator ever arises.  Sums and products run on Python ints: a product
is one integer cyclic convolution of the nonzero coefficients mod p.  ``int``
is the only scalar.  ``to_json`` writes each coefficient as a
[numerator, denominator] pair whose denominator is always 1.  Only the public
constructor and its classmethods validate p and the coefficients; ring
operations build their results from operands that were checked already.

Numbers attached to different primes never mix: sums live in a single
Z[zeta_p], matching the needs of the character computations downstream.
"""

from __future__ import annotations

from functools import cache
from operator import mul
from typing import Sequence

from .fields import FieldElem, FieldSpec, field, is_prime, power


def _canonical(p: int, full: Sequence[int]) -> tuple[int, ...]:
    """Collapse coefficients on {zeta^0..zeta^(p-1)} to the power basis.

    Uses 1 + zeta + ... + zeta^(p-1) = 0 to eliminate the zeta^(p-1) slot.
    """
    top = full[p - 1]
    return tuple([c - top for c in full[: p - 1]])


class CycNum:
    """An element of Z[zeta_p]: integer power-basis coefficients, exact and immutable."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Sequence[int]):
        if not is_prime(p) or p == 2:
            raise ValueError(f"odd prime required, got {p}")
        coeffs = tuple(coeffs)
        if len(coeffs) != p - 1:
            raise ValueError(f"expected {p - 1} coefficients, got {len(coeffs)}")
        if not all(type(c) is int for c in coeffs):
            raise ValueError("coefficients must be ints")
        self.p = p
        self.coeffs = coeffs

    @staticmethod
    def _wrap(p: int, coeffs: tuple[int, ...]) -> "CycNum":
        """Wrap coefficients derived from already-checked operands."""
        x = object.__new__(CycNum)
        x.p = p
        x.coeffs = coeffs
        return x

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "CycNum":
        return cls(p, [0] * (p - 1))

    @classmethod
    def one(cls, p: int) -> "CycNum":
        return cls.rational(p, 1)

    @classmethod
    def rational(cls, p: int, value: int) -> "CycNum":
        return cls(p, [value] + [0] * (p - 2))

    @classmethod
    def zeta(cls, p: int, k: int = 1) -> "CycNum":
        """zeta_p^k, reduced into the power basis."""
        k %= p
        full = [0] * p
        full[k] = 1
        return cls(p, _canonical(p, full))

    @classmethod
    def from_residue_vector(cls, p: int, full: Sequence[int]) -> "CycNum":
        """Build sum_i full[i] * zeta^i from a length-p vector indexed by residues."""
        if len(full) != p:
            raise ValueError(f"expected {p} residue slots")
        return cls(p, _canonical(p, full))

    # -- ring operations -------------------------------------------------------

    def _check(self, other) -> "CycNum":
        if type(other) is int:
            return CycNum._wrap(self.p, (other,) + (0,) * (self.p - 2))
        if not isinstance(other, CycNum):
            raise TypeError(f"cannot combine CycNum with {type(other).__name__}")
        if other.p != self.p:
            raise ValueError(f"mixed cyclotomic orders: {self.p} vs {other.p}")
        return other

    def _combine(self, other, sign: int) -> "CycNum":
        """self + sign * other, coefficient by coefficient."""
        other = self._check(other)
        return CycNum._wrap(self.p, tuple([a + sign * b for a, b in zip(self.coeffs, other.coeffs)]))

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return CycNum._wrap(self.p, tuple([-a for a in self.coeffs]))

    def __mul__(self, other):
        if type(other) is int:
            return CycNum._wrap(self.p, tuple([a * other for a in self.coeffs]))
        other = self._check(other)
        p = self.p
        terms_b = [(j, b) for j, b in enumerate(other.coeffs) if b]
        full = [0] * p
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms_b:
                    full[(i + j) % p] += a * b
        return CycNum._wrap(p, _canonical(p, full))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative exponents not supported")
        return power(self, e, mul, CycNum.one(self.p))

    # -- Galois structure ------------------------------------------------------

    def galois(self, k: int) -> "CycNum":
        """Image under zeta -> zeta^k; requires gcd(k, p) = 1."""
        p = self.p
        if k % p == 0:
            raise ValueError(f"galois exponent must be a unit mod {p}")
        full = [0] * p
        for i, a in enumerate(self.coeffs):
            full[(i * k) % p] += a
        return CycNum._wrap(p, _canonical(p, full))

    def conj(self) -> "CycNum":
        """Complex conjugation, i.e. the Galois map zeta -> zeta^(p-1)."""
        return self.galois(self.p - 1)

    def norm_sq(self) -> "CycNum":
        """Squared modulus x * conj(x); always fixed by conjugation."""
        return self * self.conj()

    # -- comparison and output -------------------------------------------------

    def is_rational(self) -> tuple[bool, int | None]:
        """(True, value) when all basis coefficients beyond the constant vanish."""
        if any(self.coeffs[1:]):
            return False, None
        return True, self.coeffs[0]

    def __eq__(self, other):
        if type(other) is int:
            return not any(self.coeffs[1:]) and self.coeffs[0] == other
        if isinstance(other, CycNum):
            return self.p == other.p and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                z = "z" if i == 1 else f"z^{i}"
                terms.append(z if c == 1 else f"{c}*{z}")
        body = " + ".join(terms) if terms else "0"
        return f"CycNum(p={self.p}: {body})"

    def to_json(self) -> dict:
        return {"p": self.p, "coeffs": [[c, 1] for c in self.coeffs]}


def e_q(x: FieldElem) -> CycNum:
    """Canonical additive character: x -> zeta_p^tr(x).  Turns + into *."""
    return CycNum.zeta(x.spec.p, x.trace())


def gauss_sum(spec: FieldSpec) -> CycNum:
    """Definitional Gauss sum over GF(q): sum of legendre(x) * e_q(x).

    One loop over element indices at every q, with no exp/log table and no
    FieldElem: the sign is read off the square mask of ``spec.qr_set()``, the
    trace off ``spec.traces()``, and counts per trace residue stay plain ints.
    """
    p = spec.p
    full = [0] * p
    for t, square in zip(spec.traces(), spec.qr_set().mask):
        full[t] += 1 if square else -1
    full[0] -= 1  # index 0 is zero, which the mask marks though legendre(0) = 0
    return CycNum.from_residue_vector(p, full)


@cache
def gauss_sum_via_prime(p: int, n: int) -> CycNum:
    """The closed power identity -(-G(p))^n, computed by cyclotomic exponentiation.

    Cached: the value depends only on (p, n), and a CycNum is immutable.
    """
    g = gauss_sum(field(p, 1))
    return -((-g) ** n)
