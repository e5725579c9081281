"""Exact arithmetic in the cyclotomic field Q(zeta_p) for an odd prime p.

Numbers are stored in the power basis {1, zeta, ..., zeta^(p-2)} with exact
rational coefficients, so rationality is literally a zero-coefficient test.
The Galois action, complex conjugation, squared modulus, the canonical
additive character e_q of a finite field, and Gauss sums are all computed
without any floating point; floating evaluation exists only as a diagnostic
(see :func:`complex_approx`).

Numbers attached to different primes never mix: sums live in a single
Q(zeta_p), matching the needs of the character computations downstream.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Sequence

from .fields import TABLE_BOUND, FieldElem, FieldSpec, field, is_prime


def _canonical(p: int, full: Sequence) -> tuple[Fraction, ...]:
    """Collapse coefficients on {zeta^0..zeta^(p-1)} to the power basis.

    Uses 1 + zeta + ... + zeta^(p-1) = 0 to eliminate the zeta^(p-1) slot.
    """
    top = full[p - 1]
    return tuple(Fraction(c - top) for c in full[: p - 1])


class CycNum:
    """An element of Q(zeta_p) in the power basis, exact and immutable."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        if not is_prime(p) or p == 2:
            raise ValueError(f"odd prime required, got {p}")
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != p - 1:
            raise ValueError(f"expected {p - 1} coefficients, got {len(coeffs)}")
        self.p = p
        self.coeffs = coeffs

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "CycNum":
        return cls(p, [0] * (p - 1))

    @classmethod
    def one(cls, p: int) -> "CycNum":
        return cls.rational(p, 1)

    @classmethod
    def rational(cls, p: int, value) -> "CycNum":
        coeffs = [Fraction(value)] + [Fraction(0)] * (p - 2)
        return cls(p, coeffs)

    @classmethod
    def zeta(cls, p: int, k: int = 1) -> "CycNum":
        """zeta_p^k, reduced into the power basis."""
        k %= p
        full = [0] * p
        full[k] = 1
        return cls(p, _canonical(p, full))

    @classmethod
    def from_residue_vector(cls, p: int, full: Sequence) -> "CycNum":
        """Build sum_i full[i] * zeta^i from a length-p vector indexed by residues."""
        if len(full) != p:
            raise ValueError(f"expected {p} residue slots")
        return cls(p, _canonical(p, full))

    # -- ring operations -------------------------------------------------------

    def _check(self, other) -> "CycNum":
        if isinstance(other, (int, Fraction)):
            return CycNum.rational(self.p, other)
        if not isinstance(other, CycNum):
            raise TypeError(f"cannot combine CycNum with {type(other).__name__}")
        if other.p != self.p:
            raise ValueError(f"mixed cyclotomic orders: {self.p} vs {other.p}")
        return other

    def __add__(self, other):
        other = self._check(other)
        return CycNum(self.p, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return CycNum(self.p, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return CycNum(self.p, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycNum(self.p, [a * other for a in self.coeffs])
        other = self._check(other)
        p = self.p
        full = [Fraction(0)] * p
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        full[(i + j) % p] += a * b
        return CycNum(p, _canonical(p, full))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative exponents not supported")
        result = CycNum.one(self.p)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- Galois structure ------------------------------------------------------

    def galois(self, k: int) -> "CycNum":
        """Image under zeta -> zeta^k; requires gcd(k, p) = 1."""
        p = self.p
        if k % p == 0:
            raise ValueError(f"galois exponent must be a unit mod {p}")
        full = [Fraction(0)] * p
        for i, a in enumerate(self.coeffs):
            full[(i * k) % p] += a
        return CycNum(p, _canonical(p, full))

    def conj(self) -> "CycNum":
        """Complex conjugation, i.e. the Galois map zeta -> zeta^(p-1)."""
        return self.galois(self.p - 1)

    def norm_sq(self) -> "CycNum":
        """Squared modulus x * conj(x); always fixed by conjugation."""
        return self * self.conj()

    def is_rational(self) -> tuple[bool, Fraction | None]:
        """(True, value) when all basis coefficients beyond the constant vanish."""
        if any(self.coeffs[1:]):
            return False, None
        return True, self.coeffs[0]

    # -- plumbing ----------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNum.rational(self.p, other)
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
        return {
            "p": self.p,
            "coeffs": [[c.numerator, c.denominator] for c in self.coeffs],
        }


def complex_approx(x: CycNum) -> complex:
    """Floating evaluation at zeta = exp(2*pi*i/p).  Diagnostic only, never an oracle."""
    z = cmath.exp(2j * math.pi / x.p)
    return sum(float(c) * z ** i for i, c in enumerate(x.coeffs))


def zeta_pow(p: int, k: int) -> CycNum:
    return CycNum.zeta(p, k)


def e_q(x: FieldElem) -> CycNum:
    """Canonical additive character: x -> zeta_p^tr(x).  Turns + into *."""
    return CycNum.zeta(x.spec.p, x.trace())


def gauss_sum(spec: FieldSpec) -> CycNum:
    """Definitional Gauss sum over GF(q): sum of legendre(x) * e_q(x).

    Accumulates integer counts per trace residue before building the exact
    cyclotomic value, so the summation itself stays in plain integers.
    """
    p = spec.p
    full = [0] * p
    if spec.q <= TABLE_BOUND:
        spec.tables()
        for i in range(1, spec.q):
            full[spec.trace_idx(i)] += spec.legendre_idx(i)
    else:
        for x in spec.elements():
            s = x.legendre()
            if s:
                full[x.trace()] += s
    return CycNum.from_residue_vector(p, full)


def gauss_sum_via_prime(p: int, n: int) -> CycNum:
    """The closed power identity -(-G(p))^n, computed by cyclotomic exponentiation."""
    g = gauss_sum(field(p, 1))
    return -((-g) ** n)
