"""Exact arithmetic in the cyclotomic field Q(zeta_p) for an odd prime p.

Numbers are stored in the power basis {1, zeta, ..., zeta^(p-2)} with exact
rational coefficients, so rationality is literally a zero-coefficient test.
The Galois action, complex conjugation, squared modulus, the canonical
additive character e_q of a finite field, and Gauss sums are all computed
without any floating point; floating evaluation exists only as a diagnostic
(see :func:`complex_approx`).

A product runs as one integer cyclic convolution: both operands are brought
to integer numerators over one common denominator (1 for every Gauss sum and
every beta), the nonzero terms are convolved with Python ints mod p, and the
p - 1 result coefficients become Fractions once.  Only the public constructor
and its classmethods validate p and the coefficients; ring operations build
their results from operands that were checked already.

Numbers attached to different primes never mix: sums live in a single
Q(zeta_p), matching the needs of the character computations downstream.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Sequence

from .fields import TABLE_BOUND, FieldElem, FieldSpec, field, is_prime


def _canonical(p: int, full: Sequence, d: int = 1) -> tuple[Fraction, ...]:
    """Collapse coefficients full[i] / d on {zeta^0..zeta^(p-1)} to the power basis.

    Uses 1 + zeta + ... + zeta^(p-1) = 0 to eliminate the zeta^(p-1) slot.
    """
    top = full[p - 1]
    return tuple(Fraction(c - top, d) for c in full[: p - 1])


def _rational_coeffs(p: int, value) -> tuple[Fraction, ...]:
    """Power-basis coefficients of the rational number value."""
    return (Fraction(value),) + (Fraction(0),) * (p - 2)


def _integer_terms(coeffs: tuple[Fraction, ...]) -> tuple[list[tuple[int, int]], int]:
    """The nonzero (index, numerator) pairs of coeffs over their common denominator d."""
    d = math.lcm(*(c.denominator for c in coeffs))
    return [(i, c.numerator * (d // c.denominator)) for i, c in enumerate(coeffs) if c], d


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

    @staticmethod
    def _wrap(p: int, coeffs: tuple[Fraction, ...]) -> "CycNum":
        """Wrap coefficients derived from already-checked operands, unchecked."""
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
    def rational(cls, p: int, value) -> "CycNum":
        return cls(p, _rational_coeffs(p, value))

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
            return CycNum._wrap(self.p, _rational_coeffs(self.p, other))
        if not isinstance(other, CycNum):
            raise TypeError(f"cannot combine CycNum with {type(other).__name__}")
        if other.p != self.p:
            raise ValueError(f"mixed cyclotomic orders: {self.p} vs {other.p}")
        return other

    def __add__(self, other):
        other = self._check(other)
        return CycNum._wrap(self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return CycNum._wrap(self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return CycNum._wrap(self.p, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycNum._wrap(self.p, tuple(a * other for a in self.coeffs))
        other = self._check(other)
        p = self.p
        terms_a, da = _integer_terms(self.coeffs)
        terms_b, db = _integer_terms(other.coeffs)
        full = [0] * p
        for i, a in terms_a:
            for j, b in terms_b:
                full[(i + j) % p] += a * b
        return CycNum._wrap(p, _canonical(p, full, da * db))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative exponents not supported")
        if e == 0:
            return CycNum.one(self.p)
        base = self
        while not e & 1:
            base = base * base
            e >>= 1
        # result starts at the lowest set bit's power, not at one
        result = base
        e >>= 1
        while e:
            base = base * base
            if e & 1:
                result = result * base
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
        return CycNum._wrap(p, _canonical(p, full))

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
            return self.coeffs == _rational_coeffs(self.p, other)
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
        # x = exp[k] is a square exactly when k is even
        t = spec.tables()
        trace = t["trace"]
        for k, i in enumerate(t["exp"]):
            full[trace[i]] += -1 if k & 1 else 1
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
