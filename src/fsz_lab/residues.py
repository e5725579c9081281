"""Counting identities for quadratic residues and related congruences.

Every counting operation here comes in two modes that must agree:

* ``closed`` evaluates an exact integer formula.  Formulas that would
  involve the Gauss sum G(q) are arranged so only G(p)^2 = (-1)^((p-1)/2) p
  appears, keeping everything in integer arithmetic.
* ``enum`` counts directly by enumeration over the field and acts as the
  independent oracle.

The binomial product sums likewise pair a big-integer oracle against a
recursive base-p digit factorization fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import comb

from .fields import FieldElem, FieldSpec, is_prime


def gauss_square_int(p: int) -> int:
    """G(p)^2 as an integer: p when p = 1 mod 4, -p when p = 3 mod 4."""
    return p if p % 4 == 1 else -p


def gauss_sum_int(p: int, n: int) -> int:
    """G(p^n) as an integer; only defined for even n (odd n is irrational)."""
    if n % 2:
        raise ValueError("G(p^n) is rational only for even n")
    return -(gauss_square_int(p) ** (n // 2))


def qr_diff_count(spec: FieldSpec, c: FieldElem, mode: str = "closed") -> int:
    """|QR intersect (QR + c)| for c != 0: the difference-of-squares count."""
    if c.spec != spec:
        raise ValueError("c must live in the field of spec")
    if c.is_zero():
        raise ValueError("c must be nonzero")
    q = spec.q
    if mode == "closed":
        if spec.minus_one_is_qr():
            return (q + 3) // 4 if c.legendre() == 1 else (q - 1) // 4
        return (q + 1) // 4
    if mode == "enum":
        # count the squares x whose shift x + c is a square, on the mask
        mask = spec.qr_set().mask
        return sum(compress(map(mask.__getitem__, spec.add_map(c.index())), mask))
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class FiberCountQuery:
    """Inputs for counting squares in one fiber of the scaled trace map.

    z must be nonzero so that x -> tr(z*x) is one of the surjections onto the
    prime subfield; y is the fiber's value there, as an int in [0, p).
    """

    spec: FieldSpec
    z: FieldElem
    y: int

    def __post_init__(self):
        if self.z.spec != self.spec:
            raise ValueError("z must live in the field of spec")
        if self.z.is_zero():
            raise ValueError("z must be nonzero")
        if not 0 <= self.y < self.spec.p:
            raise ValueError("y must lie in the prime subfield")


def trace_fiber_qr_count(query: FiberCountQuery, mode: str = "closed") -> int:
    """Number of squares x with tr(z*x) = y, by case formula or enumeration.

    The enumeration reads the field's tally of each square class's traces,
    counted once per field over the exp table, so it needs q <= TABLE_BOUND.
    """
    spec, z, y = query.spec, query.z, query.y
    p, n, q = spec.p, spec.n, spec.q
    if mode == "enum":
        # the squares are 0, of trace 0, and exp[k] for even k, each with
        # z * exp[k] = exp[log z + k]; q - 1 is even, so these exponents are
        # exactly those of log z's parity, whose traces the tables tally
        t = spec.tables()
        return (y == 0) + t["fiber"][t["log"][z.index()] & 1][y]
    if mode != "closed":
        raise ValueError(f"unknown mode {mode!r}")
    sz = z.legendre()
    g2 = gauss_square_int(p)
    if y == 0:
        if n % 2:
            return (p ** (n - 1) + 1) // 2
        num = q + (p - 1) * sz * gauss_sum_int(p, n) + p
    else:
        if n % 2:
            # G(p) * G(p^n) collapses to (G(p)^2)^((n+1)/2); the substitution
            # a -> -a y in the character sum contributes legendre(-1) as well,
            # which only matters when p = 3 mod 4; eta_q(y) = eta_p(y)^n = eta_p(y)
            # for y in GF(p) and odd n
            sy = spec.elem(y).legendre()
            s_minus = 1 if p % 4 == 1 else -1
            num = q + s_minus * sz * sy * g2 ** ((n + 1) // 2)
        else:
            num = q - sz * gauss_sum_int(p, n)
    quot, rem = divmod(num, 2 * p)
    if rem:
        raise AssertionError("fiber formula did not produce an integer")
    return quot


def power_sum_mod(p: int, k: int, mode: str = "closed") -> int:
    """sum of i^k over 1 <= i <= p-1, mod p: 0 unless (p-1) | k, else -1."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if mode == "closed":
        return p - 1 if k % (p - 1) == 0 else 0
    if mode == "direct":
        return sum(pow(i, k, p) for i in range(1, p)) % p
    raise ValueError(f"unknown mode {mode!r}")


def _lucas_sum(p: int, j: int, k: int, l: int) -> int:
    # sum_{m < p^j} C(m,k)C(m,l) mod p, factored one base-p block at a time;
    # internal: no half-range restriction on k, l beyond k, l < p^j.
    block = p ** (j - 1)
    alpha, k1 = divmod(k, block)
    beta, l1 = divmod(l, block)
    inner = sum(comb(m, alpha) * comb(m, beta) for m in range(p)) % p
    if j == 1 or inner == 0:
        return inner
    return (inner * _lucas_sum(p, j - 1, k1, l1)) % p


def binom_product_sum_mod(p: int, j: int, k: int, l: int, mode: str = "lucas") -> int:
    """sum of C(m,k)C(m,l) over 0 <= m < p^j, mod p.

    Vanishes when k + l < p^j - 1 and equals (-1)^(j(p-1)/2) at the extreme
    k = l = (p^j - 1)/2.  The ``direct`` mode is the big-integer oracle; the
    ``lucas`` mode carries the digit factorization.  p must be an odd prime
    and j >= 1.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    bound = (p ** j - 1) // 2
    if not (0 <= k <= bound and 0 <= l <= bound):
        raise ValueError(f"k, l must lie in [0, {bound}]")
    if mode == "direct":
        return sum(comb(m, k) * comb(m, l) for m in range(p ** j)) % p
    if mode == "lucas":
        return _lucas_sum(p, j, k, l)
    raise ValueError(f"unknown mode {mode!r}")
