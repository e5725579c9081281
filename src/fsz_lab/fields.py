"""Exact arithmetic in GF(p^n) for odd primes p.

An element is one int, its code: over GF(p) the residue, over GF(p^n) the
coefficients of its polynomial modulo a canonical irreducible (the
lexicographically least monic irreducible of degree n) packed into one int,
coefficient k in bit slot k (Kronecker substitution).  Equal (p, n) share
one modulus and one coding, `FieldSpec.code`, so an element has one code in
a `FieldElem`, a matrix or a block, and one serialization.  A sum of up to
MAX_TERMS = 2^16 products of codes holds its unreduced convolution in the
slots, and one `reduce` maps it to the code of its value: element sums,
differences and products are one `reduce` each.  Codes are canonical, so
equality and hashing read them.

The module provides the trace map onto the prime subfield, Legendre symbols,
and quadratic-residue sets.  A residue set is a read-only set view over a
bytearray mask on element indices, filled by squaring on plain ints without
the tables, so it can check them.  ``FieldSpec.traces()`` lists the traces by
index at every q for the tables and ``cyclotomic.gauss_sum``.  For fields of
at most TABLE_BOUND elements, exp/log and trace tables on element indices,
with a tally of each square class's traces, are built lazily: the
enumeration oracles and the fast fsz route run on these index codes, and a
nonzero element is a square exactly when its log is even.  ``power`` is the
one square-and-multiply: code, polynomial, matrix and cyclotomic powers and
the block group's twisted sums all walk their exponent through it.

Elements of the prime subfield are identified with the integers
{0, ..., p-1}, which are their own codes, and mixed int/element arithmetic
uses that identification.  All values are immutable; operations never
mutate their operands, and mixing elements of different fields is a hard
error rather than a coercion.
"""

from __future__ import annotations

import threading
from collections import Counter
from collections.abc import Set
from itertools import chain, compress, product
from operator import mul
from typing import Callable, Iterator, Sequence

TABLE_BOUND = 1 << 16


# The 12 prime bases 2..37 decide primality below this bound; the bound
# itself, 399165290221 * 798330580441, is a strong pseudoprime to all of them.
PRIME_TEST_BOUND = 318665857834031151167461


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases 2..37.

    Exact for m < PRIME_TEST_BOUND (about 3.2 * 10^23, beyond every 64-bit
    integer); from the bound upward it raises ValueError, since these bases
    cannot decide such m.
    """
    if m >= PRIME_TEST_BOUND:
        raise ValueError(f"primality is only decided below {PRIME_TEST_BOUND}")
    if m < 2:
        return False
    for sp in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % sp == 0:
            return m == sp
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def factorize(m: int) -> dict[int, int]:
    """Trial-division factorization; only used on small cofactors like q - 1."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def power(x, e: int, mul: Callable, one):
    """x^e for e >= 0 under the product mul, with one as x^0.

    Left-to-right square-and-multiply: one squaring per bit of e after the
    leading one, and one product by x per set bit among them.
    """
    if e == 0:
        return one
    acc = x
    for bit in bin(e)[3:]:
        acc = mul(acc, acc)
        if bit == "1":
            acc = mul(acc, x)
    return acc


def split_prime_power(q: int) -> tuple[int, int]:
    """Write q as p^n with p prime, or raise ValueError."""
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    ((p, n),) = fac.items()
    return p, n


# -- dense little-endian polynomial arithmetic over Z_p ----------------------
#
# Polynomials are lists of ints in [0, p); the zero polynomial is [].  These
# helpers serve modulus construction, irreducibility testing, the coding's
# fold, the traces and the residue-mask build; elements multiply on codes.

def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a: list[int], f: Sequence[int], p: int) -> list[int]:
    # f monic
    a = list(a)
    df = len(f) - 1
    while len(a) - 1 >= df and a:
        c = a[-1]
        if c:
            shift = len(a) - 1 - df
            for i in range(df):
                a[shift + i] = (a[shift + i] - c * f[i]) % p
        a.pop()
    return _ptrim(a)


def _pmulmod(a: list[int], b: list[int], f: Sequence[int], p: int) -> list[int]:
    return _pmod(_pmul(a, b, p), f, p)


def _ppowmod(a: list[int], e: int, f: Sequence[int], p: int) -> list[int]:
    return power(_pmod(a, f, p), e, lambda x, y: _pmulmod(x, y, f, p), [1])


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        lead_inv = pow(b[-1], -1, p)
        bm = [(c * lead_inv) % p for c in b]
        a, b = b, _pmod(a, bm, p)
    if a:
        lead_inv = pow(a[-1], -1, p)
        a = [(c * lead_inv) % p for c in a]
    return a


def poly_is_irreducible(f: Sequence[int], p: int) -> bool:
    """Ben-Or irreducibility test for a monic polynomial over Z_p.

    A degree-n f is reducible iff it has a factor of some degree i <= n/2,
    i.e. iff gcd(f, x^(p^i) - x) != 1 for some such i.  Candidates with a
    root in Z_p (the i = 1 case) are rejected by evaluation, and the loop
    stops at the first nontrivial gcd, so most reducible f cost little.
    """
    n = len(f) - 1
    if n < 1 or f[-1] != 1:
        raise ValueError("monic polynomial of positive degree required")
    if n == 1:
        return True
    f = list(f)
    for a in range(p):
        value = 0
        for c in reversed(f):
            value = (value * a + c) % p
        if value == 0:
            return False
    h = _ppowmod([0, 1], p, f, p)  # x^p mod f
    for _ in range(2, n // 2 + 1):
        h = _ppowmod(h, p, f, p)
        g = h + [0] * (2 - len(h))
        g[1] = (g[1] - 1) % p
        if len(_pgcd(f, _ptrim(g), p)) != 1:
            return False
    return True


def canonical_modulus(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree n over Z_p.

    Tuples (c_0, ..., c_{n-1}) of low-order coefficients are compared left to
    right, which keeps the choice deterministic without external tables.  For
    n >= 2 every candidate with c_0 = 0 is divisible by x, so the walk skips
    those p^(n-1) tuples and starts at c_0 = 1.
    """
    if n == 1:
        return (0, 1)
    count = p ** n
    weights = [p ** (n - 1 - i) for i in range(n)]
    for k in range(weights[0], count):
        coeffs = [(k // w) % p for w in weights]
        f = coeffs + [1]
        if poly_is_irreducible(f, p):
            return tuple(f)
    raise RuntimeError(f"no irreducible polynomial of degree {n} over Z_{p}")


MAX_TERMS = 1 << 16  # the longest sum of products a code's slots hold


class _Coding:
    """Int codes of the elements of GF(p^f), sized for sums of MAX_TERMS products.

    `reduce` maps a non-negative unreduced sum of at most MAX_TERMS products
    of codes to the code of its value.  Over GF(p) (f = 1) a code is the
    residue itself, which `reduce` and `pow` take as such.
    """

    __slots__ = ("p", "f", "mask", "shifts", "index_mod", "minus_one", "reduce")

    def __init__(self, p: int, f: int, modulus: tuple[int, ...]):
        self.p = p
        self.f = f
        # a sum of MAX_TERMS products of reduced entries has coefficients of
        # at most MAX_TERMS f (p-1)^2, and 2^width >= q + p keeps every index
        # below `index_mod`
        width = max((MAX_TERMS * f * (p - 1) ** 2).bit_length(), (p ** f + p).bit_length())
        self.mask = mask = (1 << width) - 1
        self.shifts = range(0, f * width, width)  # the slots of a reduced code
        self.index_mod = (1 << width) - p
        self.minus_one = p - 1  # the code of -1: its constant coefficient
        if f == 1:
            self.reduce = p.__rmod__
            return
        # a product's slot k >= f adds its value times x^k mod the modulus:
        # `fold` pairs each slot s < f with those residues' coefficients at s
        high_shifts = range(f * width, (2 * f - 1) * width, width)
        powers = [_pmod([0] * k + [1], modulus, p) + [0] * f for k in range(f, 2 * f - 1)]
        fold = tuple(zip(self.shifts, zip(*powers)))

        def reduce(v: int) -> int:
            hi = [(v >> s) & mask for s in high_shifts]
            out = 0
            for s, row in fold:
                out |= ((((v >> s) & mask) + sum(map(mul, hi, row))) % p) << s
            return out

        self.reduce = reduce

    def pow(self, v: int, e: int) -> int:
        """The code of x^e for the element x with code v, e >= 0."""
        if self.f == 1:
            return pow(v, e, self.p)
        red = self.reduce
        return power(v, e, lambda a, b: red(a * b), 1)

    def from_index(self, i: int) -> int:
        """The code of the field element with index i (base-p digits, c_0 lowest)."""
        v = 0
        for s in self.shifts:
            i, c = divmod(i, self.p)
            v |= c << s
        return v

    def index(self, v: int) -> int:
        """The index of the element with code v: its coefficients as base-p digits.

        2^width = p mod M = 2^width - p, so v = sum c_k 2^(k width) is
        congruent to sum c_k p^k, the index, which lies in [0, q) within [0, M).
        """
        return v % self.index_mod


# one coding per (p, f), shared by every FieldSpec of that field
_CODINGS: dict[tuple[int, int], _Coding] = {}


class FieldSpec:
    """A finite field GF(p^n) with its canonical modulus.

    Use the module-level :func:`field` factory so equal parameters share one
    instance; direct construction is also fine (equality is by value).
    """

    __slots__ = ("p", "n", "q", "modulus", "code", "_lock", "_tables", "_qr", "_zero", "_one")

    def __init__(self, p: int, n: int = 1):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if p == 2:
            raise ValueError("p must be odd")
        if n < 1:
            raise ValueError(f"extension degree must be >= 1, got {n}")
        self.p = p
        self.n = n
        self.q = p ** n
        self.modulus = canonical_modulus(p, n)
        code = _CODINGS.get((p, n))
        if code is None:
            # setdefault keeps one object per field when threads race, since
            # block elements compare their codings by identity
            code = _CODINGS.setdefault((p, n), _Coding(p, n, self.modulus))
        self.code = code
        self._lock = threading.Lock()
        self._tables: dict | None = None
        self._qr: QuadraticResidues | None = None
        self._zero = FieldElem(self, 0)
        self._one = FieldElem(self, 1)

    # -- construction --------------------------------------------------------

    @property
    def zero(self) -> FieldElem:
        return self._zero

    @property
    def one(self) -> FieldElem:
        return self._one

    def elem(self, value: int | Sequence[int]) -> FieldElem:
        """Build an element from an integer (prime subfield) or coefficients."""
        if isinstance(value, int):
            return FieldElem(self, value % self.p)
        value = list(value)
        if len(value) > self.n:
            raise ValueError(f"at most {self.n} coefficients expected")
        return self.from_index(sum(c % self.p * self.p ** k for k, c in enumerate(value)))

    def from_index(self, i: int) -> FieldElem:
        """Element with mixed-radix index i: coeffs are base-p digits, c_0 least significant."""
        if not 0 <= i < self.q:
            raise ValueError(f"index out of range [0, {self.q})")
        return FieldElem(self, self.code.from_index(i))

    def elements(self) -> Iterator[FieldElem]:
        """All q elements, in index order."""
        return map(self.from_index, range(self.q))

    def units(self) -> Iterator[FieldElem]:
        """The q - 1 nonzero elements, in index order."""
        return map(self.from_index, range(1, self.q))

    def random(self, rng) -> FieldElem:
        return self.from_index(rng.randrange(self.q))

    def parse(self, text: str) -> FieldElem:
        """Inverse of str(elem): '[c0,c1,...] mod (p,n)', each c_k in [0, p)."""
        body, _, tail = text.partition(" mod ")
        if tail != f"({self.p},{self.n})":
            raise ValueError(f"element does not belong to GF({self.p}^{self.n}): {text!r}")
        coeffs = [int(c) for c in body.strip("[]").split(",")]
        return self._elem_in_range(coeffs, f"element {text!r}")

    def _elem_in_range(self, coeffs: list[int], what: str) -> FieldElem:
        """elem(coeffs); anything but n coefficients in [0, p) raises ValueError naming what."""
        if len(coeffs) != self.n:
            raise ValueError(f"{what} does not have {self.n} coefficients")
        if not all(0 <= c < self.p for c in coeffs):
            raise ValueError(f"{what} has a coefficient outside [0, {self.p})")
        return self.elem(coeffs)

    # -- residues and tables --------------------------------------------------

    def qr_set(self) -> "QuadraticResidues":
        """The set {y^2 : y in GF(q)}, as a read-only view over a square mask.

        y and -y have the same square, so only 0 and the y whose highest
        nonzero coefficient lies in 1..(p-1)/2 are squared, on plain ints;
        the tables are never read, so the set can serve as their oracle.
        Such a y is g + b*x + c: c its constant coefficient, b its x
        coefficient and g the rest.  g = b = 0 gives the squares of the prime
        subfield.  Otherwise one list product gives g^2 (g = 0 needs none),
        and h = g + b*x has h^2 = g^2 + 2b*(x g) + b^2*x^2, where x g is g's
        digits shifted up one place with the top one folded back through the
        modulus.  Then y^2 = h^2 + 2c*h + c^2 gives the p squares along c:
        2c*h adds c times 2h's digit to each digit above the constant one,
        and c^2 adds to the constant digit alone.
        """
        if self._qr is not None:
            return self._qr
        p, n, f = self.p, self.n, self.modulus
        mask = bytearray(self.q)
        for i in range((p + 1) // 2):  # g = b = 0
            mask[i * i % p] = 1
        if n > 1:
            half = range(1, (p + 1) // 2)
            xx = _pmulmod([0, 1], [0, 1], f, p)
            xx += [0] * (n - len(xx))
            # g = 0 leaves b as the leading coefficient; a nonzero g, of
            # degree t >= 2, leads, and b runs over all of GF(p)
            highs = chain([([0] * n, half)], (
                ([0, 0, *mid, lead] + [0] * (n - 1 - t), range(p))
                for t in range(2, n)
                for mid in product(range(p), repeat=t - 2)
                for lead in half
            ))
            for g, b_range in highs:
                gg = _pmulmod(g, g, f, p)
                gg += [0] * (n - len(gg))
                top = g[-1]
                xg = [-top * f[0]] + [g[k - 1] - top * f[k] for k in range(1, n)]
                for b in b_range:
                    hh = [(gg[k] + 2 * b * xg[k] + b * b * xx[k]) % p for k in range(n)]
                    # the indices of (h + c)^2 for c = 0..p-1, digit by digit
                    idx = [(hh[0] + c * c) % p for c in range(p)]
                    w = 1
                    for k in range(1, n):
                        w *= p
                        a, d = hh[k], 2 * (b if k == 1 else g[k])
                        idx = [i + (a + d * c) % p * w for c, i in enumerate(idx)]
                    for i in idx:
                        mask[i] = 1
        self._qr = QuadraticResidues(self, mask)
        return self._qr

    def minus_one_is_qr(self) -> bool:
        return self.elem(-1).legendre() == 1

    def tables(self) -> dict:
        """Lazily built index tables: exp/log, trace and fiber tally.

        A nonzero element is a square exactly when its log is even.
        ``fiber[r][y]`` counts the exponents k of parity r with
        tr(exp[k]) = y: the nonzero squares (r = 0) and the non-squares
        (r = 1) on each trace fiber.

        Published once under a lock; requires q <= TABLE_BOUND.
        """
        t = self._tables
        if t is not None:
            return t
        if self.q > TABLE_BOUND:
            raise ValueError(f"field too large for tables (q={self.q} > {TABLE_BOUND})")
        with self._lock:
            if self._tables is None:
                self._tables = self._build_tables()
        return self._tables

    def _build_tables(self) -> dict:
        q, p, code = self.q, self.p, self.code
        # the generator and its powers are codes
        fac = list(factorize(q - 1))
        for i in range(2, q):  # a generator exists in 2..q-1 for every q >= 3
            gen = code.from_index(i)
            if all(code.pow(gen, (q - 1) // ell) != 1 for ell in fac):
                break
        exp = [0] * (q - 1)
        log = [0] * q
        acc, red, index = 1, code.reduce, code.index
        for k in range(q - 1):
            exp[k] = i = index(acc)
            log[i] = k
            acc = red(acc * gen)
        trace = self.traces()
        fiber = []
        for r in (0, 1):
            counts = Counter(map(trace.__getitem__, exp[r::2]))
            fiber.append([counts[y] for y in range(p)])
        return {"exp": exp, "log": log, "trace": trace, "fiber": fiber}

    def traces(self) -> list[int]:
        """Traces of all elements by index, at every q: read by the tables and gauss_sum."""
        p, f = self.p, self.modulus
        # the trace is GF(p)-linear and index digits are coefficients, so
        # tr(i) = sum_k c_k tr(x^k); tr(x^k) = sum_i x^(k p^i) lies in GF(p),
        # so it is the sum of the constant coefficients of its n terms
        trace = [0]
        for k in range(self.n):
            tk = sum((_ppowmod([0] * k + [1], p ** i, f, p) or [0])[0]
                     for i in range(self.n)) % p
            trace = [(t + c * tk) % p for c in range(p) for t in trace]
        return trace

    def add_map(self, c: int) -> list[int]:
        """The index of x + c for every index x, as a list of q ints.

        Index digits are coefficients, so the sum adds digit by digit mod p.
        """
        p = self.p
        out = [0]
        for k in range(self.n):
            c, ck = divmod(c, p)
            w = p ** k
            out = [r + (digit + ck) % p * w for digit in range(p) for r in out]
        return out

    def trace_idx(self, i: int) -> int:
        return self.tables()["trace"][i]

    # -- plumbing --------------------------------------------------------------

    def to_json(self) -> dict:
        return {"p": self.p, "n": self.n, "modulus": list(self.modulus)}

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldSpec):
            return self.p == other.p and self.n == other.n
        return NotImplemented

    def __hash__(self):
        return hash((FieldSpec, self.p, self.n))

    def __repr__(self):
        return f"GF({self.p}^{self.n})" if self.n > 1 else f"GF({self.p})"


_FIELD_CACHE: dict[tuple[int, int], FieldSpec] = {}
_FIELD_CACHE_LOCK = threading.Lock()


def field(p: int, n: int = 1) -> FieldSpec:
    """Shared FieldSpec for GF(p^n); validates p odd prime and n >= 1."""
    key = (p, n)
    spec = _FIELD_CACHE.get(key)
    if spec is None:
        with _FIELD_CACHE_LOCK:
            spec = _FIELD_CACHE.get(key)
            if spec is None:
                spec = FieldSpec(p, n)
                _FIELD_CACHE[key] = spec
    return spec


def field_for_order(q: int) -> FieldSpec:
    """FieldSpec for the field of order q (a power of an odd prime)."""
    p, n = split_prime_power(q)
    return field(p, n)


class FieldElem:
    """Immutable element of a FieldSpec, stored as its field's int code."""

    __slots__ = ("spec", "code")

    def __init__(self, spec: FieldSpec, code: int):
        self.spec = spec
        self.code = code

    def _code_of(self, other) -> int:
        """The code of an element of this field, or of an int read in GF(p)."""
        if isinstance(other, int):
            return other % self.spec.p
        if not isinstance(other, FieldElem):
            raise TypeError(f"cannot combine field element with {type(other).__name__}")
        if other.spec is not self.spec and other.spec != self.spec:
            raise ValueError(f"mixed fields: {self.spec!r} vs {other.spec!r}")
        return other.code

    def __add__(self, other):
        spec = self.spec
        return FieldElem(spec, spec.code.reduce(self.code + self._code_of(other)))

    __radd__ = __add__

    def __sub__(self, other):
        code = self.spec.code
        return FieldElem(self.spec, code.reduce(self.code + code.minus_one * self._code_of(other)))

    def __rsub__(self, other):
        code = self.spec.code
        return FieldElem(self.spec, code.reduce(self._code_of(other) + code.minus_one * self.code))

    def __neg__(self):
        code = self.spec.code
        return FieldElem(self.spec, code.reduce(code.minus_one * self.code))

    def __mul__(self, other):
        spec = self.spec
        return FieldElem(spec, spec.code.reduce(self.code * self._code_of(other)))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        return FieldElem(self.spec, self.spec.code.pow(self.code, e))

    def inv(self) -> "FieldElem":
        """Multiplicative inverse; raises ZeroDivisionError at zero."""
        if not self.code:
            raise ZeroDivisionError("inversion of zero field element")
        return self ** (self.spec.q - 2)

    def __truediv__(self, other):
        return self * FieldElem(self.spec, self._code_of(other)).inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def frobenius(self) -> "FieldElem":
        """The automorphism x -> x^p."""
        return self ** self.spec.p

    def trace(self) -> int:
        """Trace onto the prime subfield: sum of x^(p^i), returned as an int in [0, p)."""
        acc = frob = self
        for _ in range(self.spec.n - 1):
            frob = frob.frobenius()
            acc = acc + frob
        if acc.code >= self.spec.p:  # a code below p is a constant coefficient alone
            raise AssertionError("trace left the prime subfield")
        return acc.code

    def legendre(self) -> int:
        """Quadratic residue symbol: 0 at zero, +1 on nonzero squares, -1 otherwise.

        Reads what the field already holds, and builds neither the tables
        nor the square mask: the parity of the log, else the mask of
        `qr_set()`, else Euler's criterion x^((q-1)/2) = 1 on the code.
        """
        if not self.code:
            return 0
        spec = self.spec
        t = spec._tables
        if t is not None:
            return -1 if t["log"][spec.code.index(self.code)] % 2 else 1
        if spec._qr is not None:
            return 1 if spec._qr.mask[spec.code.index(self.code)] else -1
        return 1 if spec.code.pow(self.code, (spec.q - 1) // 2) == 1 else -1

    def is_zero(self) -> bool:
        return not self.code

    def index(self) -> int:
        return self.spec.code.index(self.code)

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The coefficients c_0, ..., c_{n-1}: the slots of the code."""
        code = self.spec.code
        v, mask = self.code, code.mask
        return tuple([(v >> s) & mask for s in code.shifts])

    def __bool__(self):
        return self.code != 0

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.code == other.code and self.spec == other.spec
        if isinstance(other, int):
            return self.code == other % self.spec.p
        return NotImplemented

    def __hash__(self):
        return hash((self.spec.p, self.spec.n, self.code))

    def __str__(self):
        # the slots formatted in one pass: through `coeffs` a call costs about
        # a fifth more, and check messages format thousands of elements
        spec, v, mask = self.spec, self.code, self.spec.code.mask
        body = ",".join([str((v >> s) & mask) for s in spec.code.shifts])
        return f"[{body}] mod ({spec.p},{spec.n})"

    def __repr__(self):
        return str(self)

    def to_json(self):
        """JSON form: plain int for prime fields, coefficient list otherwise."""
        if self.spec.n == 1:
            return self.code
        return list(self.coeffs)


class QuadraticResidues(Set):
    """The squares of one field as a read-only set over a bytearray mask.

    mask[i] is 1 exactly when the element with index i is a square.  The
    size is counted from the mask once, at construction, and iteration
    yields the squares in index order.
    """

    __slots__ = ("spec", "mask", "_len")

    def __init__(self, spec: FieldSpec, mask: bytearray):
        self.spec = spec
        self.mask = mask
        self._len = mask.count(1)

    @classmethod
    def _from_iterable(cls, it):
        # results of &, |, - and ^ are plain sets of elements, not views
        return frozenset(it)

    def __len__(self) -> int:
        return self._len

    def __contains__(self, x) -> bool:
        if not isinstance(x, FieldElem) or (x.spec is not self.spec and x.spec != self.spec):
            return False
        return self.mask[x.index()] == 1

    def __iter__(self) -> Iterator[FieldElem]:
        return map(self.spec.from_index, compress(range(len(self.mask)), self.mask))
