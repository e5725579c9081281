"""Exact arithmetic in GF(p^n) for odd primes p.

Elements are polynomial coefficient vectors reduced modulo a canonical
irreducible polynomial (the lexicographically least monic irreducible of the
right degree), so identical (p, n) always produce identical serializations.
The module provides the trace map onto the prime subfield, Legendre symbols,
and quadratic-residue sets.  For fields of at most TABLE_BOUND elements,
exp/log, trace and quadratic-residue tables on element indices are built
lazily: the enumeration oracles run on these index codes, and element
products read them once built.  Equality is always defined on coefficients.

Elements of the prime subfield are identified with the integers
{0, ..., p-1}, and mixed int/element arithmetic uses that identification.
All values are immutable; operations never mutate their operands, and mixing
elements of different fields is a hard error rather than a coercion.
"""

from __future__ import annotations

import threading
from typing import Iterator, Sequence

TABLE_BOUND = 1 << 16


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, valid for all 64-bit integers."""
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
# helpers only serve modulus construction and irreducibility testing; element
# arithmetic has its own reduction path.

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
    result = [1]
    base = _pmod(a, f, p)
    while e:
        if e & 1:
            result = _pmulmod(result, base, f, p)
        base = _pmulmod(base, base, f, p)
        e >>= 1
    return result


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
    right, which keeps the choice deterministic without external tables.
    """
    if n == 1:
        return (0, 1)
    count = p ** n
    weights = [p ** (n - 1 - i) for i in range(n)]
    for k in range(count):
        coeffs = [(k // w) % p for w in weights]
        f = coeffs + [1]
        if poly_is_irreducible(f, p):
            return tuple(f)
    raise RuntimeError(f"no irreducible polynomial of degree {n} over Z_{p}")


class FieldSpec:
    """A finite field GF(p^n) with its canonical modulus.

    Use the module-level :func:`field` factory so equal parameters share one
    instance; direct construction is also fine (equality is by value).
    """

    __slots__ = ("p", "n", "q", "modulus", "_lock", "_tables", "_qr", "_zero", "_one")

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
        self._lock = threading.Lock()
        self._tables: dict | None = None
        self._qr: frozenset[FieldElem] | None = None
        self._zero = FieldElem(self, (0,) * n)
        self._one = FieldElem(self, (1,) + (0,) * (n - 1))

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
            coeffs = (value % self.p,) + (0,) * (self.n - 1)
            return FieldElem(self, coeffs)
        value = list(value)
        if len(value) > self.n:
            raise ValueError(f"at most {self.n} coefficients expected")
        value += [0] * (self.n - len(value))
        return FieldElem(self, tuple(c % self.p for c in value))

    def from_index(self, i: int) -> FieldElem:
        """Element with mixed-radix index i: coeffs are base-p digits, c_0 least significant."""
        if not 0 <= i < self.q:
            raise ValueError(f"index out of range [0, {self.q})")
        coeffs = []
        for _ in range(self.n):
            i, c = divmod(i, self.p)
            coeffs.append(c)
        return FieldElem(self, tuple(coeffs))

    def elements(self) -> Iterator[FieldElem]:
        """All q elements, in index order."""
        for i in range(self.q):
            yield self.from_index(i)

    def random(self, rng) -> FieldElem:
        return self.from_index(rng.randrange(self.q))

    def parse(self, text: str) -> FieldElem:
        """Inverse of str(elem): '[c0,c1,...] mod (p,n)'."""
        body, _, tail = text.partition(" mod ")
        if tail != f"({self.p},{self.n})":
            raise ValueError(f"element does not belong to GF({self.p}^{self.n}): {text!r}")
        coeffs = [int(c) for c in body.strip("[]").split(",")]
        if len(coeffs) != self.n:
            raise ValueError(f"expected {self.n} coefficients: {text!r}")
        return self.elem(coeffs)

    # -- residues and tables --------------------------------------------------

    def qr_set(self) -> frozenset[FieldElem]:
        """The set {y^2 : y in GF(q)}; includes 0 and has (q+1)/2 elements.

        y and -y have the same square, so only 0 and the y whose highest
        nonzero coefficient lies in 1..(p-1)/2 are squared.
        """
        if self._qr is None:
            p = self.p
            if self.n == 1:
                squares = {FieldElem(self, (i * i % p,)) for i in range((p + 1) // 2)}
            else:
                squares = {self.zero}
                for t in range(self.n):
                    top = p ** t
                    for lead in range(1, (p + 1) // 2):
                        for low in range(top):
                            y = self.from_index(lead * top + low)
                            squares.add(y * y)
            self._qr = frozenset(squares)
        return self._qr

    def minus_one_is_qr(self) -> bool:
        return (-self.one).legendre() == 1

    def tables(self) -> dict:
        """Lazily built index tables: exp/log, traces, QR mask.

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
        q, p = self.q, self.p
        # find a multiplicative generator by scanning in index order
        fac = list(factorize(q - 1))
        gen = None
        for i in range(2, q):
            g = self.from_index(i)
            if all((g ** ((q - 1) // ell)) != self.one for ell in fac):
                gen = g
                break
        if gen is None:  # q == 3
            gen = self.from_index(q - 1)
        exp = [0] * (q - 1)
        log = [0] * q
        acc = self.one
        for k in range(q - 1):
            idx = acc.index()
            exp[k] = idx
            log[idx] = k
            acc = acc * gen
        # the trace is GF(p)-linear and index digits are coefficients, so
        # tr(i) = sum_k c_k tr(x^k): n Frobenius traces, then O(q) int work
        trace = [0]
        for k in range(self.n):
            tk = self.from_index(p ** k).trace()
            trace = [(t + c * tk) % p for c in range(p) for t in trace]
        qr = bytearray(q)
        qr[0] = 1
        for k in range(0, q - 1, 2):
            qr[exp[k]] = 1
        return {"exp": exp, "log": log, "trace": trace, "qr": qr}

    def mul_idx(self, i: int, j: int) -> int:
        if i == 0 or j == 0:
            return 0
        t = self.tables()
        return t["exp"][(t["log"][i] + t["log"][j]) % (self.q - 1)]

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
    """Immutable element of a FieldSpec, stored as reduced coefficients."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: tuple[int, ...]):
        self.spec = spec
        self.coeffs = coeffs

    def _check(self, other) -> "FieldElem":
        if isinstance(other, int):
            return self.spec.elem(other)
        if not isinstance(other, FieldElem):
            raise TypeError(f"cannot combine field element with {type(other).__name__}")
        if other.spec is not self.spec and other.spec != self.spec:
            raise ValueError(f"mixed fields: {self.spec!r} vs {other.spec!r}")
        return other

    def __add__(self, other):
        other = self._check(other)
        p = self.spec.p
        return FieldElem(self.spec, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        p = self.spec.p
        return FieldElem(self.spec, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        p = self.spec.p
        return FieldElem(self.spec, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        other = self._check(other)
        spec = self.spec
        p = spec.p
        if spec.n == 1:
            return FieldElem(spec, ((self.coeffs[0] * other.coeffs[0]) % p,))
        t = spec._tables
        if t is not None:
            return spec.from_index(spec.mul_idx(self.index(), other.index()))
        prod = _pmulmod(list(self.coeffs), list(other.coeffs), spec.modulus, p)
        prod += [0] * (spec.n - len(prod))
        return FieldElem(spec, tuple(prod))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        result = self.spec.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inv(self) -> "FieldElem":
        """Multiplicative inverse; raises ZeroDivisionError at zero."""
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero field element")
        spec = self.spec
        if spec.n == 1:
            return FieldElem(spec, (pow(self.coeffs[0], -1, spec.p),))
        return self ** (spec.q - 2)

    def __truediv__(self, other):
        return self * self._check(other).inv()

    def __rtruediv__(self, other):
        return self._check(other) * self.inv()

    def frobenius(self) -> "FieldElem":
        """The automorphism x -> x^p."""
        return self ** self.spec.p

    def trace(self) -> int:
        """Trace onto the prime subfield: sum of x^(p^i), returned as an int in [0, p)."""
        spec = self.spec
        if spec.n == 1:
            return self.coeffs[0]
        t = spec._tables
        if t is not None:
            return t["trace"][self.index()]
        acc = self
        frob = self
        for _ in range(spec.n - 1):
            frob = frob.frobenius()
            acc = acc + frob
        if any(acc.coeffs[1:]):
            raise AssertionError("trace left the prime subfield")
        return acc.coeffs[0]

    def legendre(self) -> int:
        """Quadratic residue symbol: 0 at zero, +1 on nonzero squares, -1 otherwise."""
        if self.is_zero():
            return 0
        spec = self.spec
        t = spec._tables
        if t is not None:
            return 1 if t["qr"][self.index()] else -1
        e = self ** ((spec.q - 1) // 2)
        return 1 if e == spec.one else -1

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def index(self) -> int:
        i = 0
        for c in reversed(self.coeffs):
            i = i * self.spec.p + c
        return i

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.spec == other.spec and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == self.spec.elem(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.spec.p, self.spec.n, self.coeffs))

    def __str__(self):
        body = ",".join(str(c) for c in self.coeffs)
        return f"[{body}] mod ({self.spec.p},{self.spec.n})"

    def __repr__(self):
        return str(self)

    def to_json(self):
        """JSON form: plain int for prime fields, coefficient list otherwise."""
        if self.spec.n == 1:
            return self.coeffs[0]
        return list(self.coeffs)


def qr_set(spec: FieldSpec) -> frozenset[FieldElem]:
    return spec.qr_set()
