"""The Sylow p-subgroup of Sp_2n(q) in (L, A) block form.

Elements are pairs (L, A) with L upper unitriangular and A L symmetric,
standing for the 2n x 2n matrix [[L^T, A], [0, L^-1]].  The group law, the
inverse, and arbitrary powers all have closed block forms; powers use

    M^j = [[ (L^j)^T, (sum_{m<j} (L^m)^T A L^m) L^(1-j) ], [0, L^-j]].

A `SylowElem` stores L (unit diagonal and zeros included) and A as n x n
tuples of int codes, and its group law, inverse, powers, equality,
embedding and index decoding all run on those ints.  The codes and the
block kernel (`_mm`, `_mm_add`, `_tri_inv`, ...) come from `matrices`; the
coding is the field's `spec.code`, the one every matrix and FieldElem over
it uses, and the longest unreduced sum formed here is 2n products, in
L^T B + A M^-1.  Codes are canonical, so two elements are
equal exactly when their codes are.  `L`, `A` and `to_matrix()` wrap the
element's own codes in a UniTriMat and MatFq and convert nothing, and
`SylowElem(L, A)` and `from_symmetric` read their arguments' codes.

An element also carries L^-1, computed at most once: by the first of
`to_matrix()`, `inv()` or a product with the element on the right that
needs it, unless the operation that built the element already had it.
`pow` stores the inverse of L^j it forms for L^(1-j), `inv()` stores the old
L, `sylow_from_index` and `from_symmetric` store the inverse they form for
A = S L^-1, and `identity` stores I.  A product leaves its L uninverted
until one of those reads it.  Equality, hashing, `to_json` and `index` read
L and A only.

The symmetry of A L is checked at the boundary only: by `SylowElem(L, A)`,
which `from_json` calls, and by `from_symmetric` on S.  Products, inverses
and powers are not re-checked, and neither are the elements built on codes
(`identity`, `u_witness`, `sylow_from_index`), since each is in the group by
construction.

The 2n x 2n products of `to_matrix` embeddings stay an independent check of
the block formulas, although `MatFq @` runs on the same kernel.  No
`SylowElem` operation calls `MatFq @`, and the two routes share only the
entry step, one dot product of codes and one reduction, which the matrix
tests check term by term against coefficient lists multiplied by
`fields._pmulmod`.  `MatFq.inv`, Gaussian elimination on FieldElems, is the
reference for `_tri_inv`.

The module also carries the structural maps that drive the p-th power
analysis: the abelianization tuple `kappa`, the linear characters `xi_lambda`
built from additive field characters, the twisted-sum operator `y_map` (the
sum above over p^k terms, computed by `twisted_sum`, which `pow` shares and
which walks its number of terms through `fields.power`), the
superdiagonal square-product `upsilon` (through `square_product`, which the
fast counting route in `fsz` shares), the corner-concentration check for
y_map images, and a deterministic, partitionable enumeration of the whole
group.  Element input arrives through `SylowElem.from_json`, the validated
inverse of `to_json`.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .cyclotomic import CycNum, e_q
from .fields import FieldElem, FieldSpec, power
from .matrices import (Block, MatFq, UniTriMat, _mm, _mm_add, _neg, _p_power_order,
                       _transpose, _tri_inv, _unit_block)


def twisted_sum(L: Block, A: Block, terms: int, red) -> tuple[Block, Block]:
    """(sum_{m < terms} (L^m)^T A L^m, L^terms) for int-coded blocks, terms >= 1.

    The A-part of the closed power formula.  The pairs (T(k), L^k), T(k) the
    sum over m < k, multiply as (T, P) (T', P') = (T + P^T T' P, P P'), and
    `power` walks the bits of terms over that product from (A, L): three
    block products per squaring and three per set bit.
    """
    def step(x, y):
        (T, P), (T2, P2) = x, y
        return _mm_add(_transpose(P), _mm(T2, P, red), T, red), _mm(P, P2, red)

    return power((A, L), terms, step, None)


def _check_blocks(L: UniTriMat, X: MatFq, name: str = "A") -> None:
    if X.spec != L.spec or X.nrows != L.n or X.ncols != L.n:
        raise ValueError(f"{name} must be an n x n matrix over the same field as L")


class SylowElem:
    """(L, A) with A L symmetric; embeds as [[L^T, A], [0, L^-1]].

    The constructor validates the symmetry constraint: building an invalid
    pair directly is a hard error.  Elements that operations return are in
    the group by construction and are not re-checked.  Use
    :meth:`from_symmetric` to pick A from the free data S = A L.
    """

    __slots__ = ("spec", "n", "_code", "_L", "_A", "_Linv")

    def __init__(self, L: UniTriMat, A: MatFq):
        _check_blocks(L, A)
        S = _mm(A._codes, L._codes, L.spec.code.reduce)
        if S != _transpose(S):
            raise ValueError("A L must be symmetric")
        self._init(L.spec, L._codes, A._codes)

    def _init(self, spec: FieldSpec, L: Block, A: Block, Linv: Block | None = None) -> None:
        self.spec = spec
        self.n = len(L)
        self._code = spec.code
        self._L = L
        self._A = A
        self._Linv = Linv

    @classmethod
    def _from_codes(cls, spec: FieldSpec, L: Block, A: Block,
                    Linv: Block | None = None) -> "SylowElem":
        """The element with int-coded blocks L and A, A L symmetric; unchecked.

        Linv, when given, must be L^-1.
        """
        x = object.__new__(cls)
        x._init(spec, L, A, Linv)
        return x

    def _linv(self) -> Block:
        """L^-1, inverted on first use and kept."""
        if self._Linv is None:
            self._Linv = _tri_inv(self._L, self._code)
        return self._Linv

    @property
    def L(self) -> UniTriMat:
        return UniTriMat._wrap(self.spec, self._L)

    @property
    def A(self) -> MatFq:
        return MatFq._wrap(self.spec, self._A)

    def corner(self) -> FieldElem:
        """A[0, 0]."""
        return FieldElem(self.spec, self._A[0][0])

    def superdiagonal(self) -> tuple[FieldElem, ...]:
        """(L[0, 1], L[1, 2], ..., L[n-2, n-1])."""
        return self.L.superdiagonal()

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "SylowElem":
        I = _unit_block(n)
        return cls._from_codes(spec, I, ((0,) * n,) * n, I)

    @classmethod
    def from_symmetric(cls, L: UniTriMat, S: MatFq) -> "SylowElem":
        """Element with A = S L^-1 for symmetric S; S is exactly A L."""
        _check_blocks(L, S, "S")
        if not S.is_symmetric():
            raise ValueError("S must be symmetric")
        code = L.spec.code
        Linv = _tri_inv(L._codes, code)
        return cls._from_codes(L.spec, L._codes, _mm(S._codes, Linv, code.reduce), Linv)

    def to_matrix(self) -> MatFq:
        """The 2n x 2n embedding [[L^T, A], [0, L^-1]]."""
        zero = (0,) * self.n
        top = [lt + a for lt, a in zip(_transpose(self._L), self._A)]
        bottom = [zero + r for r in self._linv()]
        return MatFq._wrap(self.spec, tuple(top + bottom))

    def __mul__(self, other: "SylowElem") -> "SylowElem":
        if not isinstance(other, SylowElem):
            return NotImplemented
        if other._code is not self._code or other.n != self.n:
            raise ValueError("elements of different block groups")
        # [[L^T,A],[0,L^-1]] [[M^T,B],[0,M^-1]] = [[(ML)^T, L^T B + A M^-1],[0,(ML)^-1]],
        # the upper right as one product [L^T | A] @ [B ; M^-1]
        code = self._code
        red = code.reduce
        L, A, M, B = self._L, self._A, other._L, other._A
        left = [lt + a for lt, a in zip(_transpose(L), A)]
        right = B + other._linv()
        return SylowElem._from_codes(self.spec, _mm(M, L, red), _mm(left, right, red))

    def inv(self) -> "SylowElem":
        # (L, A)^-1 = (L^-1, -(L^-1)^T A L)
        code = self._code
        red = code.reduce
        L = self._L
        Linv = self._linv()
        new_A = _mm(_neg(_transpose(Linv), code), _mm(self._A, L, red), red)
        return SylowElem._from_codes(self.spec, Linv, new_A, L)

    def pow(self, j: int) -> "SylowElem":
        """Closed-form j-th power; agrees with repeated multiplication."""
        if j < 0:
            return self.inv().pow(-j)
        if j == 0:
            return SylowElem.identity(self.spec, self.n)
        code = self._code
        red = code.reduce
        L = self._L
        T, Lj = twisted_sum(L, self._A, j, red)
        # L^(1-j) = (L^j)^-1 L
        Ljinv = _tri_inv(Lj, code)
        new_A = _mm(T, _mm(Ljinv, L, red), red)
        return SylowElem._from_codes(self.spec, Lj, new_A, Ljinv)

    def order(self) -> int:
        """Element order along the p-power tower."""
        return _p_power_order(self, SylowElem.identity(self.spec, self.n), self.spec.p)

    def __eq__(self, other):
        if isinstance(other, SylowElem):
            return self._code is other._code and self._L == other._L and self._A == other._A
        return NotImplemented

    def __hash__(self):
        return hash((self._L, self._A))

    def __repr__(self):
        return f"SylowElem(n={self.n}, q={self.spec.q}, L={self.L.upper}, A={self.A.rows})"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "q": self.spec.q,
            "L_upper": [x.to_json() for x in self.L.upper],
            "A": [[x.to_json() for x in r] for r in self.A.rows],
        }

    @classmethod
    def from_json(cls, spec: FieldSpec, n: int, doc) -> "SylowElem":
        """Inverse of :meth:`to_json`; malformed input raises ValueError."""
        if not isinstance(doc, dict):
            raise ValueError("element JSON must be an object")
        for key, expected in (("n", n), ("q", spec.q)):
            if key in doc and doc[key] != expected:
                raise ValueError(f"element JSON has {key} = {doc[key]!r}, expected {expected}")
        for key in ("L_upper", "A"):
            if key not in doc:
                raise ValueError(f"element JSON lacks {key!r}")
        upper, rows = doc["L_upper"], doc["A"]
        if not isinstance(upper, list) or len(upper) != n * (n - 1) // 2:
            raise ValueError(f"L_upper must list {n * (n - 1) // 2} entries")
        if not isinstance(rows, list) or len(rows) != n or not all(
            isinstance(r, list) and len(r) == n for r in rows
        ):
            raise ValueError(f"A must be an {n} x {n} list of rows")
        L = UniTriMat(spec, n, [_elem_from_json(spec, v) for v in upper])
        A = MatFq(spec, [[_elem_from_json(spec, v) for v in r] for r in rows])
        return cls(L, A)

    def index(self) -> int:
        """Position in the canonical enumeration (see :func:`sylow_from_index`)."""
        code, n, q = self._code, self.n, self.spec.q
        L = self._L
        S = _mm(self._A, L, code.reduce)
        idx = 0
        for v in ([L[i][j] for i in range(n) for j in range(i + 1, n)]
                  + [S[i][j] for i in range(n) for j in range(i, n)]):
            idx = idx * q + code.index(v)
        return idx


def _elem_from_json(spec: FieldSpec, value) -> FieldElem:
    # bool is an int subclass, but JSON true/false is not a field entry; a
    # bare int is a constant, a list carries all n coefficients
    coeffs = [value] + [0] * (spec.n - 1) if type(value) is int else value
    if not (isinstance(coeffs, list) and all(type(c) is int for c in coeffs)):
        raise ValueError(f"entry {value!r} is neither an integer nor a coefficient list")
    return spec._elem_in_range(coeffs, f"entry {value!r}")


def kappa(x: SylowElem) -> tuple[FieldElem, ...]:
    """Abelianization tuple (A[0,0], L[0,1], L[1,2], ..., L[n-2,n-1]).

    Componentwise additive: kappa(xy) = kappa(x) + kappa(y).
    """
    return (x.corner(),) + x.superdiagonal()


def xi_lambda(zparam: FieldElem, x: SylowElem) -> CycNum:
    """Linear character zeta^tr(zparam * A[0,0]); zparam = 0 is rejected."""
    if zparam.is_zero():
        raise ValueError("zparam must be nonzero (trivial character excluded)")
    return e_q(zparam * x.corner())


def y_map(L: UniTriMat, k: int, A: MatFq) -> MatFq:
    """The twisted sum over p^k conjugate-translates: sum (L^m)^T A L^m.

    Linear in A; the zero map whenever the order of L is below p^k.
    """
    _check_blocks(L, A)
    T, _ = twisted_sum(L._codes, A._codes, L.spec.p ** k, L.spec.code.reduce)
    return MatFq._wrap(L.spec, T)


def square_product(spec: FieldSpec, entries: Iterable[FieldElem]) -> FieldElem:
    """Product of the squares of the given entries (1 for none)."""
    prod = spec.one
    for e in entries:
        prod = prod * e * e
    return prod


def upsilon(L: UniTriMat | SylowElem, k: int) -> FieldElem:
    """Product of squares of the first (p^k - 1)/2 superdiagonal entries.

    Of L, or of the L block of a SylowElem.  Always a quadratic residue.
    Requires p^k <= 2n - 1 so the entries exist.
    """
    spec = L.spec
    count = (spec.p ** k - 1) // 2
    if spec.p ** k > 2 * L.n - 1:
        raise ValueError(f"p^k = {spec.p ** k} exceeds 2n - 1 = {2 * L.n - 1}")
    return square_product(spec, L.superdiagonal()[:count])


def corner_concentration_check(L: UniTriMat, y: int, s: int, t: int) -> bool:
    """Check corner concentration of y_map(L, y, E_st) (0-based s, t).

    In the upper-left square of side (p^y + 1)/2, the image must vanish except
    possibly at the lower-right corner of that square, which carries
    (-1)^(y(p-1)/2) * upsilon(L, y) exactly when (s, t) = (0, 0).
    """
    spec, n = L.spec, L.n
    p = spec.p
    r = 0
    size = 1
    while size < 2 * n:
        size *= p
        r += 1
    if r < 2:
        raise ValueError("requires ceil(log_p 2n) >= 2")
    if not 1 <= y < r:
        raise ValueError(f"y must lie in [1, {r - 1}]")
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError("s, t out of range")
    m = (p ** y + 1) // 2
    img = y_map(L, y, MatFq.elementary(spec, n, s, t))
    sign = (-1) ** (y * (p - 1) // 2)
    corner = upsilon(L, y) * sign if (s, t) == (0, 0) else spec.zero
    for a in range(m):
        for b in range(m):
            expected = corner if (a, b) == (m - 1, m - 1) else spec.zero
            if img.rows[a][b] != expected:
                return False
    return True


def u_witness(spec: FieldSpec, n: int) -> SylowElem:
    """The standard comparison element: L with a 1 in slot (0, 1), A L = E_00.

    Its abelianization has A[0,0] = 1, which is what shifts the p-th power
    characterization of products against that of the elements themselves.
    Built on codes: L = I + E_01 has inverse I - E_01, so A = E_00 - E_01.
    """
    L = [list(r) for r in _unit_block(n)]
    L[0][1] = 1
    A = [[0] * n for _ in range(n)]
    A[0][0], A[0][1] = 1, spec.code.minus_one
    return SylowElem._from_codes(spec, tuple(map(tuple, L)), tuple(map(tuple, A)))


# -- deterministic enumeration ---------------------------------------------------
#
# Index layout: the L digits (strictly-upper entries, row-major, first entry
# most significant) are the high part; the digits of the free symmetric data
# S = A L (upper triangle including the diagonal, row-major) are the low part.
# This makes disjoint index sub-ranges independently decodable, so scans can
# be partitioned across workers with a deterministic union.

def sylow_count(n: int, q: int) -> int:
    """|P| = q^(n^2): q^(n(n-1)/2) choices of L times q^(n(n+1)/2) for S."""
    return q ** (n * n)


def sylow_from_index(spec: FieldSpec, n: int, idx: int) -> SylowElem:
    q = spec.q
    total = sylow_count(n, q)
    if not 0 <= idx < total:
        raise ValueError(f"index out of range [0, {total})")
    code = spec.code
    # the n^2 base-q digits of idx, most significant first: L's, then S's
    digits = []
    for _ in range(n * n):
        idx, d = divmod(idx, q)
        digits.append(code.from_index(d))
    digits.reverse()
    upper = iter(digits)
    sym = iter(digits[n * (n - 1) // 2:])
    L = [list(r) for r in _unit_block(n)]
    S = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            L[i][j] = next(upper)
        for j in range(i, n):
            S[i][j] = S[j][i] = next(sym)
    Lc = tuple(map(tuple, L))
    Linv = _tri_inv(Lc, code)
    return SylowElem._from_codes(spec, Lc, _mm(S, Linv, code.reduce), Linv)


def enumerate_sylow(
    spec: FieldSpec,
    n: int,
    start: int = 0,
    stop: int | None = None,
) -> Iterator[SylowElem]:
    """Stream the block group in canonical index order over [start, stop)."""
    total = sylow_count(n, spec.q)
    if stop is None:
        stop = total
    if not 0 <= start <= stop <= total:
        raise ValueError("bad enumeration range")
    for idx in range(start, stop):
        yield sylow_from_index(spec, n, idx)
