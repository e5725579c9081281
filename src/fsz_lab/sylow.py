"""The Sylow p-subgroup of Sp_2n(q) in (L, A) block form.

Elements are pairs (L, A) with L upper unitriangular and A L symmetric,
standing for the 2n x 2n matrix [[L^T, A], [0, L^-1]].  The group law, the
inverse, and arbitrary powers all have closed block forms; powers use

    M^j = [[ (L^j)^T, (sum_{m<j} (L^m)^T A L^m) L^(1-j) ], [0, L^-j]].

The module also carries the structural maps that drive the p-th power
analysis: the abelianization tuple `kappa`, the linear characters `xi_lambda`
built from additive field characters, the twisted-sum operator `y_map` (the
sum above over p^k terms, computed by `twisted_sum` as `pow` does), the
superdiagonal square-product `upsilon` (through `square_product`, which the
fast counting route in `fsz` shares), the corner-concentration check for
y_map images, embeddings into larger block groups, and a deterministic,
partitionable enumeration of the whole group.  Element input arrives through
`SylowElem.from_json`, the validated inverse of `to_json`.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .cyclotomic import CycNum, e_q
from .fields import FieldElem, FieldSpec
from .matrices import MatFq, UniTriMat, block_matrix
from .parallel import BudgetExceeded


class SylowElem:
    """(L, A) with A L symmetric; embeds as [[L^T, A], [0, L^-1]].

    Construction validates the symmetry constraint: building an invalid pair
    directly is a hard error.  Use :meth:`from_symmetric` to pick A from the
    free data S = A L.
    """

    __slots__ = ("L", "A")

    def __init__(self, L: UniTriMat, A: MatFq):
        if A.spec != L.spec or A.nrows != L.n or A.ncols != L.n:
            raise ValueError("A must be an n x n matrix over the same field as L")
        if not (A @ L.to_mat()).is_symmetric():
            raise ValueError("A L must be symmetric")
        self.L = L
        self.A = A

    @property
    def spec(self) -> FieldSpec:
        return self.L.spec

    @property
    def n(self) -> int:
        return self.L.n

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "SylowElem":
        return cls(UniTriMat.identity(spec, n), MatFq.zeros(spec, n))

    @classmethod
    def from_symmetric(cls, L: UniTriMat, S: MatFq) -> "SylowElem":
        """Element with A = S L^-1 for symmetric S; S is exactly A L."""
        if not S.is_symmetric():
            raise ValueError("S must be symmetric")
        return cls(L, S @ L.inv().to_mat())

    def symmetric_part(self) -> MatFq:
        return self.A @ self.L.to_mat()

    def to_matrix(self) -> MatFq:
        """The 2n x 2n embedding [[L^T, A], [0, L^-1]]."""
        spec, n = self.spec, self.n
        return block_matrix([
            [self.L.to_mat().transpose(), self.A],
            [MatFq.zeros(spec, n), self.L.inv().to_mat()],
        ])

    def __mul__(self, other: "SylowElem") -> "SylowElem":
        if not isinstance(other, SylowElem):
            return NotImplemented
        # [[L^T,A],[0,L^-1]] [[M^T,B],[0,M^-1]] = [[(ML)^T, L^T B + A M^-1],[0,(ML)^-1]]
        L, A = self.L, self.A
        M, B = other.L, other.A
        new_L = M @ L
        new_A = L.to_mat().transpose() @ B + A @ M.inv().to_mat()
        return SylowElem(new_L, new_A)

    def inv(self) -> "SylowElem":
        L, A = self.L, self.A
        Linv = L.inv()
        new_A = -(Linv.to_mat().transpose() @ A @ L.to_mat())
        return SylowElem(Linv, new_A)

    def pow(self, j: int) -> "SylowElem":
        """Closed-form j-th power; agrees with repeated multiplication."""
        if j < 0:
            return self.inv().pow(-j)
        if j == 0:
            return SylowElem.identity(self.spec, self.n)
        L = self.L
        new_A = twisted_sum(L, self.A, j) @ L.pow(j - 1).inv().to_mat()
        return SylowElem(L.pow(j), new_A)

    def order(self) -> int:
        """Element order along the p-power tower."""
        p = self.spec.p
        ident = SylowElem.identity(self.spec, self.n)
        acc = self
        order = 1
        while acc != ident:
            acc = acc.pow(p)
            order *= p
        return order

    def __eq__(self, other):
        if isinstance(other, SylowElem):
            return self.L == other.L and self.A == other.A
        return NotImplemented

    def __hash__(self):
        return hash((self.L, self.A.rows))

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
        q = self.spec.q
        li = 0
        for x in self.L.upper:
            li = li * q + x.index()
        S = self.symmetric_part()
        si = 0
        n = self.n
        for i in range(n):
            for j in range(i, n):
                si = si * q + S.rows[i][j].index()
        return li * q ** (n * (n + 1) // 2) + si


def _elem_from_json(spec: FieldSpec, value) -> FieldElem:
    # bool is an int subclass, but JSON true/false is not a field entry
    if type(value) is int or (
        isinstance(value, list) and all(type(c) is int for c in value)
    ):
        return spec.elem(value)
    raise ValueError(f"entry {value!r} is neither an integer nor a coefficient list")


def kappa(x: SylowElem) -> tuple[FieldElem, ...]:
    """Abelianization tuple (A[0,0], L[0,1], L[1,2], ..., L[n-2,n-1]).

    Componentwise additive: kappa(xy) = kappa(x) + kappa(y).
    """
    return (x.A.rows[0][0],) + x.L.superdiagonal()


def xi_lambda(zparam: FieldElem, x: SylowElem) -> CycNum:
    """Linear character zeta^tr(zparam * A[0,0]); zparam = 0 is rejected."""
    if zparam.is_zero():
        raise ValueError("zparam must be nonzero (trivial character excluded)")
    return e_q(zparam * x.A.rows[0][0])


def twisted_sum(L: UniTriMat, A: MatFq, terms: int) -> MatFq:
    """sum_{m < terms} (L^m)^T A L^m, the A-part of the closed power formula."""
    Lmat = L.to_mat()
    acc = A  # m = 0 term
    Lm = Lmat
    for _ in range(terms - 1):
        acc = acc + Lm.transpose() @ A @ Lm
        Lm = Lm @ Lmat
    return acc


def y_map(L: UniTriMat, k: int, A: MatFq) -> MatFq:
    """The twisted sum over p^k conjugate-translates: sum (L^m)^T A L^m.

    Linear in A; the zero map whenever the order of L is below p^k.
    """
    return twisted_sum(L, A, L.spec.p ** k)


def square_product(spec: FieldSpec, entries: Iterable[FieldElem]) -> FieldElem:
    """Product of the squares of the given entries (1 for none)."""
    prod = spec.one
    for e in entries:
        prod = prod * e * e
    return prod


def upsilon(L: UniTriMat, k: int) -> FieldElem:
    """Product of squares of the first (p^k - 1)/2 superdiagonal entries.

    Always a quadratic residue.  Requires p^k <= 2n - 1 so the entries exist.
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


def sylow_embed_small(x: SylowElem, n_target: int) -> SylowElem:
    """Pad (L, A) with an identity/zero block up to size n_target.

    A group homomorphism into the larger block group; commutes with powers.
    """
    n0, spec = x.n, x.spec
    if n_target < n0:
        raise ValueError("target size must not shrink the element")
    if n_target == n0:
        return x
    L_entries = []
    for i in range(n_target):
        for j in range(i + 1, n_target):
            L_entries.append(x.L.entry(i, j) if i < n0 and j < n0 else spec.zero)
    L = UniTriMat(spec, n_target, L_entries)
    A = MatFq(spec, [
        [x.A.rows[i][j] if i < n0 and j < n0 else spec.zero for j in range(n_target)]
        for i in range(n_target)
    ])
    return SylowElem(L, A)


def u_witness(spec: FieldSpec, n: int) -> SylowElem:
    """The standard comparison element: L with a 1 in slot (0, 1), A L = E_00.

    Its abelianization has A[0,0] = 1, which is what shifts the p-th power
    characterization of products against that of the elements themselves.
    """
    L = UniTriMat.from_ints(spec, n, [1] + [0] * (n * (n - 1) // 2 - 1))
    S = MatFq.elementary(spec, n, 0, 0)
    return SylowElem.from_symmetric(L, S)


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
    n_sym = n * (n + 1) // 2
    li, si = divmod(idx, q ** n_sym)
    upper_digits = []
    for _ in range(n * (n - 1) // 2):
        li, d = divmod(li, q)
        upper_digits.append(d)
    upper_digits.reverse()
    sym_digits = []
    for _ in range(n_sym):
        si, d = divmod(si, q)
        sym_digits.append(d)
    sym_digits.reverse()
    L = UniTriMat(spec, n, [spec.from_index(d) for d in upper_digits])
    rows = [[spec.zero] * n for _ in range(n)]
    pos = 0
    for i in range(n):
        for j in range(i, n):
            v = spec.from_index(sym_digits[pos])
            rows[i][j] = v
            rows[j][i] = v
            pos += 1
    return SylowElem.from_symmetric(L, MatFq(spec, rows))


def enumerate_sylow(
    spec: FieldSpec,
    n: int,
    start: int = 0,
    stop: int | None = None,
    budget: int | None = None,
) -> Iterator[SylowElem]:
    """Stream the block group in canonical index order over [start, stop).

    When a budget is given, refuses up front if the range exceeds it.
    """
    total = sylow_count(n, spec.q)
    if stop is None:
        stop = total
    if not 0 <= start <= stop <= total:
        raise ValueError("bad enumeration range")
    if budget is not None and stop - start > budget:
        raise BudgetExceeded(stop - start, budget)
    for idx in range(start, stop):
        yield sylow_from_index(spec, n, idx)
