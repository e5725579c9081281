"""Dense matrices over a finite field, upper unitriangular groups, and the
block kernel their products run on.

Matrices are immutable and store their entries' int codes, in the format of
`fields` (`spec.code`), so a row . column sum of codes holds the unreduced
convolution of the whole dot product, reduced once.  The coding's slots hold
sums of up to MAX_TERMS products: `MatFq @` refuses a longer inner
dimension, and no other product comes near it, since a sum of 2n products
needs n x n operands, which hold more than 2^30 codes once 2n > 2^16.

FieldElem appears only at the edges.  `MatFq(spec, rows)` and
`UniTriMat(spec, n, upper)` validate their entries and read their codes;
`MatFq.rows` wraps the codes as FieldElem on first read and caches them,
`UniTriMat.upper` and `superdiagonal()` wrap them when read.  Everything
else (products, sums, inverses, powers, equality and hashing) runs on the
codes.

All indices in this package are 0-based.  The symplectic membership test
checks M Omega M^T == Omega for Omega = [[0, I], [-I, 0]] on the codes of M,
above the diagonal only (see `is_symplectic`).

UniTriMat wraps the group UT(n, q) of upper triangular matrices with unit
diagonal, whose exponent is p^ceil(log_p n); element orders are computed by
repeated p-th powers.
"""

from __future__ import annotations

from functools import cache
from operator import add, matmul, mul
from typing import Sequence

from .fields import MAX_TERMS, FieldElem, FieldSpec, _Coding, power

Block = tuple[tuple[int, ...], ...]  # rows of int codes


def _encode_checked(spec: FieldSpec, rows) -> Block:
    """The codes of rows of FieldElem over spec; any other entry raises ValueError."""
    for r in rows:
        for x in r:
            if not isinstance(x, FieldElem) or (x.spec is not spec and x.spec != spec):
                raise ValueError("entries must be elements of the given field")
    return tuple([tuple([x.code for x in r]) for r in rows])


# -- block arithmetic on int codes ---------------------------------------------------
#
# Every function returns reduced codes; `red` is the coding's reduction.

def _mm(a: Block, b: Block, red) -> Block:
    """a @ b, one reduction per entry."""
    cols = list(zip(*b))
    return tuple([tuple([red(sum(map(mul, r, c))) for c in cols]) for r in a])


def _mm_add(a: Block, b: Block, c: Block, red) -> Block:
    """a @ b + c, one reduction per entry."""
    cols = list(zip(*b))
    return tuple([tuple([red(sum(map(mul, r, col)) + s) for col, s in zip(cols, crow)])
                  for r, crow in zip(a, c)])


@cache
def _unit_block(n: int) -> Block:
    """The codes of the n x n identity, shared: 0 and 1 are their own codes over every GF(q)."""
    return tuple(tuple([int(i == j) for j in range(n)]) for i in range(n))


def _transpose(a: Block) -> Block:
    return tuple(zip(*a))


def _neg(a: Block, code: _Coding) -> Block:
    red, m1 = code.reduce, code.minus_one
    return tuple(tuple([red(m1 * v) for v in r]) for r in a)


def _tri_inv(L: Block, code: _Coding) -> Block:
    """Inverse of a unit upper triangular block.

    X = L^-1 is unit upper triangular with X[i][j] = -sum_{i<k<=j} L[i][k] X[k][j],
    solved from the bottom row up.
    """
    red, m1 = code.reduce, code.minus_one
    n = len(L)
    X: list = [None] * n
    for i in range(n - 1, -1, -1):
        Li = L[i]
        row = [0] * n
        row[i] = 1
        for j in range(i + 1, n):
            row[j] = red(m1 * red(sum([Li[k] * X[k][j] for k in range(i + 1, j + 1)])))
        X[i] = row
    return tuple(map(tuple, X))


def _p_power_order(x, identity, p: int) -> int:
    """The order of x in a p-group: the least p^k with x^(p^k) = identity."""
    order = 1
    while x != identity:
        x = x.pow(p)
        order *= p
    return order


class MatFq:
    """An immutable r x c matrix over one FieldSpec, stored as int codes."""

    __slots__ = ("spec", "_codes", "_rows")

    def __init__(self, spec: FieldSpec, rows):
        rows = tuple(tuple(r) for r in rows)
        width = len(rows[0]) if rows else 0
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        self.spec = spec
        self._codes = _encode_checked(spec, rows)
        self._rows = rows

    @staticmethod
    def _wrap(spec: FieldSpec, codes: Block) -> "MatFq":
        """Wrap a tuple of equal-length tuples of codes over spec, unchecked."""
        m = object.__new__(MatFq)
        m.spec = spec
        m._codes = codes
        m._rows = None
        return m

    # -- constructors ------------------------------------------------------------

    @classmethod
    def zeros(cls, spec: FieldSpec, r: int, c: int | None = None) -> "MatFq":
        c = r if c is None else c
        return MatFq._wrap(spec, ((0,) * c,) * r)

    @classmethod
    def identity(cls, spec: FieldSpec, m: int) -> "MatFq":
        return MatFq._wrap(spec, _unit_block(m))

    @classmethod
    def from_ints(cls, spec: FieldSpec, rows: Sequence[Sequence[int]]) -> "MatFq":
        return cls(spec, [[spec.elem(v) for v in r] for r in rows])

    @classmethod
    def elementary(cls, spec: FieldSpec, m: int, i: int, j: int, value=1) -> "MatFq":
        """m x m matrix with `value` at (i, j) and zeros elsewhere (0-based)."""
        rows = [[spec.zero] * m for _ in range(m)]
        rows[i][j] = spec.elem(value) if isinstance(value, int) else value
        return cls(spec, rows)

    # -- shape and access ----------------------------------------------------------

    @property
    def rows(self) -> tuple[tuple[FieldElem, ...], ...]:
        """The entries as FieldElem, wrapped on first read."""
        if self._rows is None:
            spec = self.spec
            self._rows = tuple([tuple([FieldElem(spec, v) for v in r]) for r in self._codes])
        return self._rows

    @property
    def nrows(self) -> int:
        return len(self._codes)

    @property
    def ncols(self) -> int:
        return len(self._codes[0]) if self._codes else 0

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "MatFq":
        X = self._codes
        return MatFq._wrap(self.spec, tuple(tuple([X[i][j] for j in cols]) for i in rows))

    # -- arithmetic ------------------------------------------------------------------

    def __add__(self, other: "MatFq") -> "MatFq":
        self._compat(other, same_shape=True)
        red = self.spec.code.reduce
        return MatFq._wrap(self.spec, tuple(tuple(map(red, map(add, r, s)))
                                            for r, s in zip(self._codes, other._codes)))

    def __sub__(self, other: "MatFq") -> "MatFq":
        return self + -other

    def __neg__(self) -> "MatFq":
        return MatFq._wrap(self.spec, _neg(self._codes, self.spec.code))

    def __mul__(self, scalar) -> "MatFq":
        if isinstance(scalar, (int, FieldElem)):
            # an element of another field raises here
            c, red = self.spec.zero._code_of(scalar), self.spec.code.reduce
            return MatFq._wrap(self.spec, tuple(tuple([red(c * v) for v in r])
                                                for r in self._codes))
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other: "MatFq") -> "MatFq":
        self._compat(other)
        if self.ncols != other.nrows:
            raise ValueError(f"dimension mismatch: {self.ncols} vs {other.nrows}")
        if self.ncols > MAX_TERMS:
            raise ValueError(f"inner dimension {self.ncols} exceeds {MAX_TERMS}")
        return MatFq._wrap(self.spec, _mm(self._codes, other._codes, self.spec.code.reduce))

    def inv(self) -> "MatFq":
        """Inverse by Gaussian elimination; raises ValueError when singular."""
        m = self.nrows
        if m != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        spec = self.spec
        aug = [list(r) + [spec.one if i == j else spec.zero for j in range(m)]
               for i, r in enumerate(self.rows)]
        for col in range(m):
            pivot = next((r for r in range(col, m) if not aug[r][col].is_zero()), None)
            if pivot is None:
                raise ValueError("singular matrix")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            pinv = aug[col][col].inv()
            aug[col] = [x * pinv for x in aug[col]]
            for r in range(m):
                if r != col and not aug[r][col].is_zero():
                    factor = aug[r][col]
                    aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
        return MatFq(spec, [row[m:] for row in aug])

    def is_symmetric(self) -> bool:
        return self._codes == _transpose(self._codes)

    def _compat(self, other: "MatFq", same_shape: bool = False):
        if not isinstance(other, MatFq):
            raise TypeError(f"matrix expected, got {type(other).__name__}")
        if other.spec is not self.spec and other.spec != self.spec:
            raise ValueError("matrices over different fields")
        if same_shape and (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def __eq__(self, other):
        if isinstance(other, MatFq):
            # codes are canonical, so once the fields agree the codes decide
            return self.spec == other.spec and self._codes == other._codes
        return NotImplemented

    def __hash__(self):
        return hash((self.spec.p, self.spec.n, self._codes))

    def __repr__(self):
        index = self.spec.code.index
        body = "; ".join(" ".join(str(index(v)) for v in r) for r in self._codes)
        return f"MatFq({self.spec!r}, [{body}])"

    def to_json(self) -> dict:
        return {
            "n": self.spec.n,
            "q": self.spec.q,
            "rows": [[x.to_json() for x in r] for r in self.rows],
        }


def is_symplectic(M: MatFq) -> bool:
    """M Omega M^T == Omega for Omega = [[0, I], [-I, 0]], checked above the
    diagonal on int codes.

    K = M Omega M^T is antisymmetric for every M, since Omega^T = -Omega, and
    so is Omega.  An antisymmetric matrix over odd characteristic has a zero
    diagonal and is fixed by its upper triangle, so M is symplectic iff K
    equals Omega in the m(m - 1)/2 entries above the diagonal.  Writing row i
    of M as (x_i, y_i) in halves, K[i][j] = x_i . y_j - y_i . x_j, which is
    one dot product of (x_i, -y_i) with (y_j, x_j).  The test returns at the
    first entry that differs.
    """
    m = M.nrows
    if m != M.ncols or m % 2:
        raise ValueError("even-dimensional square matrix required")
    n = m // 2
    red, m1 = M.spec.code.reduce, M.spec.code.minus_one
    C = M._codes
    swapped = [r[n:] + r[:n] for r in C]
    for i in range(m - 1):
        r = C[i]
        left = r[:n] + tuple([red(m1 * v) for v in r[n:]])
        for j in range(i + 1, m):
            if red(sum(map(mul, left, swapped[j]))) != (j == i + n):
                return False
    return True


class UniTriMat:
    """Upper unitriangular n x n matrix: unit diagonal, zeros below.

    Stores the n x n block of codes, unit diagonal and zeros included.
    `upper` lists the strictly-upper entries row-major, (0,1), (0,2), ...,
    (0,n-1), (1,2), ..., wrapped as FieldElem when read.
    """

    __slots__ = ("spec", "n", "_codes")

    def __init__(self, spec: FieldSpec, n: int, upper: Sequence[FieldElem]):
        if len(upper) != n * (n - 1) // 2:
            raise ValueError(f"expected {n * (n - 1) // 2} strictly-upper entries")
        upper_codes = iter(_encode_checked(spec, (upper,))[0])
        self.spec = spec
        self.n = n
        # the strictly-upper codes fill the block row by row
        self._codes = tuple(tuple([next(upper_codes) if j > i else int(i == j) for j in range(n)])
                            for i in range(n))

    @staticmethod
    def _wrap(spec: FieldSpec, codes: Block) -> "UniTriMat":
        """Wrap the code block of a unitriangular matrix over spec, unchecked."""
        u = object.__new__(UniTriMat)
        u.spec = spec
        u.n = len(codes)
        u._codes = codes
        return u

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "UniTriMat":
        return UniTriMat._wrap(spec, _unit_block(n))

    @classmethod
    def from_ints(cls, spec: FieldSpec, n: int, upper: Sequence[int]) -> "UniTriMat":
        return cls(spec, n, [spec.elem(v) for v in upper])

    @classmethod
    def random(cls, spec: FieldSpec, n: int, rng) -> "UniTriMat":
        return cls(spec, n, [spec.random(rng) for _ in range(n * (n - 1) // 2)])

    @property
    def upper(self) -> tuple[FieldElem, ...]:
        spec, X, n = self.spec, self._codes, self.n
        return tuple(FieldElem(spec, X[i][j]) for i in range(n) for j in range(i + 1, n))

    def superdiagonal(self) -> tuple[FieldElem, ...]:
        spec, X = self.spec, self._codes
        return tuple(FieldElem(spec, X[i][i + 1]) for i in range(self.n - 1))

    def to_mat(self) -> MatFq:
        return MatFq._wrap(self.spec, self._codes)

    def __matmul__(self, other: "UniTriMat") -> "UniTriMat":
        if not isinstance(other, UniTriMat):
            return NotImplemented
        if other.spec != self.spec or other.n != self.n:
            raise ValueError("unitriangular matrices of different sizes or fields")
        red = self.spec.code.reduce
        return UniTriMat._wrap(self.spec, _mm(self._codes, other._codes, red))

    def inv(self) -> "UniTriMat":
        """Inverse by back substitution on int codes."""
        return UniTriMat._wrap(self.spec, _tri_inv(self._codes, self.spec.code))

    def pow(self, e: int) -> "UniTriMat":
        if e < 0:
            return self.inv().pow(-e)
        return power(self, e, matmul, UniTriMat.identity(self.spec, self.n))

    def order(self) -> int:
        """Element order, found along the p-power tower."""
        return _p_power_order(self, UniTriMat.identity(self.spec, self.n), self.spec.p)

    def __eq__(self, other):
        if isinstance(other, UniTriMat):
            return self.spec == other.spec and self._codes == other._codes
        return NotImplemented

    def __hash__(self):
        return hash((self.spec.p, self.spec.n, self._codes))

    def __repr__(self):
        return f"UniTriMat(n={self.n}, upper={[x.to_json() for x in self.upper]})"
