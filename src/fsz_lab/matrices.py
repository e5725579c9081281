"""Dense matrices over a finite field, upper unitriangular groups, and the
packed-int kernel their products run on.

Matrices are immutable tuples of FieldElem entries with exact arithmetic.
Sums, differences and equality work on the entries' integer coefficients.
Products, unitriangular inverses and the symplectic test run on int codes,
a format this module owns: over GF(p) a code is the residue, over GF(p^f)
the coefficients packed into one int, coefficient k in bit slot k
(Kronecker substitution).  A row . column sum of codes then holds the
unreduced convolution of the whole dot product, reduced once.  `_coding(spec, terms)` sizes slots for a sum of `terms`
products, (terms * f * (p-1)^2).bit_length() bits: `MatFq @` asks for
terms = ncols, `is_symplectic` for the dimension, `UniTriMat.inv` for n and
the `sylow` block core for 2n.

All indices in this package are 0-based.  The symplectic membership test
checks the defining block identity directly, with one full product on the
codes of M: writing M in n x n blocks [[X, A], [B, Y]], M is symplectic iff

    M @ [[Y^T, -A^T], [-B^T, X^T]] == I.

UniTriMat wraps the group UT(n, q) of upper triangular matrices with unit
diagonal, whose exponent is p^ceil(log_p n); element orders are computed by
repeated p-th powers.
"""

from __future__ import annotations

from operator import add, matmul, mul, sub
from typing import Sequence

from .fields import FieldElem, FieldSpec, _pmod, power

Block = tuple[tuple[int, ...], ...]  # rows of int codes


def _pack(coeffs: Sequence[int], width: int) -> int:
    """Coefficients c_0, c_1, ... as one int with c_k in bits [k*width, (k+1)*width)."""
    v = 0
    for c in reversed(coeffs):
        v = (v << width) | c
    return v


class _Coding:
    """Int codes of matrix entries over GF(p^f), sized for sums of `terms` products.

    `reduce` maps a non-negative unreduced sum of at most `terms` products of
    codes to the code of its value.
    """

    __slots__ = ("p", "f", "width", "mask", "shifts", "minus_one", "reduce")

    def __init__(self, p: int, f: int, modulus: tuple[int, ...], terms: int):
        self.p = p
        self.f = f
        # a sum of `terms` products of reduced entries has coefficients of at
        # most terms f (p-1)^2 (an empty sum fits any width)
        self.width = width = (max(terms, 1) * f * (p - 1) ** 2).bit_length()
        self.mask = mask = (1 << width) - 1
        self.shifts = range(0, f * width, width)  # the slots of a reduced code
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

    def decode(self, spec: FieldSpec, v: int) -> FieldElem:
        if self.f == 1:
            return FieldElem(spec, (v,))
        mask = self.mask
        return FieldElem(spec, tuple([(v >> s) & mask for s in self.shifts]))

    def from_index(self, i: int) -> int:
        """The code of the field element with index i (base-p digits, c_0 lowest)."""
        v = 0
        for s in self.shifts:
            i, c = divmod(i, self.p)
            v |= c << s
        return v

    def index(self, v: int) -> int:
        i = 0
        for s in reversed(self.shifts):
            i = i * self.p + ((v >> s) & self.mask)
        return i

    def block(self, M: "MatFq") -> Block:
        if self.f == 1:
            return tuple([tuple([x.coeffs[0] for x in r]) for r in M.rows])
        width = self.width
        return tuple([tuple([_pack(x.coeffs, width) for x in r]) for r in M.rows])

    def matfq(self, spec: FieldSpec, X: Block) -> "MatFq":
        if self.f == 1:
            rows = tuple([tuple([FieldElem(spec, (v,)) for v in r]) for r in X])
        else:
            dec = self.decode
            rows = tuple([tuple([dec(spec, v) for v in r]) for r in X])
        return MatFq._wrap(spec, rows)

    def unitrimat(self, spec: FieldSpec, X: Block) -> "UniTriMat":
        """The UniTriMat of the strictly-upper codes of X."""
        dec, n = self.decode, len(X)
        return UniTriMat._wrap(spec, n, tuple(dec(spec, X[i][j])
                                              for i in range(n) for j in range(i + 1, n)))


_CODINGS: dict[tuple[int, int, int], _Coding] = {}


def _coding(spec: FieldSpec, terms: int) -> _Coding:
    """The shared coding over spec for sums of `terms` products; one object per (p, f, terms)."""
    key = (spec.p, spec.n, terms)
    code = _CODINGS.get(key)
    if code is None:
        # setdefault keeps one object per key when threads race, since
        # block elements compare their codings by identity
        code = _CODINGS.setdefault(key, _Coding(spec.p, spec.n, spec.modulus, terms))
    return code


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


def _unit_block(n: int) -> Block:
    """The codes of the n x n identity: 0 and 1 are their own codes over every GF(q)."""
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
    """An immutable r x c matrix of FieldElem sharing one FieldSpec."""

    __slots__ = ("spec", "rows")

    def __init__(self, spec: FieldSpec, rows):
        rows = tuple(tuple(r) for r in rows)
        width = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != width:
                raise ValueError("ragged rows")
            for x in r:
                if not isinstance(x, FieldElem) or (x.spec is not spec and x.spec != spec):
                    raise ValueError("entries must be elements of the given field")
        self.spec = spec
        self.rows = rows

    @staticmethod
    def _wrap(spec: FieldSpec, rows: tuple[tuple[FieldElem, ...], ...]) -> "MatFq":
        """Wrap a tuple of equal-length tuples of elements of spec, unchecked."""
        m = object.__new__(MatFq)
        m.spec = spec
        m.rows = rows
        return m

    # -- constructors ------------------------------------------------------------

    @classmethod
    def zeros(cls, spec: FieldSpec, r: int, c: int | None = None) -> "MatFq":
        c = r if c is None else c
        row = (spec.zero,) * c
        return MatFq._wrap(spec, (row,) * r)

    @classmethod
    def identity(cls, spec: FieldSpec, m: int) -> "MatFq":
        z, o = spec.zero, spec.one
        return MatFq._wrap(spec, tuple(tuple(o if i == j else z for j in range(m))
                                       for i in range(m)))

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
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "MatFq":
        return MatFq._wrap(self.spec, tuple(tuple(self.rows[i][j] for j in cols) for i in rows))

    # -- arithmetic ------------------------------------------------------------------

    def __add__(self, other: "MatFq") -> "MatFq":
        self._compat(other, same_shape=True)
        return self._entrywise(other, add)

    def __sub__(self, other: "MatFq") -> "MatFq":
        self._compat(other, same_shape=True)
        return self._entrywise(other, sub)

    def __neg__(self) -> "MatFq":
        spec = self.spec
        p = spec.p
        return MatFq._wrap(spec, tuple(
            tuple(FieldElem(spec, tuple([-c % p for c in x.coeffs])) for x in r)
            for r in self.rows))

    def _entrywise(self, other: "MatFq", op) -> "MatFq":
        """op on each pair of entries, coefficient by coefficient, reduced mod p."""
        spec = self.spec
        p = spec.p
        pairs = [zip(ra, rb) for ra, rb in zip(self.rows, other.rows)]
        if spec.n == 1:
            return MatFq._wrap(spec, tuple(
                tuple(FieldElem(spec, (op(x.coeffs[0], y.coeffs[0]) % p,)) for x, y in r)
                for r in pairs))
        return MatFq._wrap(spec, tuple(
            tuple(FieldElem(spec, tuple([op(c, d) % p for c, d in zip(x.coeffs, y.coeffs)]))
                  for x, y in r)
            for r in pairs))

    def __mul__(self, scalar) -> "MatFq":
        if isinstance(scalar, (int, FieldElem)):
            # each entry's product checks the scalar's field
            return MatFq._wrap(self.spec, tuple(tuple([a * scalar for a in r])
                                                for r in self.rows))
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other: "MatFq") -> "MatFq":
        self._compat(other)
        if self.ncols != other.nrows:
            raise ValueError(f"dimension mismatch: {self.ncols} vs {other.nrows}")
        code = _coding(self.spec, self.ncols)
        return code.matfq(self.spec, _mm(code.block(self), code.block(other), code.reduce))

    def pow(self, e: int) -> "MatFq":
        """Matrix power by square-and-multiply, square matrices only; a
        negative e powers the inverse."""
        if self.nrows != self.ncols:
            raise ValueError("power of a non-square matrix")
        if e < 0:
            return self.inv().pow(-e)
        return power(self, e, matmul, MatFq.identity(self.spec, self.nrows))

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
        return all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i + 1, self.ncols)
        )

    def _compat(self, other: "MatFq", same_shape: bool = False):
        if not isinstance(other, MatFq):
            raise TypeError(f"matrix expected, got {type(other).__name__}")
        if other.spec is not self.spec and other.spec != self.spec:
            raise ValueError("matrices over different fields")
        if same_shape and (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def __eq__(self, other):
        if isinstance(other, MatFq):
            a, b = self.rows, other.rows
            # every entry lies in its matrix's field, so once the fields and
            # the shapes agree the coefficients decide
            return (self.spec == other.spec and len(a) == len(b)
                    and (not a or len(a[0]) == len(b[0]))
                    and [x.coeffs for r in a for x in r] == [x.coeffs for r in b for x in r])
        return NotImplemented

    def __hash__(self):
        return hash((self.spec.p, self.spec.n, self.rows))

    def __repr__(self):
        if self.spec.n == 1:
            body = "; ".join(" ".join(str(x.coeffs[0]) for x in r) for r in self.rows)
        else:
            body = "; ".join(" ".join(str(x.index()) for x in r) for r in self.rows)
        return f"MatFq({self.spec!r}, [{body}])"

    def to_json(self) -> dict:
        return {
            "n": self.spec.n,
            "q": self.spec.q,
            "rows": [[x.to_json() for x in r] for r in self.rows],
        }


def is_symplectic(M: MatFq) -> bool:
    """Block test: M [[Y^T, -A^T], [-B^T, X^T]] == I for the n x n blocks of M,
    one product on int codes."""
    m = M.nrows
    if m != M.ncols or m % 2:
        raise ValueError("even-dimensional square matrix required")
    n = m // 2
    code = _coding(M.spec, m)
    red, m1 = code.reduce, code.minus_one
    C = code.block(M)
    # M^T = [[X^T, B^T], [A^T, Y^T]]: the partner swaps its block rows and
    # block columns and negates the blocks that land off the diagonal
    T = _transpose(C)
    partner = ([r[n:] + tuple([red(m1 * v) for v in r[:n]]) for r in T[n:]]
               + [tuple([red(m1 * v) for v in r[n:]]) + r[:n] for r in T[:n]])
    return _mm(C, partner, red) == _unit_block(m)


class UniTriMat:
    """Upper unitriangular n x n matrix: unit diagonal, zeros below.

    Stores only the strictly-upper entries, row-major:
    (0,1), (0,2), ..., (0,n-1), (1,2), ...
    """

    __slots__ = ("spec", "n", "upper")

    def __init__(self, spec: FieldSpec, n: int, upper: Sequence[FieldElem]):
        if len(upper) != n * (n - 1) // 2:
            raise ValueError(f"expected {n * (n - 1) // 2} strictly-upper entries")
        for x in upper:
            if not isinstance(x, FieldElem) or (x.spec is not spec and x.spec != spec):
                raise ValueError("entries must be elements of the given field")
        self.spec = spec
        self.n = n
        self.upper = tuple(upper)

    @staticmethod
    def _wrap(spec: FieldSpec, n: int, upper: tuple[FieldElem, ...]) -> "UniTriMat":
        """Wrap the n(n-1)/2 strictly-upper elements of spec, unchecked."""
        u = object.__new__(UniTriMat)
        u.spec = spec
        u.n = n
        u.upper = upper
        return u

    @staticmethod
    def _of_product(M: MatFq) -> "UniTriMat":
        """The strictly-upper part of M, a product of unitriangular matrices."""
        n = M.nrows
        return UniTriMat._wrap(M.spec, n, tuple(M.rows[i][j] for i in range(n)
                                                for j in range(i + 1, n)))

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "UniTriMat":
        return cls(spec, n, (spec.zero,) * (n * (n - 1) // 2))

    @classmethod
    def from_ints(cls, spec: FieldSpec, n: int, upper: Sequence[int]) -> "UniTriMat":
        return cls(spec, n, [spec.elem(v) for v in upper])

    @classmethod
    def random(cls, spec: FieldSpec, n: int, rng) -> "UniTriMat":
        return cls(spec, n, [spec.random(rng) for _ in range(n * (n - 1) // 2)])

    def entry(self, i: int, j: int) -> FieldElem:
        if i == j:
            return self.spec.one
        if i > j:
            return self.spec.zero
        return self.upper[self._pos(i, j)]

    def _pos(self, i: int, j: int) -> int:
        n = self.n
        return i * n - i * (i + 1) // 2 + (j - i - 1)

    def superdiagonal(self) -> tuple[FieldElem, ...]:
        return tuple(self.entry(i, i + 1) for i in range(self.n - 1))

    def to_mat(self) -> MatFq:
        return MatFq._wrap(self.spec, tuple(tuple(self.entry(i, j) for j in range(self.n))
                                            for i in range(self.n)))

    def __matmul__(self, other: "UniTriMat") -> "UniTriMat":
        if not isinstance(other, UniTriMat):
            return NotImplemented
        return UniTriMat._of_product(self.to_mat() @ other.to_mat())

    def inv(self) -> "UniTriMat":
        """Inverse by back substitution on int codes."""
        code = _coding(self.spec, self.n)
        return code.unitrimat(self.spec, _tri_inv(code.block(self.to_mat()), code))

    def pow(self, e: int) -> "UniTriMat":
        if e < 0:
            return self.inv().pow(-e)
        return UniTriMat._of_product(self.to_mat().pow(e))

    def order(self) -> int:
        """Element order, found along the p-power tower."""
        return _p_power_order(self, UniTriMat.identity(self.spec, self.n), self.spec.p)

    def __eq__(self, other):
        if isinstance(other, UniTriMat):
            return (self.spec == other.spec and self.n == other.n
                    and self.upper == other.upper)
        return NotImplemented

    def __hash__(self):
        return hash((self.spec.p, self.spec.n, self.n, self.upper))

    def __repr__(self):
        return f"UniTriMat(n={self.n}, upper={[x.to_json() for x in self.upper]})"

