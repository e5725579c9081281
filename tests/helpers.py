"""Constructors and references that only the tests use.

The package builds matrices from FieldElem rows or from int codes; the tests
also write them as integer rows, compare against Gaussian elimination on
FieldElems (the reference for `matrices._tri_inv`) and read a block element's
position in the canonical enumeration (the inverse of `sylow_from_index`).
"""

from fsz_lab.matrices import MatFq, UniTriMat, _mm


def mat_from_ints(spec, rows) -> MatFq:
    """The matrix over spec with the given integer rows."""
    return MatFq(spec, [[spec.elem(v) for v in r] for r in rows])


def mat_zeros(spec, r: int, c: int | None = None) -> MatFq:
    """The r x c zero matrix (r x r when c is None)."""
    return MatFq._wrap(spec, ((0,) * (r if c is None else c),) * r)


def unitri_from_ints(spec, n: int, upper) -> UniTriMat:
    """The unitriangular n x n matrix with the given strictly-upper integers, row by row."""
    return UniTriMat(spec, n, [spec.elem(v) for v in upper])


def to_mat(L: UniTriMat) -> MatFq:
    """L as a matrix, sharing its codes."""
    return MatFq._wrap(L.spec, L._codes)


def mat_inv(M: MatFq) -> MatFq:
    """Inverse by Gaussian elimination on FieldElems; raises ValueError when singular."""
    m = M.nrows
    if m != M.ncols:
        raise ValueError("inverse of a non-square matrix")
    spec = M.spec
    aug = [list(r) + [spec.one if i == j else spec.zero for j in range(m)]
           for i, r in enumerate(M.rows)]
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


def sylow_index(x) -> int:
    """x's position in the canonical enumeration: the inverse of `sylow_from_index`."""
    code, n, q = x._code, x.n, x.spec.q
    L = x._L
    S = _mm(x._A, L, code.reduce)
    idx = 0
    for v in ([L[i][j] for i in range(n) for j in range(i + 1, n)]
              + [S[i][j] for i in range(n) for j in range(i, n)]):
        idx = idx * q + code.index(v)
    return idx
