import random
from itertools import combinations_with_replacement
from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsz_lab.centralizer import random_symplectic
from fsz_lab.fields import (MAX_TERMS, FieldElem, FieldSpec, _pmulmod, field, field_for_order,
                            split_prime_power)
from fsz_lab.matrices import MatFq, UniTriMat, _transpose, is_symplectic
from fsz_lab.sylow import sylow_from_index


# -- oracles: entry arithmetic on coefficient lists, one term at a time ---------------
#
# A FieldElem product is the code kernel's reduction itself, so the oracles
# never multiply FieldElems: products are fields._pmulmod on coefficient
# lists, and sums add the lists digit by digit mod p (`spec.elem` reduces).

def ref_product(x: FieldElem, y: FieldElem) -> list[int]:
    """The coefficients of x * y, padded to the field's degree."""
    spec = x.spec
    prod = _pmulmod(list(x.coeffs), list(y.coeffs), spec.modulus, spec.p)
    return prod + [0] * (spec.n - len(prod))


def schoolbook_product(A: MatFq, B: MatFq) -> MatFq:
    spec = A.spec
    cols = tuple(zip(*B.rows))
    out = []
    for row in A.rows:
        new = []
        for col in cols:
            acc = [0] * spec.n
            for a, b in zip(row, col):
                acc = [s + t for s, t in zip(acc, ref_product(a, b))]
            new.append(spec.elem(acc))
        out.append(new)
    return MatFq(spec, out)


def entrywise(A: MatFq, B: MatFq, op) -> MatFq:
    """op, an int operator, applied to the coefficients of each pair of entries."""
    spec = A.spec
    return MatFq(spec, [[spec.elem(list(map(op, a.coeffs, b.coeffs))) for a, b in zip(ra, rb)]
                        for ra, rb in zip(A.rows, B.rows)])


def block_matrix(blocks) -> MatFq:
    """Assemble a matrix from a grid of conformal blocks."""
    rows = [[x for b in brow for x in b.rows[i]]
            for brow in blocks for i in range(brow[0].nrows)]
    return MatFq(blocks[0][0].spec, rows)


def block_formula_is_symplectic(M: MatFq) -> bool:
    """M [[Y^T, -A^T], [-B^T, X^T]] == I, assembled from FieldElem blocks."""
    n = M.nrows // 2
    idx, jdx = range(n), range(n, 2 * n)

    def transposed(rows, cols) -> MatFq:
        return MatFq(M.spec, zip(*M.submatrix(rows, cols).rows))

    partner = block_matrix([[transposed(jdx, jdx), -transposed(idx, jdx)],
                            [-transposed(jdx, idx), transposed(idx, idx)]])
    return schoolbook_product(M, partner).rows == MatFq.identity(M.spec, 2 * n).rows


def ut_exponent(n: int, q: int) -> int:
    """Exponent of UT(n, q): p^t with t = ceil(log_p n)."""
    p, _ = split_prime_power(q)
    t = 0
    size = 1
    while size < n:
        size *= p
        t += 1
    return p ** t


def unitri_power_entry(L: UniTriMat, m: int, i: int, j: int) -> FieldElem:
    """Entry (i, j) of L^m as the sum over non-decreasing index paths.

    Each path i = i_0 <= i_1 <= ... <= i_m = j contributes the product of the
    entries it traverses (diagonal steps contribute 1).  Independent of the
    matrix-multiplication route, so it serves as an oracle for small m.
    """
    spec, rows = L.spec, L.to_mat().rows
    if i > j:
        return spec.zero
    if m == 0:
        return spec.one if i == j else spec.zero
    total = spec.zero
    for middle in combinations_with_replacement(range(i, j + 1), m - 1):
        path = (i,) + middle + (j,)
        prod = spec.one
        for a in range(m):
            prod = prod * rows[path[a]][path[a + 1]]
            if prod.is_zero():
                break
        total = total + prod
    return total


DIFF_ORDERS = (3, 5, 9, 25, 27)


@st.composite
def matrix_pairs(draw, same_shape=False):
    """(A, B) over one of DIFF_ORDERS with A @ B defined (or equal shapes)."""
    spec = field_for_order(draw(st.sampled_from(DIFF_ORDERS)))
    r, k, c = (draw(st.integers(1, 6)) for _ in range(3))
    entry = st.integers(0, spec.q - 1).map(spec.from_index)

    def matrix(nrows, ncols):
        row = st.lists(entry, min_size=ncols, max_size=ncols)
        return MatFq(spec, draw(st.lists(row, min_size=nrows, max_size=nrows)))

    return (matrix(r, k), matrix(r, k)) if same_shape else (matrix(r, k), matrix(k, c))


@st.composite
def unitri_matrices(draw):
    """An n x n upper unitriangular matrix over one of DIFF_ORDERS, n = 1..6."""
    spec = field_for_order(draw(st.sampled_from(DIFF_ORDERS)))
    n = draw(st.integers(1, 6))
    size = n * (n - 1) // 2
    entry = st.integers(0, spec.q - 1).map(spec.from_index)
    return UniTriMat(spec, n, draw(st.lists(entry, min_size=size, max_size=size)))


class TestIntegerArithmetic:
    """MatFq arithmetic on int codes against the coefficient-list oracles."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(matrix_pairs())
    def test_product_matches_schoolbook(self, pair):
        A, B = pair
        assert A @ B == schoolbook_product(A, B)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(matrix_pairs(same_shape=True))
    def test_entrywise_ops_match_field_elements(self, pair):
        A, B = pair
        assert A + B == entrywise(A, B, add)
        assert A - B == entrywise(A, B, sub)
        assert -A == MatFq(A.spec, [[A.spec.elem([-c for c in x.coeffs]) for x in r]
                                    for r in A.rows])

    @pytest.mark.parametrize("q", DIFF_ORDERS + (49, 125, 243))
    @pytest.mark.parametrize("k", [1, 7, 40])
    def test_largest_coefficients(self, q, k):
        # every coefficient p - 1: each slot of the unreduced sum at its bound
        spec = field_for_order(q)
        top = spec.from_index(q - 1)
        A = MatFq(spec, [[top] * k] * 2)
        B = MatFq(spec, [[top] * 3] * k)
        assert A @ B == schoolbook_product(A, B)
        assert A + A == entrywise(A, A, add)

    def test_product_makes_no_field_element_multiply(self, monkeypatch):
        calls = []
        original = FieldElem.__mul__

        def counting(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(FieldElem, "__mul__", counting)
        monkeypatch.setattr(FieldElem, "__rmul__", counting)
        rng = random.Random(5)
        for q in (5, 9, 27):
            spec = field_for_order(q)
            M = MatFq(spec, [[spec.random(rng) for _ in range(4)] for _ in range(4)])
            M @ M
            M + M
            M - M
            -M
        assert calls == []
        spec.one * spec.one
        assert calls == [1]

    @pytest.mark.parametrize("q", [9, 125])
    def test_longest_sum_fits_the_slots(self, q):
        # 2^16 products with every coefficient p - 1 fill each slot to its bound
        spec = field_for_order(q)
        top = spec.from_index(q - 1)
        row = MatFq(spec, [[top] * MAX_TERMS])
        col = MatFq(spec, [[top]] * MAX_TERMS)
        # the sum of MAX_TERMS equal terms, digit by digit
        expected = spec.elem([MAX_TERMS * c for c in ref_product(top, top)])
        assert (row @ col).rows == ((expected,),)

    def test_longer_sum_refused(self):
        spec = field(3, 2)
        with pytest.raises(ValueError, match="inner dimension"):
            MatFq.zeros(spec, 1, MAX_TERMS + 1) @ MatFq.zeros(spec, MAX_TERMS + 1, 1)

    def test_equal_fields_share_one_coding(self):
        assert FieldSpec(5, 2).code is field(5, 2).code
        assert field(5, 2).code is not field(5, 3).code

    def test_equal_spec_instances_are_one_field(self):
        fresh = FieldSpec(5)
        A = MatFq(fresh, [[fresh.elem(2), fresh.elem(3)]])
        B = MatFq.from_ints(field(5), [[1], [4]])
        assert (A @ B).rows == ((field(5).elem(4),),)
        assert UniTriMat(field(5), 2, [fresh.elem(1)]) == UniTriMat.from_ints(fresh, 2, [1])

    def test_entries_of_another_field_rejected(self):
        with pytest.raises(ValueError):
            MatFq(field(5), [[field(7).one]])
        with pytest.raises(ValueError):
            UniTriMat(field(5), 2, [field(5, 2).one])


class TestMatFq:
    def test_identity_is_neutral(self):
        spec = field(5)
        M = MatFq.from_ints(spec, [[1, 2], [3, 4]])
        I = MatFq.identity(spec, 2)
        assert I @ M == M
        assert M @ I == M

    def test_double_transpose(self):
        spec = field(7)
        M = MatFq.from_ints(spec, [[1, 2, 3], [0, 4, 5]])
        T = _transpose(M._codes)
        assert T == MatFq.from_ints(spec, [[1, 0], [2, 4], [3, 5]])._codes
        assert _transpose(T) == M._codes

    def test_inverse(self):
        spec = field(5)
        M = MatFq.from_ints(spec, [[1, 2], [3, 4]])
        assert M @ M.inv() == MatFq.identity(spec, 2)

    def test_singular_inverse_rejected(self):
        spec = field(5)
        with pytest.raises(ValueError):
            MatFq.from_ints(spec, [[1, 2], [2, 4]]).inv()

    def test_dimension_mismatch_rejected(self):
        spec = field(5)
        A = MatFq.from_ints(spec, [[1, 2]])
        with pytest.raises(ValueError):
            A @ A

    def test_equality_needs_the_same_field_and_shape(self):
        assert MatFq.identity(field(5), 3) != MatFq.identity(field(7), 3)
        assert MatFq.identity(FieldSpec(5), 3) == MatFq.identity(field(5), 3)
        assert MatFq.zeros(field(5), 2, 3) != MatFq.zeros(field(5), 3, 2)
        assert MatFq.zeros(field(5), 2, 3) != MatFq.zeros(field(5), 2, 2)
        assert MatFq.from_ints(field(5), [[1, 2]]) != MatFq.from_ints(field(5), [[1, 3]])

    def test_block_matrix_assembly(self):
        spec = field(5)
        I = MatFq.identity(spec, 2)
        Z = MatFq.zeros(spec, 2)
        M = block_matrix([[I, Z], [Z, I]])
        assert M == MatFq.identity(spec, 4)


class TestSymplectic:
    def test_identity_and_minus_identity(self):
        spec = field(5)
        I = MatFq.identity(spec, 6)
        assert is_symplectic(I)
        assert is_symplectic(-I)

    def test_odd_dimension_rejected(self):
        spec = field(5)
        with pytest.raises(ValueError):
            is_symplectic(MatFq.identity(spec, 3))

    def test_non_symplectic_detected(self):
        spec = field(5)
        M = MatFq.from_ints(spec, [[2, 0], [0, 1]])  # det 2, outside Sp_2 = SL_2
        assert not is_symplectic(M)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            is_symplectic(MatFq.zeros(field(5), 4, 2))

    @pytest.mark.parametrize("q", [3, 5, 9, 25])
    def test_codes_agree_with_the_block_formula(self, q):
        # is_symplectic reads the upper triangle of M Omega M^T only, so the
        # perturbed copies change one entry of M on or below the diagonal, and
        # one above it
        spec = field_for_order(q)
        rng = random.Random(61)
        kinds = ("symplectic", "random", "lower", "upper")
        verdicts = {kind: set() for kind in kinds}
        for dim in (2, 4, 6, 8, 10):
            for _ in range(12):
                S = random_symplectic(spec, dim, rng)
                R = MatFq(spec, [[spec.random(rng) for _ in range(dim)] for _ in range(dim)])
                perturbed = []
                for below in (True, False):
                    rows = [list(r) for r in S.rows]
                    if below:
                        i = rng.randrange(dim)
                        j = rng.randrange(i + 1)
                    else:
                        i = rng.randrange(dim - 1)
                        j = rng.randrange(i + 1, dim)
                    rows[i][j] = rows[i][j] + spec.from_index(rng.randrange(1, q))
                    perturbed.append(MatFq(spec, rows))
                for kind, M in zip(kinds, (S, R, *perturbed)):
                    verdict = is_symplectic(M)
                    assert verdict == block_formula_is_symplectic(M), (kind, M)
                    verdicts[kind].add(verdict)
        assert verdicts["symplectic"] == {True}
        assert all(False in verdicts[kind] for kind in kinds[1:])


class TestUniTri:
    def test_order_five_over_f5(self):
        spec = field(5)
        rng = random.Random(11)
        for _ in range(10):
            L = UniTriMat.random(spec, 3, rng)
            assert L.pow(5) == UniTriMat.identity(spec, 3)

    def test_inverse(self):
        spec = field(5)
        L = UniTriMat.from_ints(spec, 4, [1, 2, 3, 4, 0, 1])
        assert L @ L.inv() == UniTriMat.identity(spec, 4)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(unitri_matrices())
    def test_inverse_matches_gaussian_elimination(self, L):
        assert L.inv().to_mat() == L.to_mat().inv()

    def test_inverse_makes_no_matrix_product(self, monkeypatch):
        calls = []
        original = MatFq.__matmul__

        def counting(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(MatFq, "__matmul__", counting)
        for q in (5, 9, 27):
            L = UniTriMat.random(field_for_order(q), 6, random.Random(q))
            L.inv()
            L @ L
        assert calls == []
        L.to_mat() @ L.to_mat()
        assert calls == [1]

    def test_products_of_different_groups_rejected(self):
        with pytest.raises(ValueError):
            UniTriMat.identity(field(5), 3) @ UniTriMat.identity(field(5), 2)
        with pytest.raises(ValueError):
            UniTriMat.identity(field(5), 2) @ UniTriMat.identity(field(3), 2)

    def test_block_views_construct_no_field_element(self, monkeypatch):
        rng = random.Random(3)
        cases = [(UniTriMat.random(field_for_order(q), 4, rng), sylow_from_index(
            field_for_order(q), 3, rng.randrange(q ** 9))) for q in (5, 9)]
        calls = []
        original = FieldElem.__init__

        def counting(self, spec, coeffs):
            calls.append(1)
            original(self, spec, coeffs)

        monkeypatch.setattr(FieldElem, "__init__", counting)
        for L, x in cases:
            L.inv(), L.pow(7), L.pow(-3), L.order()
            x.L, x.A, x.to_matrix(), x.L.to_mat()
        assert calls == []
        x.A.rows
        assert calls

    @pytest.mark.parametrize(
        "n,q,expected", [(3, 5, 5), (6, 5, 25), (1, 7, 1), (3, 3, 3), (9, 3, 9), (10, 3, 27)]
    )
    def test_ut_exponent(self, n, q, expected):
        assert ut_exponent(n, q) == expected

    @pytest.mark.parametrize("n,q", [(3, 5), (5, 3), (4, 3)])
    def test_orders_divide_exponent_and_jordan_attains(self, n, q):
        spec = field(q)
        exp = ut_exponent(n, q)
        jordan = [int(j == i + 1) for i in range(n) for j in range(i + 1, n)]
        assert UniTriMat.from_ints(spec, n, jordan).order() == exp
        rng = random.Random(n * 100 + q)
        for _ in range(25):
            order = UniTriMat.random(spec, n, rng).order()
            assert exp % order == 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_power_entries_match_path_sums(self, n):
        spec = field(5)
        rng = random.Random(n)
        for _ in range(5):
            L = UniTriMat.random(spec, n, rng)
            for m in range(6):
                P = L.pow(m).to_mat()
                for i in range(n):
                    for j in range(i, n):
                        assert P.rows[i][j] == unitri_power_entry(L, m, i, j)
