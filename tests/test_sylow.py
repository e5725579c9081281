import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsz_lab import sylow
from fsz_lab.cyclotomic import CycNum
from fsz_lab.fields import field, field_for_order
from fsz_lab.fsz import GROUP_ELEMENTS_LIMIT, sylow_group_elements
from fsz_lab.matrices import MatFq, UniTriMat, _tri_inv, is_symplectic
from fsz_lab.parallel import BudgetExceeded
from fsz_lab.sylow import (
    SylowElem,
    enumerate_sylow,
    kappa,
    sylow_count,
    sylow_from_index,
    corner_concentration_check,
    u_witness,
    upsilon,
    xi_lambda,
    y_map,
)
from helpers import mat_from_ints, mat_inv, mat_zeros, sylow_index, to_mat, unitri_from_ints


def random_elem(spec, n, rng):
    return sylow_from_index(spec, n, rng.randrange(sylow_count(n, spec.q)))


def sylow_embed_small(x: SylowElem, n_target: int) -> SylowElem:
    """Pad (L, A) with an identity/zero block up to size n_target.

    A group homomorphism into the larger block group; commutes with powers.
    """
    n0, spec = x.n, x.spec
    if n_target < n0:
        raise ValueError("target size must not shrink the element")
    if n_target == n0:
        return x
    L_rows = to_mat(x.L).rows
    L_entries = []
    for i in range(n_target):
        for j in range(i + 1, n_target):
            L_entries.append(L_rows[i][j] if i < n0 and j < n0 else spec.zero)
    L = UniTriMat(spec, n_target, L_entries)
    A = MatFq(spec, [
        [x.A.rows[i][j] if i < n0 and j < n0 else spec.zero for j in range(n_target)]
        for i in range(n_target)
    ])
    return SylowElem(L, A)


class TestConstruction:
    def test_symmetry_constraint_enforced(self):
        spec = field(5)
        L = unitri_from_ints(spec, 3, [1, 0, 0])
        bad_A = MatFq.elementary(spec, 3, 0, 0)  # A L = E00 + E01, not symmetric
        with pytest.raises(ValueError):
            SylowElem(L, bad_A)

    def test_from_symmetric(self):
        spec = field(5)
        L = unitri_from_ints(spec, 3, [1, 0, 0])
        x = SylowElem.from_symmetric(L, MatFq.elementary(spec, 3, 0, 0))
        assert x.A @ to_mat(x.L) == MatFq.elementary(spec, 3, 0, 0)

    def test_embedding_is_symplectic(self):
        spec = field(5)
        rng = random.Random(3)
        for _ in range(30):
            assert is_symplectic(random_elem(spec, 3, rng).to_matrix())

    def test_u_witness_blocks(self):
        spec = field(5)
        u = u_witness(spec, 3)
        assert u.L.superdiagonal()[0] == spec.one
        assert u.A.rows[0][0] == spec.one
        assert is_symplectic(u.to_matrix())


class TestJson:
    def test_roundtrip_over_small_group(self):
        spec = field(3)
        for x in enumerate_sylow(spec, 2):
            assert SylowElem.from_json(spec, 2, x.to_json()) == x

    def test_roundtrip_extension_field(self):
        spec = field(3, 2)
        x = random_elem(spec, 2, random.Random(41))
        assert SylowElem.from_json(spec, 2, x.to_json()) == x

    @pytest.mark.parametrize("edit", [
        lambda d: d.pop("L_upper"),
        lambda d: d.pop("A"),
        lambda d: d["L_upper"].pop(),
        lambda d: d["A"].pop(),
        lambda d: d["A"][1].pop(),
        lambda d: d["L_upper"].__setitem__(0, "1"),
        lambda d: d["L_upper"].__setitem__(0, True),
        lambda d: d["A"][0].__setitem__(1, [1, 2]),
        lambda d: d["A"][0].__setitem__(1, 3),  # A L no longer symmetric
        lambda d: d.__setitem__("q", 7),
        lambda d: d["L_upper"].__setitem__(2, 5),  # would reduce to 0, a valid element
        lambda d: d["A"][1].__setitem__(1, -5),  # likewise
    ], ids=["no-L", "no-A", "short-L", "short-A", "ragged-A", "string", "bool",
            "long-coeffs", "asymmetric", "other-q", "out-of-range", "negative"])
    def test_malformed_input_rejected(self, edit):
        spec = field(5)
        doc = u_witness(spec, 3).to_json()
        edit(doc)
        with pytest.raises(ValueError):
            SylowElem.from_json(spec, 3, doc)

    def test_non_object_rejected(self):
        with pytest.raises(ValueError):
            SylowElem.from_json(field(5), 3, [1, 0, 0])

    @pytest.mark.parametrize("value", [[0, 3], [-1, 0]], ids=["coeff-out-of-range", "coeff-negative"])
    def test_out_of_range_coefficient_rejected(self, value):
        spec = field(3, 2)
        doc = SylowElem.identity(spec, 2).to_json()
        doc["L_upper"][0] = value
        with pytest.raises(ValueError):
            SylowElem.from_json(spec, 2, doc)


class TestOutputFormat:
    """repr and to_json bytes, pinned from the FieldElem-based representation."""

    CASES = [
        (lambda: u_witness(field(5), 3),
         "SylowElem(n=3, q=5, L=([1] mod (5,1), [0] mod (5,1), [0] mod (5,1)), "
         "A=(([1] mod (5,1), [4] mod (5,1), [0] mod (5,1)), "
         "([0] mod (5,1), [0] mod (5,1), [0] mod (5,1)), "
         "([0] mod (5,1), [0] mod (5,1), [0] mod (5,1))))",
         '{"n": 3, "q": 5, "L_upper": [1, 0, 0], "A": [[1, 4, 0], [0, 0, 0], [0, 0, 0]]}'),
        (lambda: sylow_from_index(field(3, 2), 2, 5000),
         "SylowElem(n=2, q=9, L=([0,2] mod (3,2),), "
         "A=(([1,2] mod (3,2), [1,0] mod (3,2)), ([0,2] mod (3,2), [0,1] mod (3,2))))",
         '{"n": 2, "q": 9, "L_upper": [[0, 2]], "A": [[[1, 2], [1, 0]], [[0, 2], [0, 1]]]}'),
        (lambda: sylow_from_index(field(3), 2, 40),
         "SylowElem(n=2, q=3, L=([1] mod (3,1),), "
         "A=(([1] mod (3,1), [0] mod (3,1)), ([1] mod (3,1), [0] mod (3,1))))",
         '{"n": 2, "q": 3, "L_upper": [1], "A": [[1, 0], [1, 0]]}'),
        (lambda: SylowElem.identity(field(7), 1),
         "SylowElem(n=1, q=7, L=(), A=(([0] mod (7,1),),))",
         '{"n": 1, "q": 7, "L_upper": [], "A": [[0]]}'),
    ]

    @pytest.mark.parametrize("make,text,doc", CASES, ids=["u-gf5", "gf9", "gf3", "n1"])
    def test_repr_and_json_bytes(self, make, text, doc):
        x = make()
        assert repr(x) == text
        assert json.dumps(x.to_json()) == doc


DIFF_ORDERS = (3, 5, 9, 25, 27)
GROUPS = [(q, n) for q in DIFF_ORDERS for n in (1, 2, 3, 4)]


def draw_elem(data, q, n):
    spec = field_for_order(q)
    return sylow_from_index(spec, n, data.draw(st.integers(0, sylow_count(n, q) - 1)))


class TestIntCore:
    """The int-coded block arithmetic against full 2n x 2n MatFq arithmetic."""

    @pytest.mark.parametrize("q,n", GROUPS)
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_product_matches_embedding(self, q, n, data):
        x, y = draw_elem(data, q, n), draw_elem(data, q, n)
        assert (x * y).to_matrix() == x.to_matrix() @ y.to_matrix()

    @pytest.mark.parametrize("q,n", GROUPS)
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_inverse_matches_embedding(self, q, n, data):
        x = draw_elem(data, q, n)
        assert x.inv().to_matrix() == mat_inv(x.to_matrix())
        assert x * x.inv() == SylowElem.identity(x.spec, n)

    @pytest.mark.parametrize("q,n", GROUPS)
    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_powers_match_embedding(self, q, n, data):
        x = draw_elem(data, q, n)
        mat = x.to_matrix()
        acc = MatFq.identity(x.spec, 2 * n)
        for j in range(x.spec.p ** 2 + 1):
            assert x.pow(j).to_matrix() == acc
            acc = acc @ mat

    @pytest.mark.parametrize("q,n", GROUPS)
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_index_roundtrip(self, q, n, data):
        x = draw_elem(data, q, n)
        assert sylow_from_index(x.spec, n, sylow_index(x)) == x
        assert SylowElem(x.L, x.A) == x
        assert SylowElem.from_symmetric(x.L, x.A @ to_mat(x.L)) == x

    def test_group_operations_make_no_matrix_product(self, monkeypatch):
        rng = random.Random(73)
        pairs = [(random_elem(spec, n, rng), random_elem(spec, n, rng))
                 for spec, n in ((field(5), 3), (field(3, 2), 2))]
        calls = []
        matmul = MatFq.__matmul__

        def counted(self, other):
            calls.append(1)
            return matmul(self, other)

        monkeypatch.setattr(MatFq, "__matmul__", counted)
        for x, y in pairs:
            x * y, x.inv(), x.pow(7), x.pow(-3)
        assert calls == []

    @pytest.fixture
    def inversions(self, monkeypatch):
        calls = []

        def counting(L, code):
            calls.append(L)
            return _tri_inv(L, code)

        monkeypatch.setattr(sylow, "_tri_inv", counting)
        return calls

    def test_power_and_its_embedding_invert_once(self, inversions):
        rng = random.Random(79)
        for spec, n in ((field(5), 3), (field(3, 2), 2)):
            x = random_elem(spec, n, rng)
            for j in range(2, spec.p ** 2 + 1):
                inversions.clear()
                x.pow(j).to_matrix()
                assert len(inversions) == 1, j

    def test_right_factor_is_inverted_once(self, inversions):
        rng = random.Random(83)
        spec = field(5)
        u = random_elem(spec, 3, rng) * random_elem(spec, 3, rng)  # a product carries no inverse
        lefts = [random_elem(spec, 3, rng) for _ in range(20)]
        inversions.clear()
        products = [a * u for a in lefts]
        assert inversions == [u._L]
        assert [p.to_matrix() for p in products] == [a.to_matrix() @ u.to_matrix() for a in lefts]

    def test_carried_inverse_is_the_inverse(self):
        rng = random.Random(89)
        for spec, n in ((field(5), 3), (field(3, 2), 3), (field(7), 4)):
            x = random_elem(spec, n, rng)
            built = [x, x.inv(), SylowElem.from_symmetric(x.L, x.A @ to_mat(x.L)),
                     *(x.pow(j) for j in range(-3, 9))]
            for y in built:
                assert y._Linv == _tri_inv(y._L, y._code)

    def test_carried_inverse_is_invisible(self):
        rng = random.Random(97)
        for spec, n in ((field(5), 3), (field(3, 2), 2)):
            x = random_elem(spec, n, rng)
            y = SylowElem(x.L, x.A)
            assert x._Linv is not None and y._Linv is None
            assert x == y and hash(x) == hash(y)
            assert x.to_json() == y.to_json() and sylow_index(x) == sylow_index(y)
            assert {x: 1}[y] == 1
            y.to_matrix()
            assert y._Linv == x._Linv and x == y and hash(x) == hash(y)

    def test_constructor_and_from_json_refuse_the_same_pair(self):
        # symmetry is checked where input enters, not on the codes operations build
        spec = field(5)
        u = u_witness(spec, 3)
        bad = mat_from_ints(spec, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])  # A L = E00 + E01
        with pytest.raises(ValueError, match="symmetric"):
            SylowElem(u.L, bad)
        with pytest.raises(ValueError, match="symmetric"):
            SylowElem.from_json(spec, 3, dict(u.to_json(), A=bad.to_json()["rows"]))
        assert SylowElem(u.L, u.A) == u == SylowElem.from_json(spec, 3, u.to_json())

    def test_mixed_groups_rejected(self):
        with pytest.raises(ValueError):
            u_witness(field(5), 3) * u_witness(field(5), 2)
        with pytest.raises(ValueError):
            u_witness(field(5), 2) * u_witness(field(3), 2)


class TestGroupLaw:
    def test_block_product_matches_embedding(self):
        spec = field(5)
        rng = random.Random(5)
        for _ in range(500):
            x, y = random_elem(spec, 3, rng), random_elem(spec, 3, rng)
            assert (x * y).to_matrix() == x.to_matrix() @ y.to_matrix()

    def test_inverse(self):
        spec = field(3)
        rng = random.Random(9)
        ident = SylowElem.identity(spec, 2)
        for _ in range(40):
            x = random_elem(spec, 2, rng)
            assert x * x.inv() == ident
            assert x.inv() * x == ident

    def test_pow_closed_form_vs_iterated(self):
        spec = field(5)
        rng = random.Random(17)
        for _ in range(10):
            x = random_elem(spec, 3, rng)
            acc = x
            for j in range(2, 12):
                acc = acc * x
                assert x.pow(j) == acc

    def test_pow_one_is_identity_map(self):
        spec = field(5)
        rng = random.Random(23)
        x = random_elem(spec, 3, rng)
        assert x.pow(1) == x
        assert x.pow(0) == SylowElem.identity(spec, 3)

    def test_order_bound(self):
        spec = field(5)
        rng = random.Random(29)
        for _ in range(20):
            x = random_elem(spec, 3, rng)
            k = x.L.order()
            assert x.order() in (k, 5 * k)
            assert x.pow(25) == SylowElem.identity(spec, 3)


class TestStructureMaps:
    def test_kappa_of_identity(self):
        spec = field(5)
        assert all(c.is_zero() for c in kappa(SylowElem.identity(spec, 3)))

    def test_kappa_homomorphism(self):
        spec = field(5)
        rng = random.Random(31)
        for _ in range(500):
            x, y = random_elem(spec, 3, rng), random_elem(spec, 3, rng)
            kx, ky, kxy = kappa(x), kappa(y), kappa(x * y)
            assert all(a + b == c for a, b, c in zip(kx, ky, kxy))

    def test_kappa_surjective_on_basis(self):
        spec = field(5)
        # corner slot
        x = SylowElem.from_symmetric(
            UniTriMat.identity(spec, 3), MatFq.elementary(spec, 3, 0, 0)
        )
        assert [c.to_json() for c in kappa(x)] == [1, 0, 0]
        # each superdiagonal slot
        for i in range(2):
            upper = [0, 0, 0]
            upper[0 if i == 0 else 2] = 1
            y = SylowElem(unitri_from_ints(spec, 3, upper), mat_zeros(spec, 3))
            expected = [0, 0, 0]
            expected[1 + i] = 1
            assert [c.to_json() for c in kappa(y)] == expected

    def test_xi_multiplicative(self):
        spec = field(5)
        rng = random.Random(37)
        z = spec.elem(2)
        for _ in range(40):
            x, y = random_elem(spec, 3, rng), random_elem(spec, 3, rng)
            assert xi_lambda(z, x * y) == xi_lambda(z, x) * xi_lambda(z, y)

    def test_xi_zero_param_rejected(self):
        spec = field(5)
        with pytest.raises(ValueError):
            xi_lambda(spec.zero, SylowElem.identity(spec, 3))

    def test_xi_value(self):
        spec = field(5)
        x = SylowElem.from_symmetric(
            UniTriMat.identity(spec, 3), MatFq.elementary(spec, 3, 0, 0, 2)
        )
        assert xi_lambda(spec.one, x) == CycNum.zeta(5, 2)


class TestYMap:
    def test_identity_l_gives_zero(self):
        spec = field(5)
        A = mat_from_ints(spec, [[1, 2, 3], [2, 4, 0], [3, 0, 1]])
        assert y_map(UniTriMat.identity(spec, 3), 1, A) == mat_zeros(spec, 3)

    def test_linearity(self):
        spec = field(5)
        rng = random.Random(41)
        L = UniTriMat.random(spec, 3, rng)
        A = mat_from_ints(spec, [[rng.randrange(5) for _ in range(3)] for _ in range(3)])
        B = mat_from_ints(spec, [[rng.randrange(5) for _ in range(3)] for _ in range(3)])
        c = spec.elem(3)
        assert y_map(L, 1, A + B * c) == y_map(L, 1, A) + y_map(L, 1, B) * c

    def test_zero_map_below_order(self):
        spec = field(3)
        L = unitri_from_ints(spec, 3, [1, 0, 1])  # one Jordan block, order 3 < 9
        A = mat_from_ints(spec, [[1, 0, 2], [0, 1, 0], [2, 0, 1]])
        assert y_map(L, 2, A) == mat_zeros(spec, 3)


class TestUpsilon:
    def test_identity_gives_zero(self):
        spec = field(5)
        assert upsilon(UniTriMat.identity(spec, 3), 1).is_zero()

    def test_all_ones_gives_one(self):
        spec = field(5)
        assert upsilon(unitri_from_ints(spec, 3, [1, 0, 1]), 1) == spec.one

    def test_worked_example(self):
        spec = field(5)
        L = unitri_from_ints(spec, 3, [2, 0, 3])
        assert upsilon(L, 1) == spec.elem(1)  # 4 * 9 = 36 = 1 mod 5

    def test_always_square(self):
        spec = field(5)
        rng = random.Random(43)
        for _ in range(30):
            assert upsilon(UniTriMat.random(spec, 3, rng), 1).legendre() >= 0

    def test_dimension_constraint(self):
        spec = field(5)
        with pytest.raises(ValueError):
            upsilon(UniTriMat.identity(spec, 2), 1)  # p^k = 5 > 2n - 1 = 3


class TestCornerStructure:
    def test_corner_slot_carries_upsilon(self):
        spec = field(5)
        rng = random.Random(47)
        for _ in range(20):
            L = UniTriMat.random(spec, 3, rng)
            assert corner_concentration_check(L, 1, 0, 0)
            img = y_map(L, 1, MatFq.elementary(spec, 3, 0, 0))
            assert img.rows[2][2] == upsilon(L, 1)

    def test_off_source_slots_vanish(self):
        spec = field(5)
        rng = random.Random(53)
        for _ in range(10):
            L = UniTriMat.random(spec, 3, rng)
            for s in range(3):
                for t in range(3):
                    assert corner_concentration_check(L, 1, s, t)

    def test_sign_for_p_three(self):
        spec = field(3)
        rng = random.Random(59)
        for _ in range(10):
            L = UniTriMat.random(spec, 5, rng)
            assert corner_concentration_check(L, 2, 0, 0)
            img = y_map(L, 2, MatFq.elementary(spec, 5, 0, 0))
            # (p^y + 1)/2 = 5, sign (-1)^(y(p-1)/2) = +1
            assert img.rows[4][4] == upsilon(L, 2)


class TestEmbedding:
    def test_identity_maps_to_identity(self):
        spec = field(5)
        assert sylow_embed_small(
            SylowElem.identity(spec, 3), 5
        ) == SylowElem.identity(spec, 5)

    def test_homomorphism(self):
        spec = field(5)
        rng = random.Random(61)
        for _ in range(20):
            x, y = random_elem(spec, 3, rng), random_elem(spec, 3, rng)
            assert sylow_embed_small(x, 5) * sylow_embed_small(y, 5) == sylow_embed_small(x * y, 5)

    def test_commutes_with_powers(self):
        spec = field(5)
        rng = random.Random(67)
        for _ in range(10):
            x = random_elem(spec, 3, rng)
            for j in (2, 5, 7):
                assert sylow_embed_small(x, 4).pow(j) == sylow_embed_small(x.pow(j), 4)

    def test_shrinking_rejected(self):
        spec = field(5)
        with pytest.raises(ValueError):
            sylow_embed_small(SylowElem.identity(spec, 3), 2)


class TestEnumeration:
    def test_small_counts(self):
        spec3 = field(3)
        assert sylow_count(2, 3) == 81
        assert len(list(enumerate_sylow(spec3, 2))) == 81
        assert sylow_count(1, 3) == 3
        assert len(list(enumerate_sylow(spec3, 1))) == 3
        assert sylow_count(3, 5) == 5 ** 9

    def test_no_duplicates(self):
        spec = field(3)
        seen = set(enumerate_sylow(spec, 2))
        assert len(seen) == 81

    def test_index_roundtrip(self):
        spec = field(5)
        rng = random.Random(71)
        for _ in range(40):
            idx = rng.randrange(sylow_count(3, 5))
            assert sylow_index(sylow_from_index(spec, 3, idx)) == idx

    def test_partition_union_matches_full_stream(self):
        spec = field(3)
        full = list(enumerate_sylow(spec, 2))
        pieces = []
        for lo, hi in ((0, 20), (20, 50), (50, 81)):
            pieces.extend(enumerate_sylow(spec, 2, lo, hi))
        assert pieces == full

    def test_budget_refusal(self):
        # the stream takes no budget: its materializing caller refuses up front
        spec = field(5)
        assert GROUP_ELEMENTS_LIMIT < 5 ** 9
        with pytest.raises(BudgetExceeded) as info:
            sylow_group_elements(spec, 3)
        assert info.value.required == 5 ** 9
