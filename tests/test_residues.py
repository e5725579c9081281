import pytest

from fsz_lab.cyclotomic import gauss_sum
from fsz_lab.fields import (
    FieldElem,
    FieldSpec,
    factorize,
    field,
    field_for_order,
    split_prime_power,
)
from fsz_lab.fsz import witness_pair_count
from fsz_lab.residues import (
    FiberCountQuery,
    binom_product_sum_mod,
    gauss_square_int,
    gauss_sum_int,
    power_sum_mod,
    qr_diff_count,
    trace_fiber_qr_count,
)


class TestQrDiff:
    @pytest.mark.parametrize("q,c,expected", [(5, 1, 2), (5, 2, 1), (7, 1, 2)])
    def test_worked_examples(self, q, c, expected):
        spec = field(q)
        assert qr_diff_count(spec, spec.elem(c), "closed") == expected
        assert qr_diff_count(spec, spec.elem(c), "enum") == expected

    def test_zero_shift_rejected(self):
        spec = field(5)
        with pytest.raises(ValueError):
            qr_diff_count(spec, spec.zero)

    @pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 25, 27, 49])
    def test_closed_equals_enum(self, q):
        spec = field_for_order(q)
        for c in spec.elements():
            if c.is_zero():
                continue
            assert qr_diff_count(spec, c, "closed") == qr_diff_count(spec, c, "enum")

    def test_enum_matches_element_set_count_to_125(self):
        # the element-level count the mask replaced, kept as the oracle
        orders = [q for q in range(3, 126, 2) if len(factorize(q)) == 1]
        for q in orders:
            spec = FieldSpec(*split_prime_power(q))
            qr = frozenset(spec.qr_set())
            for c in spec.elements():
                if c.is_zero():
                    continue
                expected = sum(1 for x in qr if x + c in qr)
                assert qr_diff_count(spec, c, "enum") == expected, f"q={q}, c={c}"

    def test_shift_from_another_field_rejected(self):
        with pytest.raises(ValueError):
            qr_diff_count(field(5), field(7).elem(1), "enum")

    def test_closed_equals_enum_sweep_to_400(self):
        from fsz_lab.fields import is_prime

        for p in range(3, 401, 2):
            if not is_prime(p):
                continue
            q = p
            while q <= 400:
                spec = field_for_order(q)
                for c in spec.elements():
                    if c.is_zero():
                        continue
                    assert qr_diff_count(spec, c, "closed") == qr_diff_count(
                        spec, c, "enum"
                    ), f"q={q}, c={c}"
                q *= p

    def test_difference_double_count(self):
        # summing |QR & (QR + c)| over c != 0 counts ordered pairs of distinct
        # residues by their difference; swept over every odd prime power <= 400
        from fsz_lab.fields import is_prime

        qs = []
        for p in range(3, 401, 2):
            if is_prime(p):
                q = p
                while q <= 400:
                    qs.append(q)
                    q *= p
        for q in qs:
            spec = field_for_order(q)
            qr_size = (q + 1) // 2
            total = sum(
                qr_diff_count(spec, c, "closed")
                for c in spec.elements()
                if not c.is_zero()
            )
            assert total + qr_size == qr_size * qr_size, f"q={q}"


class TestTraceFibers:
    @pytest.mark.parametrize(
        "p,n,z,y,expected",
        [(5, 1, 1, 0, 1), (5, 1, 1, 1, 1), (5, 2, 1, 0, 1)],
    )
    def test_worked_examples(self, p, n, z, y, expected):
        spec = field(p, n)
        query = FiberCountQuery(spec, spec.elem(z), y)
        assert trace_fiber_qr_count(query, "closed") == expected
        assert trace_fiber_qr_count(query, "enum") == expected

    def test_zero_z_rejected(self):
        spec = field(5)
        with pytest.raises(ValueError):
            FiberCountQuery(spec, spec.zero, 0)

    def test_z_from_another_field_rejected(self):
        # GF(5)'s 2 in a GF(25) query read 5 closed and 1 by enumeration
        with pytest.raises(ValueError, match="z must live in the field of spec"):
            FiberCountQuery(field(5, 2), field(5).elem(2), 0)

    @pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (11, 1)])
    def test_closed_equals_enum_and_partition(self, p, n):
        spec = field(p, n)
        for zi in range(1, spec.q):
            z = spec.from_index(zi)
            total = 0
            for y in range(p):
                query = FiberCountQuery(spec, z, y)
                closed = trace_fiber_qr_count(query, "closed")
                assert closed == trace_fiber_qr_count(query, "enum")
                total += closed
            assert total == (spec.q + 1) // 2

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3), (7, 2)])
    def test_enum_matches_the_definition(self, p, n):
        # the reference squares each w and traces z*x by FieldElem products
        # and Frobenius powers, on a spec whose tables and mask stay unbuilt
        spec, direct = FieldSpec(p, n), FieldSpec(p, n)
        squares = {w * w for w in direct.elements()}
        for zi in range(1, spec.q):
            z = direct.from_index(zi)
            traces = [(z * x).trace() for x in squares]
            for y in range(p):
                query = FiberCountQuery(spec, spec.from_index(zi), y)
                assert trace_fiber_qr_count(query, "enum") == traces.count(y), (zi, y)
        assert direct._tables is None and direct._qr is None

    def test_tally_belongs_to_one_spec(self):
        spec, other = FieldSpec(5, 2), FieldSpec(5, 2)
        trace_fiber_qr_count(FiberCountQuery(spec, spec.elem([1, 1]), 2), "enum")
        assert spec._tables is not None
        assert other._tables is None


class TestIndexCodedOracles:
    def test_enumerations_make_no_object_products(self, monkeypatch):
        # once the tables exist, the pair, fiber and Gauss-sum enumerations
        # run on index codes alone
        spec = FieldSpec(5, 2)
        spec.tables()
        calls = []
        mul = FieldElem.__mul__

        def counted(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(FieldElem, "__mul__", counted)
        monkeypatch.setattr(FieldElem, "__rmul__", counted)
        witness_pair_count(spec, 2, "enum")
        trace_fiber_qr_count(FiberCountQuery(spec, spec.elem([2, 1]), 3), "enum")
        gauss_sum(spec)
        assert calls == []


class TestGaussIntegers:
    def test_gauss_square(self):
        assert gauss_square_int(5) == 5
        assert gauss_square_int(7) == -7

    def test_gauss_sum_int_even_powers(self):
        assert gauss_sum_int(5, 2) == -5
        assert gauss_sum_int(3, 2) == 3
        assert gauss_sum_int(3, 4) == -9

    def test_gauss_sum_int_odd_rejected(self):
        with pytest.raises(ValueError):
            gauss_sum_int(5, 3)


class TestPowerSums:
    @pytest.mark.parametrize("p,k,expected", [(5, 2, 0), (5, 4, 4), (3, 0, 2)])
    def test_worked_examples(self, p, k, expected):
        assert power_sum_mod(p, k, "closed") == expected
        assert power_sum_mod(p, k, "direct") == expected

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_closed_equals_direct(self, p):
        for k in range(3 * (p - 1) + 2):
            assert power_sum_mod(p, k, "closed") == power_sum_mod(p, k, "direct")


class TestBinomSums:
    @pytest.mark.parametrize(
        "p,j,k,l,expected",
        [(5, 1, 2, 2, 1), (5, 1, 0, 1, 0), (3, 2, 4, 4, 1)],
    )
    def test_worked_examples(self, p, j, k, l, expected):
        assert binom_product_sum_mod(p, j, k, l, "direct") == expected
        assert binom_product_sum_mod(p, j, k, l, "lucas") == expected

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            binom_product_sum_mod(5, 1, 3, 0)
        with pytest.raises(ValueError):
            binom_product_sum_mod(5, 1, 0, -1)

    @pytest.mark.parametrize("p,j", [(4, 1), (2, 1), (9, 1), (5, 0), (3, -1)])
    def test_bad_prime_or_exponent_rejected(self, p, j):
        for mode in ("direct", "lucas"):
            with pytest.raises(ValueError):
                binom_product_sum_mod(p, j, 0, 0, mode)

    @pytest.mark.parametrize("p,j", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2)])
    def test_lucas_equals_direct_with_claimed_values(self, p, j):
        bound = (p ** j - 1) // 2
        sign = (-1) ** (j * (p - 1) // 2) % p
        for k in range(bound + 1):
            for l in range(bound + 1):
                direct = binom_product_sum_mod(p, j, k, l, "direct")
                assert direct == binom_product_sum_mod(p, j, k, l, "lucas")
                if k + l < p ** j - 1:
                    assert direct == 0
                if k == l == bound:
                    assert direct == sign
