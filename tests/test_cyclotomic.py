import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fsz_lab import cyclotomic
from fsz_lab.cyclotomic import (
    CycNum,
    e_q,
    gauss_sum,
    gauss_sum_via_prime,
)
from fsz_lab.fields import FieldSpec, field
from fsz_lab.fsz import beta_linear_batch, make_target
from fsz_lab.residues import gauss_square_int


def cycnums(p=5, bound=9):
    """Integer coefficients, zero often, so the sparse convolution skips slots."""
    coeff = st.one_of(st.just(0), st.integers(min_value=-bound, max_value=bound))
    return st.lists(coeff, min_size=p - 1, max_size=p - 1).map(lambda cs: CycNum(p, cs))


def complex_approx(x: CycNum) -> complex:
    """Floating evaluation at zeta = exp(2*pi*i/p): a cross-check, never an oracle."""
    z = cmath.exp(2j * math.pi / x.p)
    return sum(c * z ** i for i, c in enumerate(x.coeffs))


def schoolbook_mul(a, b):
    """The Fraction convolution over {zeta^0..zeta^(p-1)}, folded by 1 + ... + zeta^(p-1) = 0."""
    return ref_mul(a.p, a.coeffs, b.coeffs)


@st.composite
def cycnum_pairs(draw):
    p = draw(st.sampled_from([3, 5, 7, 13]))
    return draw(cycnums(p, 10 ** 6)), draw(cycnums(p, 10 ** 6))


class TestRing:
    def test_zeta_times_conjugate_power(self):
        for p in (3, 5, 7):
            z = CycNum.zeta(p)
            assert z * CycNum.zeta(p, p - 1) == CycNum.one(p)

    def test_geometric_sum_vanishes(self):
        for p in (3, 5, 11):
            total = CycNum.zero(p)
            for i in range(p):
                total = total + CycNum.zeta(p, i)
            assert total == CycNum.zero(p)

    def test_conj_of_zeta_in_power_basis(self):
        # zeta^4 rewritten over {1, z, z^2, z^3} for p = 5
        assert CycNum.zeta(5).conj() == CycNum(5, [-1, -1, -1, -1])

    def test_mixed_p_rejected(self):
        with pytest.raises(ValueError):
            CycNum.zeta(5) + CycNum.zeta(7)

    def test_galois_requires_unit(self):
        with pytest.raises(ValueError):
            CycNum.zeta(5).galois(10)

    @pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(3), 0.5, 1.0, True, "1"],
                             ids=["half", "fraction-3", "float", "float-1", "bool", "str"])
    def test_non_int_coefficients_rejected(self, c):
        with pytest.raises(ValueError):
            CycNum(5, [c, 0, 0, 0])

    @pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(2), 2.0, True],
                             ids=["half", "fraction-2", "float", "bool"])
    def test_only_int_scalars(self, c):
        x = CycNum.zeta(5)
        for op in (lambda: x * c, lambda: c * x, lambda: x + c, lambda: c - x):
            with pytest.raises(TypeError):
                op()

    @given(cycnums(), cycnums(), cycnums())
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)

    @given(cycnums())
    def test_galois_group_action(self, a):
        assert a.galois(2).galois(3) == a.galois(6 % 5)
        assert a.galois(1) == a


class TestMultiply:
    @given(cycnum_pairs())
    def test_product_matches_schoolbook(self, pair):
        a, b = pair
        assert (a * b).coeffs == schoolbook_mul(a, b)

    @given(cycnums(7), st.integers(min_value=-10 ** 6, max_value=10 ** 6))
    def test_scalar_product_matches_schoolbook(self, a, c):
        assert (a * c).coeffs == (c * a).coeffs == schoolbook_mul(a, CycNum.rational(7, c))

    @given(cycnums(5))
    def test_power_matches_repeated_product(self, x):
        expected = CycNum.one(5)
        for e in range(10):
            assert x ** e == expected
            expected = CycNum(5, [int(c) for c in schoolbook_mul(expected, x)])

    @pytest.mark.parametrize("e", [0, 1, 2, 5])
    def test_power_of_a_gauss_sum_matches_repeated_product(self, e):
        g = gauss_sum(field(397))
        expected = CycNum.one(397)
        for _ in range(e):
            expected = expected * g
        assert g ** e == expected

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            CycNum.zeta(5) ** -1

    @pytest.mark.parametrize("e", range(1, 18))
    def test_power_squares_only_up_to_the_top_bit(self, monkeypatch, e):
        counts = {"square": 0, "multiply": 0}
        mul = CycNum.__mul__

        def counting_mul(a, b):
            counts["square" if a is b else "multiply"] += 1
            return mul(a, b)

        monkeypatch.setattr(CycNum, "__mul__", counting_mul)
        CycNum(7, [1, 2, 0, -1, 0, 3]) ** e
        # the walk starts at x itself, not at one
        assert counts == {"square": e.bit_length() - 1, "multiply": bin(e).count("1") - 1}


class TestRationality:
    def test_full_sum_is_zero(self):
        x = CycNum(5, [1, 1, 1, 1]) + CycNum.zeta(5, 4)
        assert x.is_rational() == (True, 0)

    def test_zeta_not_rational(self):
        assert CycNum.zeta(5).is_rational()[0] is False

    def test_partial_sum_not_rational(self):
        x = CycNum.one(5) + CycNum.zeta(5, 1) + CycNum.zeta(5, 4)
        assert x.is_rational()[0] is False

    @given(cycnums())
    def test_rational_iff_galois_fixed(self, a):
        fixed = all(a.galois(k) == a for k in range(1, 5))
        assert a.is_rational()[0] == fixed


class TestNorm:
    def test_norm_of_roots_of_unity(self):
        for k in range(5):
            assert CycNum.zeta(5, k).norm_sq() == CycNum.one(5)

    def test_norm_of_zero(self):
        assert CycNum.zero(5).norm_sq() == CycNum.zero(5)

    def test_norm_of_golden_sum(self):
        # (1 + z + z^4)(1 + z^4 + z) expanded exactly in the power basis
        x = CycNum.one(5) + CycNum.zeta(5) + CycNum.zeta(5, 4)
        expected = CycNum(5, [1, 0, -1, -1])
        assert x.norm_sq() == expected
        # diagnostic floating cross-check, never the oracle
        approx = complex_approx(x.norm_sq())
        assert abs(approx - abs(complex_approx(x)) ** 2) < 1e-9

    @given(cycnums())
    def test_norm_fixed_by_conjugation(self, a):
        n = a.norm_sq()
        assert n.conj() == n


class TestCharacters:
    def test_e_q_at_zero(self):
        assert e_q(field(5).zero) == CycNum.one(5)

    def test_e_q_prime_field(self):
        assert e_q(field(5).elem(2)) == CycNum.zeta(5, 2)

    def test_e_q_trace_zero_element(self):
        assert e_q(field(3, 2).elem([0, 1])) == CycNum.one(3)

    def test_e_q_additive_to_multiplicative(self):
        spec = field(5, 2)
        for i in (1, 7, 12):
            for j in (3, 9, 20):
                x, y = spec.from_index(i), spec.from_index(j)
                assert e_q(x + y) == e_q(x) * e_q(y)


class TestGaussSums:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_square_identity(self, p):
        g = gauss_sum(field(p))
        assert g * g == CycNum.rational(p, gauss_square_int(p))

    def test_g25_is_minus_five(self):
        assert gauss_sum(field(5, 2)) == CycNum.rational(5, -5)

    @pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2), (7, 2), (3, 4)])
    def test_power_identity(self, p, n):
        assert gauss_sum(field(p, n)) == gauss_sum_via_prime(p, n)

    def test_power_identity_is_computed_once_per_field(self, monkeypatch):
        calls = []

        def counting(spec):
            calls.append(spec)
            return gauss_sum(spec)

        monkeypatch.setattr(cyclotomic, "gauss_sum", counting)
        gauss_sum_via_prime.cache_clear()
        zparams = [x for x in field(5).elements() if not x.is_zero()]
        for d in (1, 2):
            beta_linear_batch(zparams, make_target(5, 5, 1, d))
        assert calls == [field(5)]

    @pytest.mark.parametrize("p,n", [(7, 1), (3, 3), (5, 2), (3, 4)])
    def test_sum_matches_the_per_element_reference(self, p, n):
        # Euler's criterion and Frobenius traces: no mask, trace list or tables
        spec = FieldSpec(p, n)
        expected = CycNum.zero(p)
        for x in spec.elements():
            if not x.is_zero():
                expected = expected + e_q(x) * x.legendre()
        assert spec._tables is None
        assert gauss_sum(spec) == expected
        assert spec._tables is None

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_twisted_sum_evaluation(self, p):
        # sum of legendre(a) zeta^(-a y) = legendre(-1) legendre(y) G(p)
        spec = field(p)
        g = gauss_sum(spec)
        s_minus = 1 if p % 4 == 1 else -1
        for y in range(1, p):
            total = CycNum.zero(p)
            for a in range(1, p):
                total = total + CycNum.zeta(p, (-a * y) % p) * spec.elem(a).legendre()
            assert total == g * (s_minus * spec.elem(y).legendre())

    def test_float_diagnostic(self):
        g = gauss_sum(field(5))
        assert abs(complex_approx(g) - cmath.sqrt(5)) < 1e-9
        g = gauss_sum(field(7))
        assert abs(complex_approx(g) - 1j * math.sqrt(7)) < 1e-9


def ref_canonical(p, full):
    return tuple(c - full[p - 1] for c in full[: p - 1])


def ref_mul(p, a, b):
    """The Fraction convolution on coefficient tuples, folded into the power basis."""
    full = [Fraction(0)] * p
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            full[(i + j) % p] += x * y
    return ref_canonical(p, full)


def ref_galois(p, a, k):
    full = [Fraction(0)] * p
    for i, x in enumerate(a):
        full[(i * k) % p] += x
    return ref_canonical(p, full)


def ref_pow(p, a, e):
    out = (Fraction(1),) + (Fraction(0),) * (p - 2)
    for _ in range(e):
        out = ref_mul(p, out, a)
    return out


class TestIntegerNumerators:
    """The integer-coefficient CycNum against Fraction arithmetic on coefficient tuples."""

    @given(cycnum_pairs())
    def test_ring_operations_match_fraction_reference(self, pair):
        a, b = pair
        p, ca, cb = a.p, a.coeffs, b.coeffs
        assert (a * b).coeffs == ref_mul(p, ca, cb)
        assert (a + b).coeffs == tuple(x + y for x, y in zip(ca, cb))
        assert (a - b).coeffs == tuple(x - y for x, y in zip(ca, cb))
        assert (-a).coeffs == tuple(-x for x in ca)

    @given(cycnums(7, 10 ** 6), st.integers(min_value=-10 ** 6, max_value=10 ** 6))
    def test_scalar_operations_match_fraction_reference(self, a, c):
        scalar = (Fraction(c),) + (Fraction(0),) * 5
        assert (a * c).coeffs == (c * a).coeffs == tuple(x * c for x in a.coeffs)
        assert (a + c).coeffs == (c + a).coeffs == tuple(x + y for x, y in zip(a.coeffs, scalar))
        assert (c - a).coeffs == tuple(y - x for x, y in zip(a.coeffs, scalar))

    @given(cycnums(5, 10 ** 6), st.integers(min_value=0, max_value=6))
    def test_power_matches_fraction_reference(self, a, e):
        assert (a ** e).coeffs == ref_pow(5, a.coeffs, e)

    @given(cycnum_pairs(), st.integers(min_value=1, max_value=12))
    def test_galois_and_norm_match_fraction_reference(self, pair, k):
        a, _ = pair
        p = a.p
        if k % p == 0:
            k += 1
        assert a.galois(k).coeffs == ref_galois(p, a.coeffs, k)
        assert a.norm_sq().coeffs == ref_mul(p, a.coeffs, ref_galois(p, a.coeffs, p - 1))

    @given(cycnums(7, 10 ** 6))
    def test_json_is_per_coefficient_reduced_pairs(self, a):
        # the [numerator, denominator] pairs of the CLI output, denominator 1
        assert a.to_json() == {"p": 7, "coeffs": [[c, 1] for c in a.coeffs]}
        assert all(type(c) is int for c in a.coeffs)

    @given(cycnum_pairs(), st.integers(min_value=1, max_value=9))
    def test_equal_values_compare_and_hash_equal(self, pair, c):
        a, b = pair
        for x, y in [((a + b) - b, a), (a * c - a, a * (c - 1)), (a * b, b * a)]:
            assert x == y and hash(x) == hash(y)
            assert x.coeffs == y.coeffs


def test_json_roundtrip():
    x = CycNum(5, [1, 0, -3, 7])
    doc = x.to_json()
    assert doc["p"] == 5
    assert doc["coeffs"] == [[1, 1], [0, 1], [-3, 1], [7, 1]]
