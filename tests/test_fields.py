from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsz_lab.fields import (
    FieldSpec,
    canonical_modulus,
    field,
    field_for_order,
    poly_is_irreducible,
    qr_set,
    trace_z,
)


def elems(p, n=1):
    spec = field(p, n)
    return st.integers(min_value=0, max_value=spec.q - 1).map(spec.from_index)


class TestConstruction:
    def test_prime_field_modulus_is_x(self):
        assert field(5, 1).modulus == (0, 1)

    def test_canonical_modulus_3_2(self):
        # least monic irreducible under the coefficient-tuple order
        assert canonical_modulus(3, 2) == (1, 0, 1)

    def test_even_p_rejected(self):
        with pytest.raises(ValueError):
            FieldSpec(2, 1)

    def test_composite_p_rejected(self):
        with pytest.raises(ValueError):
            FieldSpec(9, 1)

    def test_bad_degree_rejected(self):
        with pytest.raises(ValueError):
            FieldSpec(5, 0)

    def test_field_for_order(self):
        assert field_for_order(125) is field(5, 3)
        with pytest.raises(ValueError):
            field_for_order(12)

    def test_element_serialization_roundtrip(self):
        spec = field(3, 2)
        x = spec.elem([2, 1])
        assert str(x) == "[2,1] mod (3,2)"
        assert spec.parse(str(x)) == x

    def test_spec_json(self):
        assert field(3, 2).to_json() == {"p": 3, "n": 2, "modulus": [1, 0, 1]}


# canonical_modulus(p, n) for every extension field the tests, the CLI
# examples and the benchmark's residue census (q <= 2000) build, plus (3, 7)
# through (3, 11).  Recorded from the Rabin-test implementation; any other
# irreducibility test must pick the same polynomials.
PINNED_MODULI = {
    (3, 2): (1, 0, 1),
    (3, 3): (1, 0, 2, 1),
    (3, 4): (1, 0, 1, 1, 1),
    (3, 5): (1, 0, 0, 0, 2, 1),
    (3, 6): (1, 0, 0, 0, 1, 1, 1),
    (3, 7): (1, 0, 0, 0, 0, 1, 2, 1),
    (3, 8): (1, 0, 0, 0, 0, 1, 1, 0, 1),
    (3, 9): (1, 0, 0, 0, 0, 0, 2, 1, 0, 1),
    (3, 10): (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1),
    (3, 11): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 1),
    (5, 2): (1, 1, 1),
    (5, 3): (1, 0, 1, 1),
    (5, 4): (1, 0, 1, 1, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (1, 0, 1, 1),
    (11, 2): (1, 0, 1),
    (11, 3): (1, 0, 4, 1),
    (13, 2): (1, 3, 1),
    (17, 2): (1, 1, 1),
    (19, 2): (1, 0, 1),
    (23, 2): (1, 0, 1),
    (29, 2): (1, 1, 1),
    (31, 2): (1, 0, 1),
    (37, 2): (1, 3, 1),
    (41, 2): (1, 1, 1),
    (43, 2): (1, 0, 1),
}


def _has_factor_by_division(f, p):
    """Trial division by every monic polynomial of degree 1..deg(f)/2."""
    n = len(f) - 1
    for d in range(1, n // 2 + 1):
        for low in product(range(p), repeat=d):
            g = list(low) + [1]
            r = list(f)
            for top in range(n, d - 1, -1):
                c = r[top]
                for k in range(d + 1):
                    r[top - d + k] = (r[top - d + k] - c * g[k]) % p
            if not any(r[:d]):
                return True
    return False


class TestIrreducibility:
    @pytest.mark.parametrize("p,n", sorted(PINNED_MODULI))
    def test_pinned_moduli(self, p, n):
        assert canonical_modulus(p, n) == PINNED_MODULI[(p, n)]

    @pytest.mark.parametrize("p", [3, 5])
    def test_agrees_with_trial_division(self, p):
        for n in range(1, 5):
            irreducible = 0
            for low in product(range(p), repeat=n):
                f = list(low) + [1]
                expected = not _has_factor_by_division(f, p)
                assert poly_is_irreducible(f, p) is expected, f
                irreducible += expected
            # Gauss's count of monic irreducibles of degree n over GF(p)
            mobius = {1: 1, 2: -1, 3: -1, 4: 0}
            assert irreducible == sum(mobius[n // d] * p ** d for d in range(1, n + 1)
                                      if n % d == 0) // n

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            poly_is_irreducible([1, 2], 3)


class TestArithmetic:
    def test_add_f5(self):
        f5 = field(5)
        assert f5.elem(2) + f5.elem(4) == f5.elem(1)

    def test_inv_f5(self):
        f5 = field(5)
        assert f5.elem(2).inv() == f5.elem(3)

    def test_mul_reduction_f9(self):
        f9 = field(3, 2)
        x = f9.elem([0, 1])
        assert x * x == f9.elem(2)

    def test_zero_inverse_rejected(self):
        with pytest.raises(ZeroDivisionError):
            field(5).zero.inv()

    def test_mixed_fields_rejected(self):
        with pytest.raises(ValueError):
            field(5).one + field(7).one

    def test_pow_large_exponent(self):
        f25 = field(5, 2)
        x = f25.elem([2, 3])
        assert x ** (f25.q - 1) == f25.one
        assert x ** f25.q == x

    @given(elems(7), elems(7))
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(elems(3, 2), elems(3, 2), elems(3, 2))
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(elems(5, 2))
    def test_inverse_law(self, a):
        if not a.is_zero():
            assert a * a.inv() == a.spec.one


class TestTrace:
    @pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (5, 3), (7, 2)])
    def test_trace_of_one(self, p, n):
        assert field(p, n).one.trace() == n % p

    def test_trace_of_x_in_f9(self):
        assert field(3, 2).elem([0, 1]).trace() == 0

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3)])
    def test_fiber_sizes(self, p, n):
        spec = field(p, n)
        for y in range(p):
            fiber = [x for x in spec.elements() if x.trace() == y]
            assert len(fiber) == p ** (n - 1)

    def test_trace_z_surjective_fibers(self):
        spec = field(3, 2)
        z = spec.elem([1, 2])
        sizes = {}
        for x in spec.elements():
            sizes[trace_z(z, x)] = sizes.get(trace_z(z, x), 0) + 1
        assert sizes == {0: 3, 1: 3, 2: 3}

    def test_trace_z_zero_map(self):
        spec = field(5, 2)
        assert all(trace_z(spec.zero, x) == 0 for x in spec.elements())

    @given(elems(5, 2), elems(5, 2))
    def test_trace_additive(self, a, b):
        assert (a + b).trace() == (a.trace() + b.trace()) % 5

    @given(elems(3, 3))
    def test_frobenius_is_additive_and_fixes_subfield(self, a):
        spec = a.spec
        assert (a + spec.one).frobenius() == a.frobenius() + spec.one
        for c in range(3):
            assert spec.elem(c).frobenius() == spec.elem(c)

    def test_frobenius_fixes_exactly_prime_subfield(self):
        spec = field(3, 2)
        fixed = [x for x in spec.elements() if x.frobenius() == x]
        assert sorted(x.index() for x in fixed) == [0, 1, 2]


class TestLegendre:
    def test_legendre_zero(self):
        assert field(5).zero.legendre() == 0

    def test_legendre_examples(self):
        assert field(5).elem(4).legendre() == 1
        assert field(7).elem(3).legendre() == -1

    @given(elems(11), elems(11))
    def test_multiplicative(self, a, b):
        assert (a * b).legendre() == a.legendre() * b.legendre()

    @given(elems(5, 2), elems(5, 2))
    def test_multiplicative_extension(self, a, b):
        assert (a * b).legendre() == a.legendre() * b.legendre()


class TestResidueSets:
    @pytest.mark.parametrize(
        "q,expected",
        [(5, {0, 1, 4}), (7, {0, 1, 2, 4}), (11, {0, 1, 3, 4, 5, 9})],
    )
    def test_worked_sets(self, q, expected):
        spec = field(q)
        assert {x.coeffs[0] for x in qr_set(spec)} == expected

    @pytest.mark.parametrize("p,n", [(3, 3), (5, 2), (7, 1), (11, 1), (13, 1)])
    def test_size(self, p, n):
        spec = field(p, n)
        assert len(spec.qr_set()) == (spec.q + 1) // 2

    def test_closure_under_product(self):
        spec = field(5, 2)
        qr = spec.qr_set()
        for x in qr:
            for y in qr:
                assert x * y in qr
        non = [x for x in spec.elements() if x not in qr]
        for x in qr:
            if x.is_zero():
                continue
            for y in non:
                assert x * y not in qr

    @pytest.mark.parametrize(
        "p,n,expected",
        [(5, 1, True), (3, 1, False), (3, 2, True), (7, 1, False), (7, 2, True), (13, 1, True)],
    )
    def test_minus_one_rule(self, p, n, expected):
        assert field(p, n).minus_one_is_qr() is expected


class TestTables:
    def test_tables_consistent_with_direct_ops(self):
        spec = field(3, 2)
        spec.tables()
        for i in range(spec.q):
            x = spec.from_index(i)
            assert spec.trace_idx(i) == x.trace()
            assert spec.legendre_idx(i) == x.legendre()
            for j in range(spec.q):
                y = spec.from_index(j)
                assert spec.mul_idx(i, j) == (x * y).index()

    def test_table_bound(self):
        spec = FieldSpec(3, 11)  # q = 177147 > 2^16
        with pytest.raises(ValueError):
            spec.tables()


@settings(max_examples=30)
@given(elems(5, 3), elems(5, 3))
def test_index_roundtrip_and_ordering(a, b):
    spec = a.spec
    assert spec.from_index(a.index()) == a
    if a.index() != b.index():
        assert a != b
