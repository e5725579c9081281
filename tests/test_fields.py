import random
from itertools import product
from operator import matmul, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsz_lab import fields
from fsz_lab.cyclotomic import CycNum
from fsz_lab.fields import (
    FieldElem,
    FieldSpec,
    _pmulmod,
    _ppowmod,
    canonical_modulus,
    field,
    field_for_order,
    is_prime,
    poly_is_irreducible,
    power,
)
from fsz_lab.matrices import UniTriMat
from helpers import unitri_from_ints


def elems(p, n=1):
    spec = field(p, n)
    return st.integers(min_value=0, max_value=spec.q - 1).map(spec.from_index)


def trace_z(z, x) -> int:
    """tr(z*x); the zero map for z = 0, one of the q - 1 surjections otherwise."""
    return (z * x).trace()


class Ref:
    """GF(p^n) on coefficient lists c_0..c_{n-1}: sums digit by digit mod p,
    products by fields._pmulmod and powers by fields._ppowmod, so no int code
    is formed.  The oracle of the code arithmetic that FieldElem runs on."""

    def __init__(self, spec: FieldSpec):
        self.p, self.n, self.q, self.modulus = spec.p, spec.n, spec.q, spec.modulus

    def _pad(self, a: list[int]) -> list[int]:
        return a + [0] * (self.n - len(a))

    def add(self, a, b):
        return [(x + y) % self.p for x, y in zip(a, b)]

    def sub(self, a, b):
        return [(x - y) % self.p for x, y in zip(a, b)]

    def mul(self, a, b):
        return self._pad(_pmulmod(list(a), list(b), self.modulus, self.p))

    def pow(self, a, e):
        return self._pad(_ppowmod(list(a), e, self.modulus, self.p))

    def inv(self, a):
        return self.pow(a, self.q - 2)

    def trace(self, a) -> int:
        acc = frob = list(a)
        for _ in range(self.n - 1):
            frob = self.pow(frob, self.p)
            acc = self.add(acc, frob)
        assert not any(acc[1:])
        return acc[0]

    def legendre(self, a) -> int:
        if not any(a):
            return 0
        return 1 if self.pow(a, (self.q - 1) // 2) == self._pad([1]) else -1

    def index(self, a) -> int:
        return sum(c * self.p ** k for k, c in enumerate(a))


REF_FIELDS = [(5, 1), (13, 1), (3, 2), (3, 4), (5, 2), (5, 3), (13, 2)]


def check_against_ref(spec: FieldSpec, a: list[int], b: list[int], e: int) -> None:
    ref = Ref(spec)
    x, y = spec.elem(a), spec.elem(b)
    assert list(x.coeffs) == a
    assert list((x + y).coeffs) == ref.add(a, b)
    assert list((x - y).coeffs) == ref.sub(a, b)
    assert list((-x).coeffs) == ref.sub([0] * spec.n, a)
    assert list((x * y).coeffs) == ref.mul(a, b)
    assert list((x ** e).coeffs) == ref.pow(a, e)
    assert x.trace() == ref.trace(a)
    assert x.legendre() == ref.legendre(a)
    assert x.index() == ref.index(a)
    if any(a):
        assert list(x.inv().coeffs) == ref.inv(a)


@st.composite
def ref_cases(draw):
    """(spec, a, b, e) over REF_FIELDS; every coefficient is p - 1 half the time."""
    spec = field(*draw(st.sampled_from(REF_FIELDS)))
    digit = st.one_of(st.just(spec.p - 1), st.integers(0, spec.p - 1))
    a, b = (draw(st.lists(digit, min_size=spec.n, max_size=spec.n)) for _ in range(2))
    return spec, a, b, draw(st.integers(0, 3 * spec.q))


class TestAgainstCoefficientLists:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ref_cases())
    def test_element_arithmetic(self, case):
        check_against_ref(*case)

    @pytest.mark.parametrize("p,n", REF_FIELDS)
    def test_all_top_coefficients(self, p, n):
        spec = field(p, n)
        top = [p - 1] * n
        check_against_ref(spec, top, top, spec.q - 2)
        check_against_ref(FieldSpec(p, n), top, [1] + [0] * (n - 1), spec.q)  # no tables


class TestConstruction:
    def test_prime_field_modulus_is_x(self):
        assert field(5, 1).modulus == (0, 1)

    def test_canonical_modulus_3_2(self):
        # least monic irreducible under the coefficient-tuple order
        assert canonical_modulus(3, 2) == (1, 0, 1)

    @pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (7, 2)])
    def test_units_are_the_nonzero_elements_in_index_order(self, p, n):
        spec = field(p, n)
        assert list(spec.units()) == [x for x in spec.elements() if not x.is_zero()]

    def test_even_p_rejected(self):
        with pytest.raises(ValueError):
            FieldSpec(2, 1)

    def test_composite_p_rejected(self):
        with pytest.raises(ValueError):
            FieldSpec(9, 1)

    def test_prime_test_is_exact_below_its_bound_and_refuses_from_it(self):
        assert is_prime(2 ** 64 - 59)  # the largest 64-bit prime
        assert not is_prime(3215031751)  # strong pseudoprime to the bases 2, 3, 5, 7
        # the bound is composite, yet a strong pseudoprime to every base 2..37
        bound = 318665857834031151167461
        assert bound == 399165290221 * 798330580441
        assert is_prime(399165290221) and is_prime(798330580441)
        for m in (bound, bound + 2, 2 ** 100):
            with pytest.raises(ValueError):
                is_prime(m)
        with pytest.raises(ValueError):
            FieldSpec(bound)

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
# irreducibility test must pick the same polynomials.  (3, 16) was recorded
# from the walk over every candidate, c_0 = 0 included, which took about 22 s.
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
    (3, 16): (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1),
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

    @pytest.mark.parametrize("p,n", [(3, 2), (3, 5), (5, 3), (7, 2)])
    def test_no_candidate_divisible_by_x_is_tested(self, p, n, monkeypatch):
        tested = []

        def recording(f, prime):
            tested.append(tuple(f))
            return poly_is_irreducible(f, prime)

        monkeypatch.setattr(fields, "poly_is_irreducible", recording)
        assert canonical_modulus(p, n) == PINNED_MODULI[(p, n)]
        assert tested and all(f[0] != 0 for f in tested)
        assert tested[0] == (1,) + (0,) * (n - 1) + (1,)


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


def folded(x, e, mul, one):
    """x^e as e products, each by x."""
    acc = one
    for _ in range(e):
        acc = mul(acc, x)
    return acc


def mats(p=7, m=3):
    spec = field(p)
    size = m * (m - 1) // 2
    return st.lists(st.integers(0, p - 1), min_size=size, max_size=size).map(
        lambda v: unitri_from_ints(spec, m, v))


def cycnums(p=5):
    return st.lists(st.integers(-3, 3), min_size=p - 1, max_size=p - 1).map(lambda c: CycNum(p, c))


class TestPower:
    @settings(max_examples=60, deadline=None)
    @given(x=st.one_of(elems(5), elems(3, 2), cycnums(), mats()), e=st.integers(0, 40))
    def test_power_is_the_folded_product(self, x, e):
        if isinstance(x, UniTriMat):
            prod, one, direct = matmul, UniTriMat.identity(x.spec, 3), x.pow(e)
        else:
            prod, direct = mul, x ** e
            one = x.spec.one if isinstance(x, FieldElem) else CycNum.one(x.p)
        calls = []

        def counted(a, b):
            calls.append(1)
            return prod(a, b)

        expected = folded(x, e, prod, one)
        assert power(x, e, counted, one) == expected == direct
        # one squaring per bit after the leading one, one product per set bit among them
        assert len(calls) == (e.bit_length() + bin(e).count("1") - 2 if e else 0)

    @given(x=elems(3, 2), e=st.integers(1, 40))
    def test_field_negative_power_goes_through_the_inverse(self, x, e):
        if x.is_zero():
            with pytest.raises(ZeroDivisionError):
                x ** -e
        else:
            assert x ** -e == x.inv() ** e and x ** -e * x ** e == x.spec.one

    @settings(max_examples=30, deadline=None)
    @given(M=mats(), e=st.integers(1, 40))
    def test_matrix_negative_power_goes_through_the_inverse(self, M, e):
        assert M.pow(-e) == M.inv().pow(e)
        assert M.pow(-e) @ M.pow(e) == UniTriMat.identity(M.spec, 3)


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

    @pytest.mark.parametrize("p,n", [(5, 3), (3, 4), (7, 1)])
    def test_off_table_symbol_matches_the_square_mask(self, monkeypatch, p, n):
        def unreachable(*args):
            raise AssertionError("FieldElem product taken")

        # Euler's criterion runs on coefficient lists, not FieldElem products
        monkeypatch.setattr(FieldElem, "__mul__", unreachable)
        spec = FieldSpec(p, n)  # fresh: no tables
        # read before the mask exists, which legendre() would read instead
        symbols = [x.legendre() for x in spec.elements()]
        qr = spec.qr_set()
        assert symbols == [0 if x.is_zero() else 1 if x in qr else -1 for x in spec.elements()]
        assert spec._tables is None

    @pytest.mark.parametrize("p,n", [(3, 1), (13, 1), (3, 2), (3, 3), (5, 2), (7, 2)])
    def test_symbol_is_the_same_in_every_state_of_the_field(self, monkeypatch, p, n):
        spec = FieldSpec(p, n)  # fresh: no tables and no mask
        bare = [x.legendre() for x in spec.elements()]
        assert spec._qr is None and spec._tables is None
        spec.qr_set()

        def unreachable(*args):
            raise AssertionError("Euler's criterion evaluated")

        with monkeypatch.context() as m:  # with the mask built, the symbol is read from it
            m.setattr(fields._Coding, "pow", unreachable)
            masked = [x.legendre() for x in spec.elements()]
        assert spec._tables is None
        spec.tables()
        tabled = [x.legendre() for x in spec.elements()]
        assert bare == masked == tabled
        assert bare.count(1) == bare.count(-1) == (spec.q - 1) // 2

    def test_prime_field_symbol_needs_no_polynomial_power(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("polynomial Euler's criterion evaluated")

        monkeypatch.setattr(fields, "_ppowmod", unreachable)
        spec = FieldSpec(13)
        assert [x.legendre() for x in spec.elements()] == [
            0, 1, -1, 1, 1, -1, -1, -1, -1, 1, 1, -1, 1]
        assert spec._qr is None and spec._tables is None


class TestResidueSets:
    @pytest.mark.parametrize(
        "q,expected",
        [(5, {0, 1, 4}), (7, {0, 1, 2, 4}), (11, {0, 1, 3, 4, 5, 9})],
    )
    def test_worked_sets(self, q, expected):
        spec = field(q)
        assert {x.coeffs[0] for x in spec.qr_set()} == expected

    @pytest.mark.parametrize("p,n", [(3, 3), (5, 2), (7, 1), (11, 1), (13, 1)])
    def test_size(self, p, n):
        spec = field(p, n)
        assert len(spec.qr_set()) == (spec.q + 1) // 2

    def test_matches_definition_for_every_order_up_to_400(self):
        orders = [(p, n) for p in range(3, 401, 2) if is_prime(p)
                  for n in range(1, 7) if p ** n <= 400]
        assert len(orders) == 89
        for p, n in orders:
            spec = FieldSpec(p, n)  # fresh: no cached set, no tables
            assert spec.qr_set() == frozenset(y * y for y in spec.elements()), spec

    @pytest.mark.parametrize("p,n", [(3, 6), (3, 7), (5, 4), (7, 3), (11, 3)])
    def test_stepped_mask_matches_the_generator_walk(self, p, n):
        # the squares are 0 and the exp[k] for even k, walked by powers of a generator
        spec = FieldSpec(p, n)
        mask = spec.qr_set().mask
        assert spec._tables is None
        log = spec.tables()["log"]
        assert list(mask) == [int(i == 0 or log[i] % 2 == 0) for i in range(spec.q)]

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

    def test_size_is_counted_from_the_mask_without_tables(self):
        spec = FieldSpec(65537, 1)
        assert len(spec.qr_set()) == 32769
        assert spec._tables is None

    def test_foreign_elements_and_ints_are_not_members(self):
        qr = FieldSpec(5, 1).qr_set()
        assert field(5).elem(4) in qr  # another spec of the same field
        assert field(7).elem(4) not in qr
        assert field(5, 2).elem(4) not in qr
        assert 4 not in qr and 0 not in qr
        assert "4" not in qr

    @pytest.mark.parametrize("p,n", [(3, 1), (11, 1), (3, 2), (5, 2), (3, 3)])
    def test_iteration_yields_each_square_once_in_index_order(self, p, n):
        spec = FieldSpec(p, n)
        indices = [x.index() for x in spec.qr_set()]
        assert indices == sorted({(y * y).index() for y in spec.elements()})

    @pytest.mark.parametrize(
        "p,n,expected",
        [(5, 1, True), (3, 1, False), (3, 2, True), (7, 1, False), (7, 2, True), (13, 1, True)],
    )
    def test_minus_one_rule(self, p, n, expected):
        assert field(p, n).minus_one_is_qr() is expected


class TestTables:
    def test_tables_consistent_with_direct_ops(self):
        # the oracle is the coefficient-list field: its trace is by Frobenius
        # powers, its Legendre symbol by Euler's criterion and its products
        # by polynomial products mod f; a second spec never builds tables
        for p, n in [(3, 1), (3, 2), (5, 2), (3, 3), (3, 4), (7, 2), (5, 3)]:
            spec, direct = FieldSpec(p, n), FieldSpec(p, n)
            ref = Ref(spec)
            t = spec.tables()
            exp, log = t["exp"], t["log"]
            xs = [list(x.coeffs) for x in direct.elements()]
            for i, x in enumerate(xs):
                assert ref.index(x) == i
                assert t["trace"][i] == ref.trace(x)
                assert (i == 0 or log[i] % 2 == 0) == (ref.legendre(x) >= 0)
                for j, y in enumerate(xs):
                    if i and j:  # a product of nonzero elements adds their logs
                        assert exp[(log[i] + log[j]) % (spec.q - 1)] == ref.index(ref.mul(x, y))
            squares = {t["exp"][k] for k in range(0, spec.q - 1, 2)} | {0}
            assert squares == {x.index() for x in direct.qr_set()}
            assert direct._tables is None

    def test_add_map_matches_element_sum(self):
        for p, n in [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3)]:
            spec = FieldSpec(p, n)
            xs = list(spec.elements())
            for c, z in enumerate(xs):
                assert spec.add_map(c) == [(x + z).index() for x in xs]

    def test_table_build_makes_no_field_element_multiply(self, monkeypatch):
        calls = []
        original = FieldElem.__mul__

        def counting(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(FieldElem, "__mul__", counting)
        monkeypatch.setattr(FieldElem, "__rmul__", counting)
        for p, n in [(3, 1), (7, 1), (3, 2), (5, 2), (3, 4), (7, 3)]:
            FieldSpec(p, n).tables()
        assert calls == []
        field(5, 2).one * field(5, 2).one
        assert calls == [1]

    def test_table_bound(self):
        spec = FieldSpec(3, 11)  # q = 177147 > 2^16
        with pytest.raises(ValueError):
            spec.tables()


@pytest.mark.parametrize("p,n", [(3, 14), (5, 11), (3, 20)])
def test_index_of_a_field_too_large_for_the_product_slots(p, n):
    # q + p exceeds 2^16 n (p-1)^2 here, so q sets the slot width
    spec, rng = FieldSpec(p, n), random.Random(p * n)
    ref = Ref(spec)
    for i in [0, 1, p, spec.q - 1] + [rng.randrange(spec.q) for _ in range(50)]:
        x = spec.from_index(i)
        assert x.index() == ref.index(list(x.coeffs)) == i
        assert spec.elem(list(x.coeffs)) == x


@settings(max_examples=30)
@given(elems(5, 3), elems(5, 3))
def test_index_roundtrip_and_ordering(a, b):
    spec = a.spec
    assert spec.from_index(a.index()) == a
    if a.index() != b.index():
        assert a != b
