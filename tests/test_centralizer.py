import random

import pytest

from fsz_lab import centralizer as cz
from fsz_lab.fsz import make_target
from fsz_lab.matrices import MatFq, is_symplectic


@pytest.fixture(scope="module")
def target():
    return make_target(5, 5, 1, 1)


class TestMembership:
    def test_g_commutes_with_itself(self, target):
        assert cz.is_in_centralizer(target.g.to_matrix(), target, "both")

    def test_minus_identity_is_central(self, target):
        M = -MatFq.identity(target.spec, 6)
        assert cz.is_in_centralizer(M, target, "both")

    def test_section_elements_are_members(self, target):
        rng = random.Random(2)
        for _ in range(10):
            S = cz.random_symplectic(target.spec, 4, rng)
            t = cz.pi_section(S, 1, target)
            assert cz.is_in_centralizer(t.mat, target, "both")

    def test_non_symplectic_rejected(self, target):
        M = MatFq.from_ints(target.spec, [[1] * 6] * 6)
        with pytest.raises(ValueError):
            cz.is_in_centralizer(M, target)

    def test_predicates_agree_on_random_symplectic(self, target):
        rng = random.Random(3)
        seen_outside = 0
        for _ in range(60):
            M = cz.random_symplectic(target.spec, 6, rng)
            a = cz.is_in_centralizer(M, target, "commute")
            b = cz.is_in_centralizer(M, target, "pattern")
            assert a == b
            seen_outside += not a
        assert seen_outside > 0  # the sample must actually exercise both sides


class TestProjection:
    def test_pi_of_g_is_identity_with_plus_one(self, target):
        image, lam = cz.pi(target.g.to_matrix(), target)
        assert image == MatFq.identity(target.spec, 4)
        assert lam == 1

    def test_pi_of_minus_identity(self, target):
        image, lam = cz.pi(-MatFq.identity(target.spec, 6), target)
        assert image == -MatFq.identity(target.spec, 4)
        assert lam == -1

    def test_homomorphism_on_random_pairs(self, target):
        rng = random.Random(5)
        for _ in range(50):
            a = cz.random_centralizer_elem(target, rng)
            b = cz.random_centralizer_elem(target, rng)
            sa, la = cz.pi(a, target)
            sb, lb = cz.pi(b, target)
            sab, lab = cz.pi(a * b, target)
            assert sab == sa @ sb
            assert lab == la * lb

    def test_image_is_symplectic_of_right_dimension(self, target):
        rng = random.Random(7)
        for _ in range(20):
            image, _ = cz.pi(cz.random_centralizer_elem(target, rng), target)
            assert image.nrows == 4
            assert is_symplectic(image)


class TestSection:
    def test_right_inverse(self, target):
        rng = random.Random(11)
        for _ in range(30):
            S = cz.random_symplectic(target.spec, 4, rng)
            lam = 1 if rng.randrange(2) == 0 else -1
            image, lam_img = cz.pi(cz.pi_section(S, lam, target), target)
            assert image == S
            assert lam_img == lam

    def test_section_commutes_with_g(self, target):
        rng = random.Random(13)
        g = target.g.to_matrix()
        t = cz.pi_section(cz.random_symplectic(target.spec, 4, rng), -1, target)
        assert t.mat @ g == g @ t.mat

    def test_identity_section(self, target):
        t = cz.pi_section(MatFq.identity(target.spec, 4), 1, target)
        assert t.mat == MatFq.identity(target.spec, 6)

    def test_non_symplectic_input_rejected(self, target):
        bad = MatFq.from_ints(target.spec, [[1, 1, 0, 0]] * 4)
        with pytest.raises(ValueError):
            cz.pi_section(bad, 1, target)


class TestKernel:
    def test_g_is_a_kernel_element(self, target):
        spec = target.spec
        K = cz.kernel_element(
            target, [spec.zero, spec.zero], [spec.zero, spec.zero], spec.elem(1)
        )
        assert K.mat == target.g.to_matrix()
        image, lam = cz.pi(K, target)
        assert image == MatFq.identity(spec, 4) and lam == 1

    def test_identity_kernel_element(self, target):
        spec = target.spec
        K = cz.kernel_element(target, [spec.zero] * 2, [spec.zero] * 2, spec.zero)
        assert K.mat == MatFq.identity(spec, 6)
        assert cz.kernel_order_check(K)

    def test_random_kernels_have_order_dividing_p(self, target):
        rng = random.Random(17)
        I = MatFq.identity(target.spec, 6)
        for _ in range(50):
            K = cz.random_kernel_element(target, rng)
            assert cz.kernel_order_check(K)
            assert K.mat.pow(5) == I

    def test_closed_power_form(self, target):
        rng = random.Random(19)
        K = cz.random_kernel_element(target, rng)
        acc = K.mat
        for s in range(2, 6):
            acc = acc @ K.mat
            assert acc == cz.kernel_power_closed(K, s)


class TestRandomness:
    def test_deterministic_under_seed(self, target):
        a = cz.random_centralizer_elem(target, random.Random(23))
        b = cz.random_centralizer_elem(target, random.Random(23))
        assert a.mat == b.mat

    def test_products_stay_in_centralizer(self, target):
        rng = random.Random(29)
        a = cz.random_centralizer_elem(target, rng)
        b = cz.random_centralizer_elem(target, rng)
        assert cz.is_in_centralizer((a * b).mat, target, "both")

    def test_transvections_are_symplectic(self, target):
        rng = random.Random(31)
        spec = target.spec
        for dim in (4, 6):
            for _ in range(20):
                v = [spec.random(rng) for _ in range(dim)]
                if all(x.is_zero() for x in v):
                    v[0] = spec.one
                T = cz.transvection(spec, v, spec.random(rng))
                assert is_symplectic(T)


class TestPropertySuites:
    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples_rejected(self, target, samples):
        with pytest.raises(ValueError):
            cz.property_suites(target, random.Random(37), samples)
