import itertools
import random
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsz_lab import fsz
from fsz_lab.cyclotomic import CycNum
from fsz_lab.fields import field, field_for_order
from fsz_lab.matrices import UniTriMat
from fsz_lab.parallel import BudgetExceeded
from fsz_lab.residues import FiberCountQuery, trace_fiber_qr_count
from fsz_lab.fsz import (
    PthPowerTarget,
    _gm_count_fast,
    _superdiagonal_histogram,
    beta_definitional,
    beta_linear,
    beta_linear_batch,
    beta_via_counts,
    brute_characterization_scan,
    center_of,
    characterization_holds,
    count_solutions,
    enumerate_solutions,
    fsz_brute_small,
    fsz_test_at,
    gm_count,
    kappa_character,
    make_target,
    witness_pair_count,
    solve_pth_power,
    sylow_group_elements,
    witness_order_search,
)
from fsz_lab.sylow import (
    SylowElem,
    square_product,
    sylow_count,
    sylow_from_index,
    u_witness,
    xi_lambda,
)


def qr_fiber_balance(spec, zparam) -> bool:
    """Whether squares distribute evenly over the nonzero fibers of tr(z*).

    Balanced fibers are exactly what makes the corner character sum rational,
    and occur precisely over even-degree extensions.
    """
    counts = {
        trace_fiber_qr_count(FiberCountQuery(spec, zparam, y), mode="enum")
        for y in range(1, spec.p)
    }
    return len(counts) == 1


class TestTargets:
    def test_g_for_p5(self):
        t = make_target(5, 5, 1, 1)
        assert t.n == 3 and t.sigma == 1
        g = t.g.to_matrix()
        assert g.rows[2][5].to_json() == 1
        assert sum(1 for r in g.rows for x in r if not x.is_zero()) == 7

    def test_g_power_p_is_identity(self):
        for p, q, j, d in ((5, 5, 1, 1), (5, 5, 1, 3), (3, 3, 1, 2), (3, 9, 1, 1)):
            t = make_target(p, q, j, d)
            assert t.g.pow(p) == SylowElem.identity(t.spec, t.n)

    def test_sigma_for_p_three_mod_four(self):
        t = make_target(7, 7, 1, 2)
        assert t.sigma == -1
        assert t.g.A.rows[t.n - 1][t.n - 1].to_json() == 5  # -2 mod 7

    def test_unit_d_required(self):
        with pytest.raises(ValueError):
            make_target(5, 5, 1, 5)

    def test_q_must_be_power_of_p(self):
        with pytest.raises(ValueError):
            make_target(5, 7, 1, 1)


class TestSolve:
    def test_worked_solution(self):
        t = make_target(5, 5, 1, 1)
        sol = solve_pth_power(t, t.spec.elem(1))
        assert [e.to_json() for e in sol.L.upper] == [1, 0, 1]
        assert sol.A.rows[0][0].to_json() == 1
        assert sol.pow(5) == t.g

    def test_non_residue_corner_rejected(self):
        t = make_target(5, 5, 1, 1)
        with pytest.raises(ValueError):
            solve_pth_power(t, t.spec.elem(2))  # 2 is not a square mod 5

    def test_zero_corner_rejected(self):
        t = make_target(5, 5, 1, 1)
        with pytest.raises(ValueError):
            solve_pth_power(t, t.spec.zero)

    def test_nonresidue_d(self):
        t = make_target(5, 5, 1, 2)
        sol = solve_pth_power(t, t.spec.elem(2))
        assert sol.pow(5) == t.g

    def test_every_admissible_corner_solvable(self):
        # every nonzero residue class matching d admits a solution
        for d in (1, 2, 3, 4):
            t = make_target(5, 5, 1, d)
            spec = t.spec
            want = spec.elem(d).legendre()
            for x in spec.elements():
                if not x.is_zero() and x.legendre() == want:
                    assert solve_pth_power(t, x).pow(5) == t.g

    def test_extension_field_instance(self):
        t = make_target(3, 9, 1, 1)
        x = t.spec.elem([1, 1])
        sol = solve_pth_power(t, x * x)  # any nonzero square works for d = 1
        assert sol.pow(3) == t.g


class TestSolutionCounts:
    def test_worked_count(self):
        assert count_solutions(make_target(5, 5, 1, 1)) == 250_000

    def test_count_independent_of_d(self):
        counts = {count_solutions(make_target(5, 5, 1, d)) for d in (1, 2, 3, 4)}
        assert counts == {250_000}

    def test_materialized_set_on_small_group(self):
        t = make_target(3, 3, 1, 1)
        sols = enumerate_solutions(t, materialize=True)
        assert sols.count == count_solutions(t) == len(sols.elements)
        for x in sols.elements:
            assert x.pow(3) == t.g
        # conversely, nothing outside the set powers to g
        hit = sum(1 for x in sylow_group_elements(t.spec, 2) if x.pow(3) == t.g)
        assert hit == sols.count

    def test_characterization_sample_check(self):
        t = make_target(5, 5, 1, 2)
        enumerate_solutions(t).verify_sample(random.Random(5), k=15)

    @pytest.mark.parametrize("q", [3, 9])
    @pytest.mark.parametrize("d", [1, 2])
    def test_characterization_sample_check_at_j2(self, q, d):
        # p^j = 9: the characterization powered at j = 2, where the group is
        # too large for the brute scan
        t = make_target(3, q, 2, d)
        enumerate_solutions(t).verify_sample(random.Random(q * 10 + d), k=20)

    def test_zero_superdiagonal_never_satisfies(self):
        t = make_target(5, 5, 1, 1)
        spec = t.spec
        x = SylowElem.identity(spec, 3)
        assert not characterization_holds(x, t)


class TestGmCounts:
    def test_identity_u_gives_solution_count(self):
        t = make_target(5, 5, 1, 1)
        u = SylowElem.identity(t.spec, 3)
        assert gm_count(u, 5, 5, 1, [1], mode="fast") == {1: 250_000}

    def test_witness_counts_per_exponent(self):
        u = u_witness(field(5), 3)
        expected = {1: 0, 2: 62_500, 3: 62_500, 4: 0}
        assert gm_count(u, 5, 5, 1, mode="fast") == expected

    def test_fast_equals_brute_exhaustively_on_small_group(self):
        spec = field(3)
        elements = sylow_group_elements(spec, 2)
        targets = {d: make_target(3, 3, 1, d) for d in (1, 2)}
        for u in elements:
            for d, t in targets.items():
                fast = gm_count(u, 3, 3, 1, [d], mode="fast")[d]
                brute = sum(
                    1 for a in elements if a.pow(3) == t.g and (a * u).pow(3) == t.g
                )
                assert fast == brute

    def test_row_defaults_to_every_unit(self):
        u = u_witness(field(5), 3)
        assert list(gm_count(u, 5, 5, 1)) == [1, 2, 3, 4]
        # 7 = 2 mod 5 names the same target as 2
        assert gm_count(u, 5, 5, 1, [2, 7]) == {2: 62_500, 7: 62_500}

    def test_rejects_exponents_divisible_by_p(self):
        u = u_witness(field(3), 2)
        for mode in ("fast", "brute"):
            with pytest.raises(ValueError):
                gm_count(u, 3, 3, 1, [1, 3], mode=mode)

    def test_budget_refusal_on_big_brute(self):
        t = make_target(7, 7, 1, 1)
        with pytest.raises(BudgetExceeded) as info:
            gm_count(u_witness(t.spec, t.n), 7, 7, 1, [1], mode="brute", budget=10_000)
        assert info.value.required == 7 ** 16

    def test_fast_equals_brute_over_extension_field(self):
        # the scan over GF(9) by its regular representation: 9^4 = 6561 elements
        spec = field(3, 2)
        u = u_witness(spec, 2)
        assert gm_count(u, 3, 9, 1, mode="fast") == gm_count(
            u, 3, 9, 1, mode="brute", budget=10_000
        )


class TestFszReport:
    def test_headline_verdict(self):
        report = fsz_test_at(5, 5, 1)
        assert report.verdict == "non-FSZ_5-at-z"
        assert report.witness == "U"
        u_row = next(r for r in report.rows if r.u_name == "U")
        assert u_row.counts == {1: 0, 2: 62_500, 3: 62_500, 4: 0}
        id_row = next(r for r in report.rows if r.u_name == "identity")
        assert set(id_row.counts.values()) == {250_000}

    def test_exhaustive_u_set_agrees_with_definitional_test(self):
        # P(Sp_4(3)) over the full u-set: the count table at g decides the verdict
        spec = field(3)
        elements = sylow_group_elements(spec, 2)
        u_set = [(f"u{i}", u) for i, u in enumerate(elements)]
        report = fsz_test_at(3, 3, 1, u_set=u_set)
        g = make_target(3, 3, 1, 1).g
        brute_ok, _ = fsz_brute_small(
            elements, 3, identity=SylowElem.identity(spec, 2), zs=[g]
        )
        if brute_ok:
            assert report.verdict == "FSZ_3-at-z"
        else:
            assert report.verdict == "non-FSZ_3-at-z"

    def test_inconclusive_without_witness(self):
        spec = field(5)
        u_set = [("identity", SylowElem.identity(spec, 3))]
        report = fsz_test_at(5, 5, 1, u_set=u_set)
        assert report.verdict == "inconclusive-nonexhaustive"

    def test_repeated_u_is_not_exhaustive(self):
        # 81 copies of one element are not the 81-element group
        spec = field(3)
        u_set = [("identity", SylowElem.identity(spec, 2))] * sylow_count(2, 3)
        report = fsz_test_at(3, 3, 1, u_set=u_set)
        assert report.verdict == "inconclusive-nonexhaustive"

    @pytest.mark.parametrize("p,q,j,idx", [(3, 3, 1, 40), (3, 9, 1, 4321)])
    def test_brute_rows_equal_fast_rows(self, p, q, j, idx):
        spec, n = field_for_order(q), (p ** j + 1) // 2
        u_set = [("identity", SylowElem.identity(spec, n)), ("U", u_witness(spec, n)),
                 ("drawn", sylow_from_index(spec, n, idx))]
        fast = fsz_test_at(p, q, j, u_set=u_set)
        brute = fsz_test_at(p, q, j, u_set=u_set, mode="brute")
        assert [r.counts for r in brute.rows] == [r.counts for r in fast.rows]
        assert brute.verdict == fast.verdict

    def test_brute_mode_scans_once_per_u(self, monkeypatch):
        calls = []
        scan = fsz.brute_characterization_scan

        def counted(*args, **kwargs):
            calls.append(args)
            return scan(*args, **kwargs)

        monkeypatch.setattr(fsz, "brute_characterization_scan", counted)
        fsz_test_at(3, 9, 1, mode="brute")
        assert len(calls) == 2

    def test_fast_mode_builds_one_histogram_per_u(self, monkeypatch):
        calls = []
        histogram = fsz._superdiagonal_histogram

        def counted(*args):
            calls.append(args)
            return histogram(*args)

        monkeypatch.setattr(fsz, "_superdiagonal_histogram", counted)
        fsz_test_at(5, 5, 1)
        assert len(calls) == 2

    def test_report_json_shape(self):
        doc = fsz_test_at(5, 5, 1).to_json()
        assert doc["group"] == "P(Sp_6(5))"
        assert doc["m"] == 5
        assert doc["verdict"] == "non-FSZ_5-at-z"
        assert {row["u"] for row in doc["rows"]} == {"identity", "U"}


def _enumerated_gm_count(u, target):
    """|G_m(u, g^d)| by listing all q^(n-1) superdiagonals (the DP's oracle)."""
    spec, n, d_elem = target.spec, target.n, target.d_elem()
    a_u = u.A.rows[0][0]
    sd_u = u.L.superdiagonal()
    matches = 0
    for sd in itertools.product(spec.elements(), repeat=n - 1):
        ups = square_product(spec, sd)
        if ups.is_zero():
            continue
        shifted = square_product(spec, (x + y for x, y in zip(sd, sd_u)))
        if (d_elem / ups + a_u) * shifted == d_elem:
            matches += 1
    return matches * spec.q ** ((n - 1) * (n - 2) // 2 + n * (n + 1) // 2 - 1)


def _enumerated_corners(target):
    """{corner d / upsilon: number of superdiagonals} over the nonzero tuples."""
    spec, d_elem = target.spec, target.d_elem()
    corners = Counter()
    for sd in itertools.product(spec.elements(), repeat=target.n - 1):
        ups = square_product(spec, sd)
        if not ups.is_zero():
            corners[d_elem / ups] += 1
    return corners


DP_INSTANCES = [(3, 3, 1), (3, 9, 1), (5, 5, 1), (3, 3, 2), (7, 7, 1)]


def _assert_dp_matches_enumeration(p, q, j, u):
    row = _gm_count_fast(u, range(1, p))
    assert row == {d: _enumerated_gm_count(u, make_target(p, q, j, d)) for d in range(1, p)}


class TestSuperdiagonalDp:
    @pytest.mark.parametrize("p,q,j", DP_INSTANCES)
    def test_gm_count_matches_enumeration_for_identity_and_witness(self, p, q, j):
        spec, n = field_for_order(q), (p ** j + 1) // 2
        for u in (SylowElem.identity(spec, n), u_witness(spec, n)):
            _assert_dp_matches_enumeration(p, q, j, u)

    @pytest.mark.parametrize("p,q,j", DP_INSTANCES)
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_gm_count_matches_enumeration_for_drawn_u(self, p, q, j, data):
        spec, n = field_for_order(q), (p ** j + 1) // 2
        idx = data.draw(st.integers(0, sylow_count(n, q) - 1), label="index")
        _assert_dp_matches_enumeration(p, q, j, sylow_from_index(spec, n, idx))

    @pytest.mark.parametrize("p,q,j", DP_INSTANCES)
    def test_corner_histogram_matches_enumeration(self, p, q, j):
        for d in range(1, p):
            t = make_target(p, q, j, d)
            spec = t.spec
            hist = _superdiagonal_histogram(spec, [spec.zero] * (t.n - 1))
            assert all(a == b for a, b in hist)
            corners = {t.d_elem() / a: count for (a, _), count in hist.items()}
            assert corners == _enumerated_corners(t)


class TestReachableInstances:
    # desk scale before the DP: the fast route listed 13^6, 5^12 and 11^5 tuples
    @pytest.mark.parametrize("p,q,j,splits", [
        (13, 13, 1, True),   # p = 1 mod 4: the paper's p = 13 case
        (5, 5, 2, True),     # P(Sp_26(5)): the paper's j = 2 case
        (11, 11, 1, False),  # p = 3 mod 4: -1 is not a square
    ])
    def test_rows(self, p, q, j, splits):
        start = time.perf_counter()
        report = fsz_test_at(p, q, j)
        rows = {r.u_name: r.counts for r in report.rows}
        for d, count in rows["identity"].items():
            assert count == count_solutions(make_target(p, q, j, d))
        spec = field_for_order(q)
        by_class = {}
        for d, count in rows["U"].items():
            by_class.setdefault(spec.elem(d).legendre(), set()).add(count)
        assert sorted(by_class) == [-1, 1]
        assert all(len(counts) == 1 for counts in by_class.values())
        if splits:
            assert by_class[1] != by_class[-1]
            assert report.verdict == f"non-FSZ_{p ** j}-at-z"
            assert report.witness == "U"
        else:
            assert by_class[1] == by_class[-1]
            assert report.verdict == "inconclusive-nonexhaustive"
            assert report.witness is None
        assert time.perf_counter() - start < 5.0


class TestCentrality:
    # the sampled commutation check that beta_linear_batch replaced by the
    # block-pattern argument
    @pytest.mark.parametrize("p,q,j", [
        (5, 5, 1), (3, 3, 2), (7, 7, 1), (5, 25, 1), (3, 9, 2), (13, 13, 1),
    ])
    def test_target_commutes_with_sampled_elements(self, p, q, j):
        t = make_target(p, q, j, 1)
        rng = random.Random(0xC0FFEE ^ q ^ t.n)
        for _ in range(24):
            x = sylow_from_index(t.spec, t.n, rng.randrange(sylow_count(t.n, q)))
            assert x * t.g == t.g * x

    def test_non_central_target_rejected(self):
        t = make_target(5, 5, 1, 1)
        bad = PthPowerTarget(spec=t.spec, j=t.j, d=t.d, n=t.n, sigma=t.sigma,
                             g=u_witness(t.spec, t.n))
        with pytest.raises(AssertionError):
            beta_linear_batch([t.spec.one], bad)


class TestBeta:
    def test_headline_betas_irrational(self):
        t = make_target(5, 5, 1, 1)
        for zi in range(1, 5):
            beta = beta_linear(t.spec.elem(zi), t)
            assert not beta.rational

    def test_beta_zero_param_rejected(self):
        t = make_target(5, 5, 1, 1)
        with pytest.raises(ValueError):
            beta_linear(t.spec.zero, t)

    def test_grouped_beta_matches_definitional_on_small_group(self):
        spec = field(3)
        elements = sylow_group_elements(spec, 2)
        for d in (1, 2):
            t = make_target(3, 3, 1, d)
            for zi in (1, 2):
                zparam = spec.elem(zi)
                grouped = beta_linear(zparam, t)
                definitional = beta_definitional(
                    lambda x: xi_lambda(zparam, x), 3, t.g, elements
                )
                assert grouped.value == definitional.value

    def test_beta_value_in_closed_form(self):
        # beta at zparam = 1 is 125000^2 * (2 + z^2 + z^3)
        t = make_target(5, 5, 1, 1)
        beta = beta_linear(t.spec.elem(1), t)
        scale = 125_000 ** 2
        expected = CycNum(5, [2 * scale, 0, scale, scale])
        assert beta.value == expected

    def test_via_counts_equals_definitional(self):
        spec = field(3)
        elements = sylow_group_elements(spec, 2)
        z = make_target(3, 3, 1, 1).g
        for weights in ((0, 0), (1, 0), (1, 2), (2, 2)):
            chi = kappa_character(spec, 2, weights)
            assert (
                beta_via_counts(chi, 3, z, elements).value
                == beta_definitional(chi, 3, z, elements).value
            )

    def test_trivial_character_gives_square_of_count(self):
        spec = field(3)
        elements = sylow_group_elements(spec, 2)
        t = make_target(3, 3, 1, 1)
        chi = kappa_character(spec, 2, (0, 0))
        beta = beta_via_counts(chi, 3, t.g, elements)
        n_sols = count_solutions(t)
        assert beta.value == CycNum.rational(3, n_sols * n_sols)
        assert beta.rational

    def test_no_roots_gives_zero(self):
        spec = field(3)
        elements = sylow_group_elements(spec, 2)
        # an element with a nonzero L block is never a cube in this group
        z = next(x for x in elements if any(not e.is_zero() for e in x.L.upper))
        chi = kappa_character(spec, 2, (1, 1))
        assert beta_via_counts(chi, 3, z, elements).value == CycNum.zero(3)
        assert beta_definitional(chi, 3, z, elements).value == CycNum.zero(3)

    def test_even_power_balance_surrogate(self):
        assert qr_fiber_balance(field(5, 2), field(5, 2).elem(1))
        assert not qr_fiber_balance(field(5), field(5).elem(1))
        assert not qr_fiber_balance(field(5, 3), field(5, 3).elem(1))

    def test_even_power_of_p_betas_are_rational(self):
        # over GF(25) the corner character sums balance out exactly
        t = make_target(5, 25, 1, 1)
        for zi in (1, 2, 7, 24):
            beta = beta_linear(t.spec.from_index(zi), t)
            assert beta.rational


class TestOtherRegimes:
    def test_p_three_mod_four_counts_balance(self):
        # with -1 a non-square the witness comparison cannot separate exponents
        for p, q in ((3, 3), (7, 7)):
            report = fsz_test_at(p, q, 1)
            assert report.witness is None
            assert report.verdict == "inconclusive-nonexhaustive"

    def test_even_power_counts_balance(self):
        # prime-subfield exponents are all squares in GF(25)
        report = fsz_test_at(5, 25, 1)
        assert report.witness is None
        assert report.verdict == "inconclusive-nonexhaustive"


class TestPairCounts:
    @pytest.mark.parametrize("q,d,expected", [(5, 1, 0), (5, 2, 2), (13, 1, 4)])
    def test_worked_examples(self, q, d, expected):
        spec = field(q)
        assert witness_pair_count(spec, d, "closed") == expected
        assert witness_pair_count(spec, d, "enum") == expected

    def test_requires_minus_one_square(self):
        with pytest.raises(ValueError):
            witness_pair_count(field(7), 1)

    @pytest.mark.parametrize("q", [5, 13, 29])
    def test_closed_equals_enum(self, q):
        spec = field(q)
        for d in range(1, q):
            d_elem = spec.elem(d)
            assert witness_pair_count(spec, d_elem, "closed") == witness_pair_count(
                spec, d_elem, "enum"
            )


class TestWitnessSearch:
    def test_headline_witness_found(self):
        report = fsz_test_at(5, 5, 1)
        spec = field(5)
        result = witness_order_search(report, lambda x: xi_lambda(spec.one, x))
        assert result.found and result.u_name == "U"
        assert result.char_order == 5

    def test_exhaustion_reported(self):
        spec = field(5)
        u_set = [("identity", SylowElem.identity(spec, 3))]
        report = fsz_test_at(5, 5, 1, u_set=u_set)
        result = witness_order_search(report, lambda x: xi_lambda(spec.one, x))
        assert not result.found and result.exhausted


class TestSmallGroups:
    def test_center_of_small_block_group(self):
        spec = field(3)
        elements = sylow_group_elements(spec, 2)
        center = center_of(elements)
        g = make_target(3, 3, 1, 1).g
        assert len(center) == 3
        assert g in center and g * g in center

    def test_exponent_p_group_is_fsz(self):
        spec = field(3)
        elements = [
            UniTriMat.from_ints(spec, 3, [a, b, c])
            for a, b, c in itertools.product(range(3), repeat=3)
        ]
        ok, violation = fsz_brute_small(
            elements, 3, mul=lambda x, y: x @ y, identity=UniTriMat.identity(spec, 3)
        )
        assert ok and violation is None


class TestBruteScan:
    def test_small_group_scan(self):
        out = brute_characterization_scan(3, 3, 1, [1, 2])
        assert out["agree"]
        assert out["counts"] == {1: count_solutions(make_target(3, 3, 1, 1)),
                                 2: count_solutions(make_target(3, 3, 1, 2))}

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceeded):
            brute_characterization_scan(5, 5, 1, [1], budget=100)

    def test_rejects_exponents_divisible_by_p(self):
        for d_list in ([0, 3, 4], [3]):
            with pytest.raises(ValueError):
                brute_characterization_scan(3, 3, 1, d_list)

    def test_each_exponent_is_tallied_once(self):
        out = brute_characterization_scan(3, 3, 1, [1, 1, 4])
        want = count_solutions(make_target(3, 3, 1, 1))
        assert out["agree"]
        assert out["counts"] == {1: want, 4: want}

    def test_extension_field_counts(self):
        out = brute_characterization_scan(3, 9, 1)
        assert out["agree"]
        assert out["counts"] == {d: count_solutions(make_target(3, 9, 1, d)) for d in (1, 2)}

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_extension_field_gm_matches_fast(self, data):
        spec = field(3, 2)
        idx = data.draw(st.integers(0, sylow_count(2, 9) - 1), label="index")
        for u in (u_witness(spec, 2), sylow_from_index(spec, 2, idx)):
            assert gm_count(u, 3, 9, 1, mode="brute") == gm_count(u, 3, 9, 1, mode="fast")

    def test_cubic_extension_gm_matches_fast(self):
        # P(Sp_4(27)): 27^4 = 531441 elements, 12 x 12 matrices over GF(3)
        spec = field(3, 3)
        u = sylow_from_index(spec, 2, 59_298)  # a u with nonzero counts
        out = brute_characterization_scan(3, 27, 1, u=u)
        assert out["agree"]
        assert out["counts"] == {d: count_solutions(make_target(3, 27, 1, d))
                                 for d in (1, 2)}
        assert out["gm"] == gm_count(u, 3, 27, 1)
        assert out["gm"][1] > 0

    def test_extension_field_scan_independent_of_threads(self):
        spec = field(3, 2)
        u = sylow_from_index(spec, 2, 4321)
        one, two = (brute_characterization_scan(3, 9, 1, u=u, threads=k) for k in (1, 2))
        assert one == two

    def test_partial_last_chunk_changes_nothing(self, monkeypatch):
        # 9^3 = 729 symmetric blocks: chunks of 7 leave a last chunk of one
        spec = field(3, 2)
        u = sylow_from_index(spec, 2, 4321)
        want = brute_characterization_scan(3, 9, 1, u=u)
        monkeypatch.setattr(fsz, "_SCAN_CHUNK", 7)
        assert brute_characterization_scan(3, 9, 1, u=u) == want

    def test_partition_memory_is_bounded_by_the_chunk(self):
        # P(Sp_4(27)) at two threads: L-indices [0, 14) of 27 form one partition
        spec = field(3, 3)
        u = sylow_from_index(spec, 2, 59_298)
        u_int = fsz._embed(27, np.array([[x.index() for x in r] for r in u.to_matrix().rows]))
        fsz._scan_worker(27, 2, 1, [1, 2], u_int, 0, 1)
        tracemalloc.start()
        try:
            fsz._scan_worker(27, 2, 1, [1, 2], u_int, 0, 14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2 ** 20


def _pow_mod_loop(X, e, p):
    """X^e mod p by e - 1 int64 products, each reduced: the scan's former kernel."""
    base = X.astype(np.int64) % p
    power = base
    for _ in range(e - 1):
        power = (power @ base) % p
    return power


class TestPowMod:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        p=st.sampled_from([3, 5, 7, 11, 13]),
        e_of_p=st.sampled_from([lambda p: p, lambda p: p * p, lambda p: 2, lambda p: 3]),
        m=st.integers(1, 12),
        bound_bits=st.integers(0, 52),
        near_bound=st.booleans(),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_matches_int64_loop(self, p, e_of_p, m, bound_bits, near_bound, seed):
        # entries near a large bound make the products' true sizes reach the
        # tracked bounds, so each reduction the kernel makes is one it needs
        e = e_of_p(p)
        bound = p - 1 if bound_bits == 0 else 2 ** bound_bits + seed % 2 ** bound_bits
        low = bound // 2 if near_bound else 0
        X = np.random.default_rng(seed).integers(low, bound + 1, size=(3, m, m))
        got = fsz._pow_mod(X.astype(np.float64), e, p, bound)
        assert np.array_equal(got, _pow_mod_loop(X, e, p))

    # the last two are p k - 1 whose floor(y * (1/p)) rounds up to k
    @pytest.mark.parametrize("p,y", [
        (13, 0), (13, 1), (13, 2 ** 52), (13, 2 ** 53 - 13), (13, 2 ** 53 - 14),
        (13, 8_174_545_188_536_778), (5, 8_326_517_379_779_079),
    ])
    def test_reduce_is_exact_below_the_limit(self, p, y):
        assert fsz._reduce(np.array([float(y)]), p)[0] == y % p
