import itertools
import random
import sys
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsz_lab import cli, fsz, scan
from fsz_lab.cyclotomic import CycNum
from fsz_lab.fields import FieldElem, FieldSpec, field, field_for_order
from fsz_lab.matrices import MatFq, UniTriMat
from fsz_lab.residues import FiberCountQuery, trace_fiber_qr_count
from fsz_lab.fsz import (
    FszReport,
    FszRow,
    PthPowerTarget,
    _free_exponent,
    _gm_count_fast,
    beta_definitional,
    beta_linear,
    beta_linear_batch,
    beta_via_counts,
    brute_characterization_scan,
    center_of,
    characterization_holds,
    count_solutions,
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

    @pytest.mark.parametrize("j", [0, -1])
    def test_every_route_refuses_j_below_one(self, j):
        # (p^j + 1) // 2 is 1 at j = 0 and 0.0 at j = -1: no block group to count in
        u = SylowElem.identity(field(5), 3)
        for route in (lambda: make_target(5, 5, j, 1),
                      lambda: gm_count(u, 5, 5, j),
                      lambda: gm_count(u, 5, 5, j, mode="brute"),
                      lambda: brute_characterization_scan(5, 5, j),
                      lambda: brute_characterization_scan(3, 3, j)):
            with pytest.raises(ValueError, match="j must be >= 1"):
                route()

    @pytest.mark.parametrize("p,q,j", [(5, 5, 1), (3, 9, 2), (13, 13, 1)])
    def test_code_built_elements_equal_the_matrix_built(self, p, q, j):
        # make_target and u_witness build their blocks as int codes; the
        # UniTriMat / MatFq constructors are the reference
        spec, n = field_for_order(q), (p ** j + 1) // 2
        for d in range(1, p):
            t = make_target(p, q, j, d)
            corner = MatFq.elementary(spec, n, n - 1, n - 1, t.sigma * d)
            assert t.g == SylowElem(UniTriMat.identity(spec, n), corner)
        L = UniTriMat.from_ints(spec, n, [1] + [0] * (n * (n - 1) // 2 - 1))
        reference = SylowElem.from_symmetric(L, MatFq.elementary(spec, n, 0, 0))
        assert u_witness(spec, n) == reference


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

    @pytest.mark.parametrize("p,q", [(5, 5), (3, 9), (5, 25)])
    def test_table_root_is_the_first_root_in_index_order(self, p, q):
        # the superdiagonal entry is the square root of d/x read from the
        # exp/log tables; it must be the root an index-order scan finds first
        for d in range(1, p):
            t = make_target(p, q, 1, d)
            spec = t.spec
            for x in spec.elements():
                if x.is_zero() or x.legendre() != t.d_elem().legendre():
                    continue
                w = t.d_elem() / x
                first = next(y for y in spec.elements() if y * y == w)
                assert solve_pth_power(t, x).L.to_mat().rows[0][1] == first


def verify_sample(t, rng, k):
    """Spot-check both directions of the characterization on random elements.

    Random constructed solutions must power to g^d; random group elements
    must satisfy the power equation iff they satisfy the characterization.
    """
    spec = t.spec
    for _ in range(k):
        x = spec.random(rng)
        while x.is_zero() or x.legendre() != t.d_elem().legendre():
            x = spec.random(rng)
        assert solve_pth_power(t, x).pow(t.m) == t.g
    total = sylow_count(t.n, spec.q)
    for _ in range(k):
        x = sylow_from_index(spec, t.n, rng.randrange(total))
        assert (x.pow(t.m) == t.g) == characterization_holds(x, t)


class TestSolutionCounts:
    def test_worked_count(self):
        assert count_solutions(make_target(5, 5, 1, 1)) == 250_000

    def test_count_independent_of_d(self):
        counts = {count_solutions(make_target(5, 5, 1, d)) for d in (1, 2, 3, 4)}
        assert counts == {250_000}

    def test_materialized_set_on_small_group(self):
        t = make_target(3, 3, 1, 1)
        group = sylow_group_elements(t.spec, 2)
        sols = [x for x in group if characterization_holds(x, t)]
        assert count_solutions(t) == len(sols)
        for x in sols:
            assert x.pow(3) == t.g
        # conversely, nothing outside the set powers to g
        hit = sum(1 for x in group if x.pow(3) == t.g)
        assert hit == len(sols)

    def test_identity_row_at_n_365(self):
        # identity, U and g are built on codes, so no O(n^3) symmetry check runs
        report = fsz_test_at(3, 3, 6)
        assert report.rows[0].u_name == "identity"
        expected = count_solutions(make_target(3, 3, 6, 1))
        assert dict(report.rows[0].counts) == {1: expected, 2: expected}

    def test_characterization_sample_check(self):
        t = make_target(5, 5, 1, 2)
        verify_sample(t, random.Random(5), k=15)

    @pytest.mark.parametrize("q", [3, 9])
    @pytest.mark.parametrize("d", [1, 2])
    def test_characterization_sample_check_at_j2(self, q, d):
        # p^j = 9: the characterization powered at j = 2, where the group is
        # too large for the brute scan
        t = make_target(3, q, 2, d)
        verify_sample(t, random.Random(q * 10 + d), k=20)

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

    def test_brute_mode_refuses_a_disagreeing_scan(self, monkeypatch):
        true_scan = fsz.brute_characterization_scan
        monkeypatch.setattr(fsz, "brute_characterization_scan",
                            lambda *args, **kwargs: {**true_scan(*args, **kwargs), "agree": False})
        with pytest.raises(AssertionError, match="disagrees"):
            gm_count(u_witness(field(3), 2), 3, 3, 1, mode="brute")

    def test_budget_refusal_on_big_brute(self, capsys):
        # the CLI charges the 7^16 elements of the scan against --budget
        code = cli.main(["--budget", "10000", "sylow", "gm", "--mode", "brute",
                         "--p", "7", "--q", "7", "--j", "1"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert f"--budget {7 ** 16}" in err and err.count("\n") == 1

    def test_fast_equals_brute_over_extension_field(self):
        # the scan over GF(9) by its regular representation: 9^4 = 6561 elements
        spec = field(3, 2)
        u = u_witness(spec, 2)
        assert gm_count(u, 3, 9, 1, mode="fast") == gm_count(u, 3, 9, 1, mode="brute")


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
        fold = fsz._nonzero_slot_fold

        def counted(*args, **kwargs):
            calls.append(args)
            return fold(*args, **kwargs)

        monkeypatch.setattr(fsz, "_nonzero_slot_fold", counted)
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
# the element fold is cheap here too, and these reach GF(p^f) with f = 2, 3
REFERENCE_INSTANCES = DP_INSTANCES + [(5, 25, 1), (3, 27, 1)]


def _superdiagonal_histogram(spec, shift):
    """{(log a, log b): number of superdiagonals x} with a = prod x_i^2, b = prod (x_i+y_i)^2.

    The fast count's reference: y is the shift (the superdiagonal of u), and
    every slot, zero or not, is folded on discrete logs into one joint
    histogram over the tuples with every x_i nonzero.  Tuples with b = 0 are
    dropped, since (d/a + A_u[0,0]) * b = d never holds for them.
    """
    t = spec.tables()
    exp, log = t["exp"], t["log"]
    m = spec.q - 1
    states = {(0, 0): 1}
    for y in shift:
        plus_y = spec.add_map(y.index())
        steps = Counter()
        for lx in range(m):
            s = plus_y[exp[lx]]
            if s:
                steps[2 * lx % m, 2 * log[s] % m] += 1
        folded = Counter()
        for (la, lb), count in states.items():
            for (sa, sb), k in steps.items():
                folded[(la + sa) % m, (lb + sb) % m] += count * k
        states = folded
    return dict(states)


def _fold_gm_count(u, d_list):
    """|G_m(u, g^d)| read from the joint (log a, log b) histogram of u's shift."""
    spec = u.spec
    t = spec.tables()
    exp, log = t["exp"], t["log"]
    m = spec.q - 1
    plus_corner = spec.add_map(u.corner().index())
    matches = dict.fromkeys(d_list, 0)
    for (la, lb), count in _superdiagonal_histogram(spec, u.superdiagonal()).items():
        for d in d_list:
            ld = log[d % spec.p]
            s = plus_corner[exp[(ld - la) % m]]
            if s and (log[s] + lb) % m == ld:
                matches[d] += count
    return {d: k * spec.q ** _free_exponent(u.n) for d, k in matches.items()}


def _element_histogram(spec, shift):
    """{(a, b): number of nonzero superdiagonals x} folded on FieldElem values.

    The reference for the coded DP: a = prod x_i^2 and b = prod (x_i + y_i)^2,
    every product and sum made by field element arithmetic.
    """
    nonzero = [x for x in spec.elements() if not x.is_zero()]
    states = {(spec.one, spec.one): 1}
    for y in shift:
        steps = Counter()
        for x in nonzero:
            s = x + y
            steps[x * x, s * s] += 1
        folded = Counter()
        for (a, b), count in states.items():
            for (sa, sb), k in steps.items():
                folded[a * sa, b * sb] += count * k
        states = folded
    return dict(states)


def _u_from_digits(spec, n, rng, corner, superdiagonal):
    """sylow_from_index on random index digits, with the corner A[0,0] and the
    superdiagonal of L set to the given field indices."""
    q = spec.q
    L = {(i, j): rng.randrange(q) for i in range(n) for j in range(i + 1, n)}
    L.update({(i, i + 1): y for i, y in enumerate(superdiagonal)})
    S = {(i, j): rng.randrange(q) for i in range(n) for j in range(i, n)}
    S[0, 0] = corner  # (A L)[0,0] = A[0,0] for upper unitriangular L
    idx = 0
    for digit in [*L.values(), *S.values()]:  # row-major, L digits most significant
        idx = idx * q + digit
    u = sylow_from_index(spec, n, idx)
    assert u.corner().index() == corner
    assert [y.index() for y in u.superdiagonal()] == list(superdiagonal)
    return u


def _reference_us(spec, n, seed=0):
    """identity, U and seeded u with corner 0 and with zero superdiagonal slots."""
    rng = random.Random(seed)

    def nonzero():
        return rng.randrange(1, spec.q)

    return [
        SylowElem.identity(spec, n),
        u_witness(spec, n),
        _u_from_digits(spec, n, rng, 0, [nonzero() if i % 2 else 0 for i in range(n - 1)]),
        _u_from_digits(spec, n, rng, nonzero(), [0] * (n - 1)),
        _u_from_digits(spec, n, rng, 0, [nonzero() for _ in range(n - 1)]),
        _u_from_digits(spec, n, rng, nonzero(), [nonzero() for _ in range(n - 1)]),
    ]


def _assert_dp_matches_enumeration(p, q, j, u):
    row = _gm_count_fast(u, range(1, p))
    assert row == {d: _enumerated_gm_count(u, make_target(p, q, j, d)) for d in range(1, p)}


class TestSuperdiagonalDp:
    @pytest.mark.parametrize("p,q,j", REFERENCE_INSTANCES)
    def test_coded_histogram_equals_element_fold(self, p, q, j):
        spec, n = field_for_order(q), (p ** j + 1) // 2
        exp = spec.tables()["exp"]
        for u in _reference_us(spec, n):
            shift = u.superdiagonal()
            decoded = {(spec.from_index(exp[la]), spec.from_index(exp[lb])): count
                       for (la, lb), count in _superdiagonal_histogram(spec, shift).items()}
            # the coded DP drops the states with b = 0, which no d can match
            reference = {key: count for key, count in _element_histogram(spec, shift).items()
                         if not key[1].is_zero()}
            assert decoded == reference

    @pytest.mark.parametrize("p,q,j", REFERENCE_INSTANCES + [(5, 5, 2), (13, 13, 1)])
    def test_fast_count_equals_the_joint_fold_at_every_k(self, p, q, j):
        # the fast count folds only the nonzero slots, in (log a, log C); the
        # reference folds every slot into (log a, log b)
        spec, n = field_for_order(q), (p ** j + 1) // 2
        rng = random.Random(q * n)
        us = _reference_us(spec, n)
        for k in range(n):
            for _ in range(3):
                zeros = set(rng.sample(range(n - 1), min(k, n - 1)))
                sd = [0 if i in zeros else rng.randrange(1, q) for i in range(n - 1)]
                us.append(_u_from_digits(spec, n, rng, rng.randrange(q), sd))
        for u in us:
            assert _gm_count_fast(u, range(1, p)) == _fold_gm_count(u, range(1, p))

    @pytest.mark.parametrize("p,q,j", REFERENCE_INSTANCES)
    def test_gm_count_matches_enumeration_for_identity_and_witness(self, p, q, j):
        spec, n = field_for_order(q), (p ** j + 1) // 2
        for u in _reference_us(spec, n):
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
            exp = spec.tables()["exp"]
            hist = _superdiagonal_histogram(spec, [spec.zero] * (t.n - 1))
            assert all(a == b for a, b in hist)
            corners = {t.d_elem() / spec.from_index(exp[a]): count
                       for (a, _), count in hist.items()}
            assert corners == _enumerated_corners(t)

    def test_fast_route_makes_no_field_element_multiply(self, monkeypatch):
        field_for_order(25).tables()
        calls = []
        original = FieldElem.__mul__

        def counting(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(FieldElem, "__mul__", counting)
        monkeypatch.setattr(FieldElem, "__rmul__", counting)
        report = fsz_test_at(5, 25, 1, with_betas=True)
        assert len(report.betas) == 24
        assert calls == []


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


def _class_representative(u):
    """The (k, t) representative of u: k zeros and then ones on the
    superdiagonal, no other L entries, and S = t E_00 with
    t = prod_{y_i != 0} y_i^2 * A_u[0,0]."""
    spec, n = u.spec, u.n
    sd = u.superdiagonal()
    k = sum(1 for y in sd if y.is_zero())
    t = u.corner()
    for y in sd:
        if not y.is_zero():
            t = t * y * y
    ones = [spec.zero] * k + [spec.one] * (n - 1 - k)
    upper = [ones[i] if c == i + 1 else spec.zero for i in range(n) for c in range(i + 1, n)]
    return SylowElem.from_symmetric(UniTriMat(spec, n, upper), MatFq.elementary(spec, n, 0, 0, t))


class TestClassReduction:
    # a row depends on u only through k, the zeros on its superdiagonal, and
    # t = c A_u[0,0] with c = prod_{y_i != 0} y_i^2
    @pytest.mark.parametrize("p,q,j", [(3, 3, 1), (5, 5, 1), (3, 9, 1)])
    def test_row_is_its_representatives_row(self, p, q, j):
        spec, n = field_for_order(q), (p ** j + 1) // 2
        rng = random.Random(p * q)
        for _ in range(200):
            sd = [rng.randrange(q) if rng.randrange(2) else 0 for _ in range(n - 1)]
            u = _u_from_digits(spec, n, rng, rng.randrange(q), sd)
            rep = _class_representative(u)
            assert rep.superdiagonal()[:sd.count(0)] == (spec.zero,) * sd.count(0)
            assert _fold_gm_count(u, range(1, p)) == _gm_count_fast(rep, range(1, p))


class TestCubeFields:
    # q = p^3 with p = 1 mod 4: the paper's hypothesis, past every other oracle
    @pytest.mark.parametrize("p,q", [(5, 125), (13, 2197), (17, 4913)])
    def test_u_row_is_the_closed_pair_count(self, p, q):
        # |G_m(U, g^d)| = 2 (q-1)^(n-3) P(d) q^F: the n - 2 zero slots spread
        # a = prod x_i^2 evenly over the nonzero squares, 2 (q-1)^(n-3) tuples
        # each, and P(d) = witness_pair_count(d) counts the rest
        spec, n = field_for_order(q), (p + 1) // 2
        row = _gm_count_fast(u_witness(spec, n), range(1, p))
        scale = 2 * (q - 1) ** (n - 3) * q ** _free_exponent(n)
        assert row == {d: scale * witness_pair_count(spec, d, "closed") for d in range(1, p)}
        assert len(set(row.values())) == 2


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

    def test_via_counts_powers_each_listed_element_once(self, monkeypatch):
        spec = field(3)
        elements = sylow_group_elements(spec, 2)
        z = make_target(3, 3, 1, 1).g
        chi = kappa_character(spec, 2, (1, 2))
        expected = beta_definitional(chi, 3, z, elements).value
        calls = []
        original = SylowElem.pow

        def counting(x, j):
            calls.append(j)
            return original(x, j)

        monkeypatch.setattr(SylowElem, "pow", counting)
        assert beta_via_counts(chi, 3, z, elements).value == expected
        # every a u is listed, so its power is read, never recomputed
        assert len(elements) == 81 and calls == [3] * 81

    def test_via_counts_on_a_list_not_closed_under_products(self):
        spec = field(3)
        group = sylow_group_elements(spec, 2)
        unlisted_products = 0
        for elements in (group[:40], group[1::2]):
            listed = set(elements)
            for d in (1, 2):
                z = make_target(3, 3, 1, d).g
                hits = [a for a in elements if a.pow(3) == z]
                unlisted_products += sum(a * u not in listed for a in hits for u in elements)
                for weights in ((0, 0), (1, 2)):
                    chi = kappa_character(spec, 2, weights)
                    reference = CycNum.zero(3)
                    for u in elements:
                        count = sum(1 for a in hits if (a * u).pow(3) == z)
                        reference = reference + chi(u) * count
                    assert beta_via_counts(chi, 3, z, elements).value == reference
        assert unlisted_products

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


def _fold_beta_batch(zparams, target):
    """The corner betas by folding the zero-shift superdiagonal histogram.

    The reference for the closed form: every achieved corner d / w is counted
    from the histogram of w = prod x_i^2, and each character sum is tallied by
    trace residue on the exp/log tables.
    """
    spec = target.spec
    multiplicity = spec.q ** _free_exponent(target.n)
    histogram = _superdiagonal_histogram(spec, [spec.zero] * (target.n - 1))
    t = spec.tables()
    exp, log, trace = t["exp"], t["log"], t["trace"]
    m = spec.q - 1
    ld = log[target.d]
    corner_logs = {(ld - la) % m: count * multiplicity for (la, _), count in histogram.items()}
    betas = []
    for zparam in zparams:
        lz = log[zparam.index()]
        residue_vector = [0] * spec.p
        for k, count in corner_logs.items():
            residue_vector[trace[exp[(lz + k) % m]]] += count
        inner = CycNum.from_residue_vector(spec.p, residue_vector)
        betas.append(fsz._beta(inner.norm_sq(), zparam.to_json()))
    return betas


# p = 1 mod 4 at odd and even powers, p = 3 mod 4, and j = 2
CLOSED_BETA_INSTANCES = [
    (3, 3, 1), (5, 5, 1), (7, 7, 1), (3, 9, 1), (5, 25, 1), (13, 13, 1), (3, 3, 2),
    (5, 125, 1), (7, 49, 1), (11, 11, 1), (5, 5, 2), (3, 27, 1), (3, 9, 2),
]


def _every_corner_beta(p, q, j):
    """{d: (target, zparams, closed betas)} for every unit d and nonzero zparam."""
    out = {}
    for d in range(1, p):
        t = make_target(p, q, j, d)
        zparams = [z for z in t.spec.elements() if not z.is_zero()]
        out[d] = (t, zparams, beta_linear_batch(zparams, t))
    return out


class TestClosedBeta:
    @pytest.mark.parametrize("p,q,j", CLOSED_BETA_INSTANCES)
    def test_closed_form_equals_the_fold(self, p, q, j):
        for t, zparams, closed in _every_corner_beta(p, q, j).values():
            assert closed == _fold_beta_batch(zparams, t)

    @pytest.mark.parametrize("p,q,j", CLOSED_BETA_INSTANCES)
    def test_irrational_exactly_under_the_hypothesis(self, p, q, j):
        # G(q)^2 = eta(-1) q: G = +-sqrt(q) is irrational only for p = 1 mod 4
        # and q an odd power of p; otherwise G is rational or purely imaginary
        hypothesis = p % 4 == 1 and field_for_order(q).n % 2 == 1
        for _, _, closed in _every_corner_beta(p, q, j).values():
            assert all(b.rational != hypothesis for b in closed)

    def test_two_norms_per_target(self, monkeypatch):
        calls = []
        original = CycNum.norm_sq

        def counting(x):
            calls.append(1)
            return original(x)

        monkeypatch.setattr(CycNum, "norm_sq", counting)
        t = make_target(5, 125, 1, 2)
        assert len(beta_linear_batch([z for z in t.spec.elements() if z], t)) == 124
        assert len(calls) == 2

    def test_one_rationality_test_per_beta_value(self, monkeypatch):
        calls = []
        original = CycNum.is_rational

        def counting(x):
            calls.append(1)
            return original(x)

        monkeypatch.setattr(CycNum, "is_rational", counting)
        t = make_target(5, 25, 1, 2)
        units = list(t.spec.units())
        rows = beta_linear_batch(units, t)
        assert len(calls) <= 2
        assert [b.zparam for b in rows] == [z.to_json() for z in units]
        assert len({b.value for b in rows}) == len(calls)

    @pytest.mark.parametrize("p,q", [(5, 25), (3, 27)])
    def test_every_unit_reads_the_square_mask(self, p, q, monkeypatch):
        t = make_target(p, q, 1, 2)
        units = list(t.spec.units())
        one_by_one = [beta_linear(z, t) for z in units]
        calls = []
        legendre = FieldElem.legendre

        def counting(x):
            calls.append(x)
            return legendre(x)

        monkeypatch.setattr(FieldElem, "legendre", counting)
        assert beta_linear_batch(units, t) == one_by_one
        assert calls == [t.d_elem()]

    def test_one_zparam_builds_no_square_mask(self, monkeypatch):
        t = make_target(5, 25, 1, 1)
        expected = beta_linear(t.spec.from_index(7), t)
        monkeypatch.setattr(FieldSpec, "qr_set", lambda spec: pytest.fail("square mask built"))
        assert beta_linear(t.spec.from_index(7), t) == expected
        assert len(beta_linear_batch(list(t.spec.units())[:5], t)) == 5

    def test_beta_route_reaches_no_count_route_function(self):
        # the betas are the count's second route, so they must not run the
        # fold, the G_m read-out or the digit-wise additions that count runs on
        count_only = {
            ("fsz_lab.fsz", "_nonzero_slot_fold"),
            ("fsz_lab.fsz", "_gm_count_fast"),
            ("fsz_lab.fields", "FieldSpec.add_map"),
        }
        beta_code = beta_linear_batch.__code__
        under_beta, everywhere = set(), set()

        def record(frame, event, arg):
            module = frame.f_globals.get("__name__", "")
            if event != "call" or not module.startswith("fsz_lab"):
                return
            code = frame.f_code
            name = (module, getattr(code, "co_qualname", code.co_name))
            everywhere.add(name)
            caller = frame
            while caller is not None and caller.f_code is not beta_code:
                caller = caller.f_back
            if caller is not None:
                under_beta.add(name)

        previous = sys.getprofile()
        sys.setprofile(record)
        try:
            report = fsz_test_at(5, 5, 1, with_betas=True)
        finally:
            sys.setprofile(previous)
        assert len(report.betas) == 4
        # the same call's count route did reach them, so the recorder sees them
        assert count_only <= everywhere
        assert ("fsz_lab.fsz", "beta_linear_batch") in under_beta
        assert under_beta.isdisjoint(count_only), sorted(under_beta & count_only)


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

    @pytest.mark.parametrize("mode", ["closed", "enum"])
    def test_d_from_another_field_rejected(self, mode):
        # GF(5)'s 3 read as 6 pairs over GF(13), where 3 has 4
        with pytest.raises(ValueError, match="d must live in the field of spec"):
            witness_pair_count(field(13), field(5).elem(3), mode)

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
        assert not result.found

    def test_order_six_is_no_witness_at_p3(self):
        # only Q(zeta_3) holds roots of unity of order 6: -zeta_3 on a
        # non-uniform row of a synthetic report
        u = u_witness(field(3), 2)
        row = FszRow("u", u, {1: 0, 2: 18})
        report = FszReport(group="P(Sp_4(3))", m=3, z="g1 in P(Sp_4(3))", rows=(row,),
                           verdict="non-FSZ_3-at-z", witness="u")
        value = -CycNum.zeta(3)
        assert fsz._root_of_unity_order(value) == 6
        assert not witness_order_search(report, lambda x: value).found


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

    def test_budget_refusal(self, capsys):
        code = cli.main(["--budget", "100", "sylow", "fsz", "--mode", "brute",
                         "--p", "5", "--q", "5", "--j", "1"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        # the default u-set, identity and U, is two scans
        assert err.startswith("budget exceeded") and f"--budget {2 * 5 ** 9}" in err

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

    def test_wrong_characterization_is_caught(self, monkeypatch):
        # the compare runs on every element: doubling upsilon moves every
        # characterized corner, while the brute counts do not depend on it
        true_product = scan.square_product
        monkeypatch.setattr(scan, "square_product",
                            lambda spec, entries: true_product(spec, entries) * spec.elem(2))
        out = brute_characterization_scan(3, 9, 1, [1, 4, -1])
        assert out["agree"] is False
        assert out["counts"] == {d: count_solutions(make_target(3, 9, 1, d)) for d in (1, 4, -1)}

    def test_a_disagreeing_first_partition_survives_the_merge(self, monkeypatch):
        # 3 L-blocks at 2 threads: partitions [0, 2) and [2, 3), merged in range order
        worker, starts = scan._scan_worker, []

        def first_disagrees(q, n, j, d_list, u_int, lo, hi):
            starts.append(lo)
            counts, agree, gm = worker(q, n, j, d_list, u_int, lo, hi)
            return counts, agree and lo != 0, gm

        monkeypatch.setattr(scan, "_scan_worker", first_disagrees)
        out = brute_characterization_scan(3, 3, 1, threads=2)
        assert sorted(starts) == [0, 2]
        assert out["agree"] is False
        assert out["counts"] == {d: count_solutions(make_target(3, 3, 1, d)) for d in (1, 2)}

    def test_a_u_whose_product_is_not_symmetric_is_caught(self):
        # A_u[1][0] bumped off the group: S' = A' L' is no longer symmetric, so
        # a u's entries above the diagonal and those below give different indices
        u_int = scan._embed_matrix(u_witness(field(3), 2).to_matrix())
        u_int[1, 2] = (u_int[1, 2] + 1) % 3
        assert scan._block_order(3, 2, u_int)[1] == 3
        assert scan._scan_worker(3, 2, 1, [1, 2], u_int, 0, 3)[1] is False

    def test_scan_reaches_no_fast_route_function(self):
        # the scan is the fast route's oracle, so it must not run the fold, the
        # tables or the closed block powers that route is built on
        fast_only = {
            ("fsz_lab.fsz", "_nonzero_slot_fold"),
            ("fsz_lab.fsz", "_gm_count_fast"),
            ("fsz_lab.fields", "FieldSpec.tables"),
            ("fsz_lab.fields", "FieldSpec._build_tables"),
            ("fsz_lab.fields", "FieldSpec.add_map"),
            ("fsz_lab.sylow", "SylowElem.superdiagonal"),
            ("fsz_lab.sylow", "SylowElem.corner"),
            ("fsz_lab.sylow", "SylowElem.pow"),
            ("fsz_lab.sylow", "twisted_sum"),
            # a u is identified by the matrix product X u, not by the group law
            ("fsz_lab.sylow", "SylowElem.__mul__"),
        }
        u = u_witness(field(3, 2), 2)
        called = set()

        def record(frame, event, arg):
            module = frame.f_globals.get("__name__", "")
            if event == "call" and module.startswith("fsz_lab"):
                code = frame.f_code
                called.add((module, getattr(code, "co_qualname", code.co_name)))

        # threads=1 keeps the scan on this thread, the one the profile watches
        previous = sys.getprofile()
        sys.setprofile(record)
        try:
            out = brute_characterization_scan(3, 9, 1, u=u, threads=1)
        finally:
            sys.setprofile(previous)
        assert out["agree"]
        assert ("fsz_lab.scan", "_scan_worker") in called
        assert called.isdisjoint(fast_only), sorted(called & fast_only)

    def test_identity_u_gm_equals_counts(self):
        # a u = a, so the double condition is the single one: reading a u's
        # code in a's own block must still find every solution
        spec = field(3, 2)
        out = brute_characterization_scan(3, 9, 1, u=SylowElem.identity(spec, 2))
        assert out["agree"]
        assert out["gm"] == out["counts"]

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
        # u's 3 orbits of 3 L-blocks: an odd count, split unevenly at 2 threads
        spec = field(3, 2)
        u = sylow_from_index(spec, 2, 4321)
        order, r = scan._block_order(9, 2, scan._embed_matrix(u.to_matrix()))
        assert (len(order) // r, r) == (3, 3)
        one, two, three = (brute_characterization_scan(3, 9, 1, u=u, threads=k) for k in (1, 2, 3))
        assert one == two == three

    def test_cubic_extension_scan_independent_of_threads(self):
        # 1,024 blocks of 12 x 12 per chunk, so an L-block spans 20 chunks; u's
        # 9 orbits of 3 L-blocks split 5 + 4 at 2 threads
        spec = field(3, 3)
        u = sylow_from_index(spec, 2, 59_298)
        runs = [brute_characterization_scan(3, 27, 1, u=u, threads=k) for k in (1, 2, 3)]
        assert runs[0] == runs[1] == runs[2]

    def test_partial_last_chunk_changes_nothing(self, monkeypatch):
        # 9^3 = 729 symmetric blocks of 8 x 8: a budget of 7 matrices leaves
        # 104 chunks of 7 and a last chunk of one
        spec = field(3, 2)
        u = sylow_from_index(spec, 2, 4321)
        want = brute_characterization_scan(3, 9, 1, u=u)
        monkeypatch.setattr(scan, "_SCAN_ENTRIES", 7 * 8 * 8)
        assert brute_characterization_scan(3, 9, 1, u=u) == want

    def test_partition_memory_is_bounded_by_the_chunk(self):
        # P(Sp_4(27)) at two threads: u's 9 orbits of 3 L-blocks split as
        # positions [0, 15) and [15, 27)
        spec = field(3, 3)
        u = sylow_from_index(spec, 2, 59_298)
        u_int = scan._embed_matrix(u.to_matrix())
        assert scan._block_order(27, 2, u_int)[1] == 3
        scan._scan_worker(27, 2, 1, [1, 2], u_int, 0, 3)
        tracemalloc.start()
        try:
            scan._scan_worker(27, 2, 1, [1, 2], u_int, 0, 15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 2.5 MiB: three 1,024 x 12 x 12 float32 buffers, three a quarter
        # of that size, and their temporaries
        assert peak < 4 * 2 ** 20

    def test_partition_must_hold_whole_orbits(self):
        spec = field(3, 2)
        u_int = scan._embed_matrix(u_witness(spec, 2).to_matrix())
        with pytest.raises(ValueError, match="orbit"):
            scan._scan_worker(9, 2, 1, [1, 2], u_int, 0, 2)

    @pytest.mark.parametrize("p,q", [(3, 9), (3, 27)])
    def test_join_matches_fast_whether_u_moves_l_or_not(self, p, q):
        # S-index 1 and q^2 + 5 with L = I: orbits of one block, a u in a's own
        # block; L-index 4: orbits of p blocks
        spec, count_s = field_for_order(q), q ** 3
        for idx, r in [(1, 1), (q * q + 5, 1), (4 * count_s + q * q + 7, p)]:
            u = sylow_from_index(spec, 2, idx)
            assert scan._block_order(q, 2, scan._embed_matrix(u.to_matrix()))[1] == r
            out = brute_characterization_scan(p, q, 1, u=u)
            assert out["agree"]
            assert out["gm"] == gm_count(u, p, q, 1, mode="fast")

    @pytest.mark.parametrize("p,q", [(5, 5), (3, 9)])
    def test_join_reads_the_index_of_the_matrix_product(self, p, q, monkeypatch):
        # every power made g, so every a solves and hands the next block the
        # S-index of a u; the element there must be the matrix product a u
        spec, n = field_for_order(q), (p + 1) // 2
        count_s = q ** (n * (n + 1) // 2)
        rng = random.Random(q)
        u = sylow_from_index(spec, n, rng.randrange(sylow_count(n, q)))
        u_int = scan._embed_matrix(u.to_matrix())
        order, r = scan._block_order(q, n, u_int)
        assert r == p
        g = scan._embed_matrix(make_target(p, q, 1, 1).g_matrix).astype(np.float32)
        monkeypatch.setattr(scan, "_pow_mod", lambda X, *args: np.broadcast_to(g, X.shape))
        handed = []
        join = scan._join

        def record(target, d, block_codes, p):
            handed.append(target)
            return join(target, d, block_codes, p)

        monkeypatch.setattr(scan, "_join", record)
        scan._scan_worker(q, n, 1, [1], u_int, 0, len(order))
        assert [len(t) for t in handed] == [count_s] * len(order)
        for pos in rng.sample(range(len(order)), 8):
            nxt = pos + 1 if (pos + 1) % r else pos + 1 - r
            for s in rng.sample(range(count_s), 8):
                a = sylow_from_index(spec, n, int(order[pos]) * count_s + s)
                au = sylow_from_index(spec, n, int(order[nxt]) * count_s + int(handed[pos][s]))
                assert au.to_matrix() == a.to_matrix() @ u.to_matrix()

    def test_a_block_order_off_the_orbits_is_caught(self, monkeypatch):
        # each orbit walked backwards: a u no longer lies in the next block
        block_order = scan._block_order

        def backwards(q, n, u_int):
            order, r = block_order(q, n, u_int)
            return order.reshape(-1, r)[:, ::-1].ravel(), r

        monkeypatch.setattr(scan, "_block_order", backwards)
        u = sylow_from_index(field(3, 2), 2, 4 * 729 + 88)
        assert brute_characterization_scan(3, 9, 1, u=u)["agree"] is False

    def test_u_adds_no_power(self, monkeypatch):
        # a u is read where it is scanned as an element: one power per chunk either way
        calls = Counter()
        pow_mod = scan._pow_mod

        def counted(X, *args):
            calls[key] += 1
            return pow_mod(X, *args)

        monkeypatch.setattr(scan, "_pow_mod", counted)
        for key, u in (("u", u_witness(field(3, 2), 2)), ("none", None)):
            brute_characterization_scan(3, 9, 1, u=u, threads=1)
        assert calls["u"] == calls["none"] > 0

    def test_kernel_limits_are_checked(self):
        # the float32 kernel holds integers up to 2^24 exactly; every scan a
        # budget admits lies far inside, so the limits are checked directly
        for p, f, n in [(5, 1, 3), (3, 3, 2), (3, 4, 2), (3, 2, 5), (3, 15, 2),
                        (3, 1, 2_097_151)]:  # 4 m = 2^24 - 8
            scan._check_scan_exact(p, f, n)
        for p, f, n in [(257, 1, 129),  # m (p-1)^2 = 258 * 256^2 > 2^24
                        (3, 1, 2_097_152),  # 4 m = 2^24
                        (3, 16, 2)]:  # q = 3^16 > 2^24
            with pytest.raises(ValueError, match="float32"):
                scan._check_scan_exact(p, f, n)

    def test_scan_past_the_kernel_limits_is_refused_before_any_work(self, monkeypatch, capsys):
        def no_scan(*args):
            raise AssertionError("the scan started")

        monkeypatch.setattr(fsz, "run_partitioned", no_scan)
        with pytest.raises(ValueError, match="float32"):
            brute_characterization_scan(257, 257, 1)
        # the CLI's budget refuses every such group first, so a lowered limit
        # stands in for one past it
        monkeypatch.setattr(scan, "_exact_limit", lambda dtype: 64)
        code = cli.main(["sylow", "count", "--mode", "brute", "--p", "5", "--q", "5", "--j", "1"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "float32" in err


def _pow_mod_loop(X, e, p):
    """X^e mod p by e - 1 int64 products, each reduced: the scan's former kernel."""
    base = X.astype(np.int64) % p
    power = base
    for _ in range(e - 1):
        power = (power @ base) % p
    return power


class TestPowMod:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        p=st.sampled_from([3, 5, 7, 11, 13]),
        e_of_p=st.sampled_from([lambda p: p, lambda p: p * p, lambda p: 2, lambda p: 3]),
        m=st.integers(1, 12),
        dtype=st.sampled_from([np.float32, np.float64]),
        near_bound=st.booleans(),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_matches_int64_loop(self, p, e_of_p, m, dtype, near_bound, seed):
        # bases are reduced, as every scan's are; entries near p - 1 make the
        # products' true sizes reach the tracked bounds
        e = e_of_p(p)
        low = (p - 1) // 2 if near_bound else 0
        X = np.random.default_rng(seed).integers(low, p, size=(3, m, m))
        base = X.astype(dtype)
        out = np.empty_like(base), np.empty_like(base)
        got = scan._pow_mod(base, e, p, out)
        assert np.array_equal(got, _pow_mod_loop(X, e, p))
        # the power runs in the two buffers and never writes into its base
        assert any(got is buf for buf in out)
        assert np.array_equal(base, X)

    # the last two are p k - 1 whose floor(y * (1/p)) rounds up to k
    @pytest.mark.parametrize("p,y", [
        (13, 0), (13, 1), (13, 2 ** 52), (13, 2 ** 53 - 13), (13, 2 ** 53 - 14),
        (13, 8_174_545_188_536_778), (5, 8_326_517_379_779_079),
    ])
    def test_reduce_is_exact_below_the_limit(self, p, y):
        assert scan._reduce(np.array([float(y)]), p, np.empty(1))[0] == y % p

    # the scan kernel's type: the limit is 2^24, and the last two are p k - 1
    # whose floor(y * (1/p)) rounds up to k in float32
    @pytest.mark.parametrize("p,y", [
        (13, 0), (13, 1), (13, 2 ** 23), (13, 2 ** 24 - 13), (13, 2 ** 24 - 14),
        (13, 13_631_500), (3, 12_582_914),
    ])
    def test_reduce_is_exact_below_the_float32_limit(self, p, y):
        Y = np.array([y], dtype=np.float32)
        got = scan._reduce(Y, p, np.empty_like(Y))
        assert got.dtype == np.float32 and got[0] == y % p
