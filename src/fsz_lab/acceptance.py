"""The verification suite: twelve exact checks, each with a stated time budget.

Every check pits a closed formula against an independent enumeration (or two
independent computation routes against each other) and passes only on exact
agreement.  `run_acceptance` executes them in dependency order, reports one
line per tier, and fails a tier that overruns its limit; `quick=True` runs
only the tiers whose limit is at most 30 s (AC1, AC2, AC5 and AC9).  Each
tier does fixed work, so it takes no element budget: its verdict depends on
nothing but the code it checks, and the thread count changes only its speed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

from . import centralizer as cz
from .cyclotomic import CycNum, gauss_sum, gauss_sum_via_prime
from .fields import FieldSpec, field, field_for_order, is_prime
from .matrices import UniTriMat
from .residues import (
    FiberCountQuery,
    binom_product_sum_mod,
    gauss_square_int,
    power_sum_mod,
    qr_diff_count,
    trace_fiber_qr_count,
)
from .fsz import (
    QUADRATIC_ORDERS,
    beta_definitional,
    beta_linear_batch,
    beta_via_counts,
    brute_characterization_scan,
    center_of,
    fsz_test_at,
    gm_count,
    kappa_character,
    make_target,
    witness_pair_count,
    sylow_group_elements,
    witness_order_search,
)
from .sylow import sylow_count, sylow_from_index, corner_concentration_check, u_witness, xi_lambda


@dataclass
class AcResult:
    key: str
    name: str
    passed: bool
    detail: str
    seconds: float
    limit: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.key} {self.name}: {status} ({self.seconds:.1f}s / limit {self.limit:.0f}s) {self.detail}"


def _odd_prime_powers(limit: int):
    for p in range(3, limit + 1, 2):
        if not is_prime(p):
            continue
        q, n = p, 1
        while q <= limit:
            yield p, n, q
            q *= p
            n += 1


def _prime_subfield_ints(qr) -> set[int]:
    return {x.coeffs[0] for x in qr if not any(x.coeffs[1:])}


def ac1_qr_sizes() -> tuple[bool, str]:
    """|QR(q)| = (q+1)/2 up to 2000, worked sets pinned, and the -1 rule."""
    worked = {5: {0, 1, 4}, 7: {0, 1, 2, 4}, 11: {0, 1, 3, 4, 5, 9}}
    checked = 0
    for p, n, q in _odd_prime_powers(2000):
        spec = FieldSpec(p, n)
        qr = spec.qr_set()
        if len(qr) != (q + 1) // 2:
            return False, f"|QR({q})| != (q+1)/2"
        if spec.minus_one_is_qr() != (p % 4 == 1 or n % 2 == 0):
            return False, f"-1 residue rule failed at q={q}"
        if q in worked and _prime_subfield_ints(qr) != worked[q]:
            return False, f"worked set QR({q}) mismatch"
        checked += 1
    return True, f"{checked} prime powers"


def ac2_qr_differences() -> tuple[bool, str]:
    """Difference counts: closed = enumerated for all c != 0."""
    pairs = 0
    for q in (5, 7, 9, 11, 13, 25, 27, 49, 81, 125):
        spec = field_for_order(q)
        for c in spec.units():
            if qr_diff_count(spec, c, "closed") != qr_diff_count(spec, c, "enum"):
                return False, f"mismatch at q={q}, c={c}"
            pairs += 1
    return True, f"{pairs} (q, c) pairs"


def ac3_gauss_sums() -> tuple[bool, str]:
    """G(p)^2 = +-p and the definitional sum vs the power identity up to 400."""
    for p in (3, 5, 7, 11, 13):
        g = gauss_sum(field(p, 1))
        if g * g != CycNum.rational(p, gauss_square_int(p)):
            return False, f"G({p})^2 mismatch"
    checked = 0
    for p, n, q in _odd_prime_powers(400):
        if gauss_sum(field(p, n)) != gauss_sum_via_prime(p, n):
            return False, f"Gauss identity failed at q={q}"
        checked += 1
    return True, f"5 squares + {checked} prime powers"


def ac4_trace_fibers() -> tuple[bool, str]:
    """Fiber counts: closed = enumerated for all z, y; fibers partition QR."""
    cases = [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3),
             (7, 1), (7, 2), (11, 1), (11, 2), (13, 1), (13, 2)]
    queries = 0
    for p, n in cases:
        spec = field(p, n)
        for z in spec.units():
            total = 0
            for y in range(p):
                query = FiberCountQuery(spec, z, y)
                closed = trace_fiber_qr_count(query, "closed")
                if closed != trace_fiber_qr_count(query, "enum"):
                    return False, f"mismatch at (p,n,z,y)=({p},{n},{z},{y})"
                total += closed
                queries += 1
            if total != (spec.q + 1) // 2:
                return False, f"fibers of z={z} do not partition QR({spec.q})"
    return True, f"{queries} fiber queries"


def ac5_congruence_identities() -> tuple[bool, str]:
    """Power sums and binomial product sums, direct vs closed/factorized."""
    for p in (3, 5, 7):
        for k in range(3 * (p - 1) + 2):
            if power_sum_mod(p, k, "closed") != power_sum_mod(p, k, "direct"):
                return False, f"power sum mismatch at (p,k)=({p},{k})"
    checked = 0
    for p in (3, 5, 7):
        for j in (1, 2):
            bound = (p ** j - 1) // 2
            for k in range(bound + 1):
                for l in range(k, bound + 1):
                    direct = binom_product_sum_mod(p, j, k, l, "direct")
                    if direct != binom_product_sum_mod(p, j, k, l, "lucas"):
                        return False, f"binomial mismatch at (p,j,k,l)=({p},{j},{k},{l})"
                    if k + l < p ** j - 1 and direct != 0:
                        return False, f"nonzero low-degree sum at ({p},{j},{k},{l})"
                    if k == l == bound and direct != (-1) ** (j * (p - 1) // 2) % p:
                        return False, f"extreme case value wrong at ({p},{j})"
                    checked += 1
    return True, f"{checked} binomial pairs"


def ac6_power_formula() -> tuple[bool, str]:
    """Closed-form powers vs iterated full-matrix products; order dichotomy."""
    rng = random.Random(0xAC06)
    checked = 0
    for n, q in ((2, 3), (3, 5), (5, 3)):
        spec = field_for_order(q)
        p = spec.p
        for _ in range(200):
            x = sylow_from_index(spec, n, rng.randrange(sylow_count(n, q)))
            mat = x.to_matrix()
            acc = mat
            for j in range(2, p * p + 1):
                acc = acc @ mat
                if x.pow(j).to_matrix() != acc:
                    return False, f"power mismatch at (n,q,j)=({n},{q},{j})"
            k_order = x.L.order()
            x_order = x.order()
            if x_order not in (k_order, k_order * p):
                return False, f"order {x_order} outside {{p^k, p^(k+1)}} at (n,q)=({n},{q})"
            checked += 1
    return True, f"{checked} elements, all j <= p^2"


def ac7_corner_concentration() -> tuple[bool, str]:
    """Corner structure of the twisted sums, across all source slots."""
    rng = random.Random(0xAC07)
    checked = 0
    for p, n, y in ((5, 3, 1), (3, 5, 1), (3, 5, 2)):
        spec = field(p, 1)
        for _ in range(100):
            L = UniTriMat.random(spec, n, rng)
            for s in range(n):
                for t in range(n):
                    if not corner_concentration_check(L, y, s, t):
                        return False, f"structure fails at (p,n,y,s,t)=({p},{n},{y},{s},{t})"
                    checked += 1
    return True, f"{checked} (L, s, t) triples"


def ac8_full_scan(threads: int | None) -> tuple[bool, str]:
    """Power every element of the 5^9 block group; sets must match the closed rule."""
    out = brute_characterization_scan(5, 5, 1, [1, 2, 3, 4], threads=threads)
    if not out["agree"]:
        return False, "brute solution sets differ from the characterization"
    if any(out["counts"][d] != 250_000 for d in (1, 2, 3, 4)):
        return False, f"solution counts off: {out['counts']}"
    return True, "1953125 elements scanned, 250000 solutions per exponent"


def ac9_pair_counts() -> tuple[bool, str]:
    """Pair counts: closed = enumerated for q in {5, 13, 25, 29} and all d."""
    checked = 0
    for q in (5, 13, 25, 29):
        spec = field_for_order(q)
        for d in spec.units():
            closed = witness_pair_count(spec, d, "closed")
            if closed != witness_pair_count(spec, d, "enum"):
                return False, f"mismatch at q={q}, d={d}"
            expected = (q - 5) // 2 if d.legendre() == 1 else (q - 1) // 2
            if closed != expected:
                return False, f"closed value off at q={q}, d={d}"
            checked += 1
    return True, f"{checked} (q, d) pairs"


def ac10_headline(threads: int | None) -> tuple[bool, str]:
    """The desk-scale headline: counting route and character route agree."""
    spec = field(5, 1)
    u = u_witness(spec, 3)
    scan = brute_characterization_scan(5, 5, 1, [1, 2], u=u, threads=threads)
    if not scan["agree"]:
        return False, "brute scan disagrees with characterization"
    if scan["gm"][1] != 0 or scan["gm"][2] <= 0:
        return False, f"witness counts wrong: {scan['gm']}"
    if gm_count(u, 5, 5, 1, [1, 2]) != scan["gm"]:
        return False, f"fast/brute gm mismatch: {scan['gm']}"
    report = fsz_test_at(5, 5, 1, mode="fast")
    if report.verdict != "non-FSZ_5-at-z" or report.witness != "U":
        return False, f"counting verdict wrong: {report.verdict}"
    target = make_target(5, 5, 1, 1)
    zparams = list(spec.units())
    for zp, beta in zip(zparams, beta_linear_batch(zparams, target)):
        if beta.rational:
            return False, f"beta unexpectedly rational at zparam={zp}"
    search = witness_order_search(report, lambda x: xi_lambda(spec.one, x))
    if not search.found or search.char_order in QUADRATIC_ORDERS:
        return False, "no admissible witness behind the irrational beta"
    return True, (
        f"|G_5(U,g)| = 0, |G_5(U,g^2)| = {scan['gm'][2]}; "
        f"beta irrational for {len(zparams)} characters"
    )


def ac11_count_expansion() -> tuple[bool, str]:
    """Count expansion equals the definitional double sum on the 81-element group."""
    spec = field(3, 1)
    elements = sylow_group_elements(spec, 2)
    center = center_of(elements)
    if len(center) != 3:
        return False, f"unexpected center size {len(center)}"
    checked = 0
    for z in center:
        for w0 in range(3):
            for w1 in range(3):
                chi = kappa_character(spec, 2, (w0, w1))
                via_counts = beta_via_counts(chi, 3, z, elements)
                definitional = beta_definitional(chi, 3, z, elements)
                if via_counts.value != definitional.value:
                    return False, f"beta mismatch at z={z}, weights=({w0},{w1})"
                checked += 1
    return True, f"{checked} (character, z) pairs on 81 elements"


def ac12_centralizer_structure() -> tuple[bool, str]:
    """Predicate equivalence, projection laws, and kernel orders over Sp_6(5)."""
    samples = 1000
    suites = cz.property_suites(make_target(5, 5, 1, 1), random.Random(0xAC12), samples)
    failed = [name for name, r in suites.items() if r["fail"]]
    if failed:
        return False, f"failing suites: {', '.join(failed)}"
    return True, f"{samples} samples in each of {len(suites)} suites"


QUICK_LIMIT = 30  # seconds; `quick` runs the tiers declared at most this slow


def acceptance_tiers(
    threads: int | None,
) -> list[tuple[str, str, float, Callable[[], tuple[bool, str]]]]:
    """(key, name, time limit in seconds, runner) per tier, in dependency order."""
    return [
        ("AC1", "quadratic residue sizes", 10, ac1_qr_sizes),
        ("AC2", "residue difference counts", 30, ac2_qr_differences),
        ("AC3", "Gauss sum identities", 60, ac3_gauss_sums),
        ("AC4", "trace fiber counts", 300, ac4_trace_fibers),
        ("AC5", "congruence identities", 30, ac5_congruence_identities),
        ("AC6", "block power formula", 120, ac6_power_formula),
        ("AC7", "corner concentration", 120, ac7_corner_concentration),
        ("AC8", "full 5^9 root scan", 600, lambda: ac8_full_scan(threads)),
        ("AC9", "product pair counts", 30, ac9_pair_counts),
        ("AC10", "headline non-FSZ instance", 600, lambda: ac10_headline(threads)),
        ("AC11", "count expansion identity", 60, ac11_count_expansion),
        ("AC12", "centralizer structure", 120, ac12_centralizer_structure),
    ]


def run_acceptance(
    quick: bool = False,
    threads: int | None = None,
    only: list[str] | None = None,
    out: Callable[[str], None] = print,
) -> list[AcResult]:
    """Run the tiers in dependency order; returns per-tier results.

    A tier passes only when its check passes within its time limit.  A
    selection that leaves no tier to run raises ValueError.
    """
    tiers = acceptance_tiers(threads)
    if quick:
        tiers = [t for t in tiers if t[2] <= QUICK_LIMIT]
    if only:
        wanted = {key.upper() for key in only}
        tiers = [t for t in tiers if t[0] in wanted]
    if not tiers:
        raise ValueError(f"no {'quick' if quick else 'acceptance'} tier matches {' '.join(only)}")
    results = []
    for key, name, limit, fn in tiers:
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a tier crash is a failure, not an abort
            passed, detail = False, f"error: {exc}"
        elapsed = time.perf_counter() - start
        if elapsed > limit:
            passed, detail = False, f"overran its {limit:.0f}s limit; {detail}"
        result = AcResult(key, name, passed, detail, elapsed, limit)
        results.append(result)
        out(result.line())
    return results
