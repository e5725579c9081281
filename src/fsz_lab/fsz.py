"""Root-counting and indicator-rationality tests for the block Sylow groups.

Two independent routes decide whether the Sylow p-subgroup P of Sp_2n(q)
(with 2n = p^j + 1) fails the count-equality property at the central
unipotent g = I + sigma * d * E[n-1, 2n-1]:

* counting: |G_m(u, g^d)| with G_m(u, g) = {a : a^m = (a u)^m = g} compared
  across exponents d coprime to p, in a fast closed-characterization mode and
  a brute full-enumeration mode that must agree (one pass per u serves all d);
* characters: the exact squared modulus beta of the character sum over the
  p^j-th roots of g.  For a corner character zeta^tr(z A[0,0]) it is
  q^(2F) (q-1)^(2n-4) |eta(z d) G(q) - 1|^2, with F = `_free_exponent(n)`, eta
  the quadratic character and G(q) the quadratic Gauss sum.  G(q)^2 =
  eta(-1) q, so every corner beta is irrational exactly when p = 1 mod 4 and
  q is an odd power of p.  For a linear character beta also expands as the
  sum over u of |G_m(u, g)| chi(u) (`beta_via_counts`).

The closed characterization is A[0,0] * upsilon(L, j) = d; the brute route,
whose numpy kernel lives in `scan`, powers every group element directly and
checks the characterization on each one.

The fast count never lists the q^(n-1) superdiagonals of L.  Both power
conditions see one only through a = prod x_i^2 and C = prod (1 + y_i/x_i)^2,
y the superdiagonal of u; a*u is a solution too iff (d + A_u[0,0] a) C = d.
A zero slot adds (x_i^2, 1), so once one slot is zero, a is uniform over the
squares and independent of C; a nonzero slot adds one step array in
w = 1 + y_i/x_i.  A DP on the exp/log tables folds only the nonzero slots.

The beta route shares only field construction with the fast count: it reads
G(q) from the Gauss-sum power identity, with no table and no histogram.  The
brute scan reaches none of the fast route's functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from math import gcd
from typing import Callable, Iterable, Sequence

from .cyclotomic import CycNum, gauss_sum_via_prime
from .fields import FieldElem, FieldSpec, field_for_order, power
from .matrices import Block, MatFq, UniTriMat, _unit_block
from .parallel import BudgetExceeded, run_partitioned
from .sylow import (
    SylowElem,
    enumerate_sylow,
    kappa,
    sylow_count,
    sylow_from_index,
    u_witness,
    upsilon,
)

__all__ = [
    "PthPowerTarget",
    "make_target",
    "characterization_holds",
    "solve_pth_power",
    "count_solutions",
    "gm_count",
    "FszReport",
    "FszRow",
    "fsz_test_at",
    "BetaValue",
    "beta_linear",
    "beta_linear_batch",
    "beta_definitional",
    "beta_via_counts",
    "kappa_character",
    "witness_pair_count",
    "witness_order_search",
    "WitnessSearchResult",
    "brute_characterization_scan",
    "sylow_group_elements",
    "center_of",
    "fsz_brute_small",
]


# -- targets -------------------------------------------------------------------


@dataclass(frozen=True)
class PthPowerTarget:
    """The equation X^(p^j) = g^d inside P(Sp_2n(q)) with 2n = p^j + 1.

    sigma is (-1)^(j(p-1)/2); the right-hand side is I + sigma*d*E[n-1, 2n-1],
    stored as a block element g.  d runs over units mod p, which suffices for
    coprime-exponent tests because g has order p.
    """

    spec: FieldSpec
    j: int
    d: int
    n: int
    sigma: int
    g: SylowElem

    @property
    def m(self) -> int:
        return self.spec.p ** self.j

    @cached_property
    def g_matrix(self) -> MatFq:
        """g's 2n x 2n embedding, built on first use and kept with the target."""
        return self.g.to_matrix()

    def d_elem(self) -> FieldElem:
        return self.spec.elem(self.d)

    def describe(self) -> str:
        base = f"g{self.j}" if self.d == 1 else f"g{self.j}^{self.d}"
        return f"{base} in P(Sp_{2 * self.n}({self.spec.q}))"


def _instance(p: int, q: int, j: int) -> tuple[FieldSpec, int]:
    """GF(q) and the block size n = (p^j + 1)/2; rejects q not a power of p, and j < 1."""
    spec = field_for_order(q)
    if spec.p != p:
        raise ValueError(f"q = {q} is not a power of p = {p}")
    if j < 1:
        raise ValueError("j must be >= 1")
    return spec, (p ** j + 1) // 2


def _exponents(p: int, d_list: Sequence[int] | None) -> list[int]:
    """The exponents to tally: every unit 1..p-1 by default; rejects d = 0 mod p."""
    if d_list is None:
        return list(range(1, p))
    if any(d % p == 0 for d in d_list):
        raise ValueError("d must be a unit mod p")
    return list(dict.fromkeys(d_list))


def make_target(p: int, q: int, j: int, d: int) -> PthPowerTarget:
    """Build the target for (p, q, j, d); rejects d = 0 mod p."""
    spec, n = _instance(p, q, j)
    if d % p == 0:
        raise ValueError("d must be a unit mod p")
    d %= p
    sigma = (-1) ** (j * (p - 1) // 2)
    A = _corner_block(n, sigma * d % p)  # an int of GF(p) is its own code
    g = SylowElem._from_codes(spec, _unit_block(n), A)
    return PthPowerTarget(spec=spec, j=j, d=d, n=n, sigma=sigma, g=g)


def _corner_block(n: int, c: int) -> Block:
    """The n x n code block with c at (n-1, n-1) and zeros elsewhere."""
    return ((0,) * n,) * (n - 1) + ((0,) * (n - 1) + (c,),)


def characterization_holds(x: SylowElem, target: PthPowerTarget) -> bool:
    """The closed solvability condition: A[0,0] * upsilon(L, j) = d."""
    return x.corner() * upsilon(x, target.j) == target.d_elem()


def solve_pth_power(target: PthPowerTarget, x: FieldElem) -> SylowElem:
    """A solution X of X^(p^j) = g^d with prescribed corner A[0,0] = x.

    Needs x nonzero with the same residue class as d, since the superdiagonal
    product d / x must be a nonzero square, and q <= TABLE_BOUND, since its
    square root is read from the field's exp/log tables.  The result is
    verified against the closed power formula before being returned.
    """
    spec, n = target.spec, target.n
    if x.spec != spec:
        raise ValueError("x must live in the target's field")
    if x.is_zero():
        raise ValueError("corner value must be nonzero")
    d_elem = target.d_elem()
    if x.legendre() != d_elem.legendre():
        raise ValueError(
            f"no solution with corner {x}: d/x = {d_elem / x} is not a nonzero square"
        )
    # d/x is a nonzero square, so its log is even and its roots are
    # +-exp[log(d/x) / 2]; the one of smaller index is the first in index order
    t = spec.tables()
    root = spec.from_index(t["exp"][t["log"][(d_elem / x).index()] // 2])
    v = min(root, -root, key=FieldElem.index)
    # v, then ones, on the superdiagonal of L; zeros above it
    entries = [(v if i == 0 else spec.one) if c == i + 1 else spec.zero
               for i in range(n) for c in range(i + 1, n)]
    L = UniTriMat(spec, n, entries)
    S = MatFq.elementary(spec, n, 0, 0, x)
    sol = SylowElem.from_symmetric(L, S)
    if sol.pow(target.m) != target.g:
        raise AssertionError("constructed element failed power verification")
    return sol


# -- solution counts -------------------------------------------------------------


def count_solutions(target: PthPowerTarget) -> int:
    """Exact |{X : X^(p^j) = g^d}|, independent of d.

    Nonzero superdiagonal tuples pin the corner A[0,0]; everything else is
    free: (q-1)^(n-1) * q^((n-1)(n-2)/2) * q^(n(n+1)/2 - 1).
    """
    q, n = target.spec.q, target.n
    return (q - 1) ** (n - 1) * q ** _free_exponent(n)


def _free_exponent(n: int) -> int:
    """log_q of the ways a (corner, superdiagonal) choice extends to a solution.

    The free entries are the strictly-upper entries of L off the
    superdiagonal and the free symmetric data S = A L apart from the corner.
    """
    return (n - 1) * (n - 2) // 2 + n * (n + 1) // 2 - 1


def _nonzero_slot_fold(spec: FieldSpec, y_logs: Sequence[int],
                       joint: bool) -> dict[tuple[int, int], int]:
    """{(log a, log C): number of x on the slots whose y_i != 0, log y_i in y_logs}.

    Each such x_i sets w = 1 + y_i/x_i in GF(q) minus {0, 1} (w = 0 gives b = 0,
    which no d matches) and adds y_i^2 / (w-1)^2 to a and w^2 to C: one step
    array for every slot, 2 log y_i carried by the start state.  With joint
    false, log a is held at 0: the marginal of log C.  Needs q <= TABLE_BOUND.
    """
    m = spec.q - 1
    states = {(2 * sum(y_logs) % m if joint else 0, 0): 1}
    if not y_logs:
        return states
    t = spec.tables()
    exp, log = t["exp"], t["log"]
    succ = spec.add_map(1)
    steps: dict[tuple[int, int], int] = {}
    for lv in range(m):  # v = w - 1 = y_i / x_i
        w = succ[exp[lv]]
        if w:
            key = (-2 * lv % m if joint else 0, 2 * log[w] % m)
            steps[key] = steps.get(key, 0) + 1
    for _ in y_logs:
        folded: dict[tuple[int, int], int] = {}
        for (la, lc), count in states.items():
            for (sa, sc), k in steps.items():
                key = ((la + sa) % m, (lc + sc) % m)
                folded[key] = folded.get(key, 0) + count * k
        states = folded
    return states


# -- the brute scan ------------------------------------------------------------------


def __getattr__(name: str):
    # the benchmark's tracer wraps the scan worker under its former name here
    if name == "_scan_worker":
        from . import scan

        return scan._scan_worker
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def brute_characterization_scan(
    p: int,
    q: int,
    j: int,
    d_list: Sequence[int] | None = None,
    u: SylowElem | None = None,
    threads: int | None = None,
) -> dict:
    """Power every element of P(Sp_2n(q)) and tally the solutions per d.

    Returns {"counts": {d: |solutions|}, "agree": bool, "gm": {d: count} | None}
    where "agree" asserts that the brute solution sets coincide with the
    closed characterization on every element scanned.  Raises ValueError
    before any work when the float32 kernel could not hold the scan's
    products exactly (`scan._check_scan_exact`).  Partitions hold whole orbits
    of L-blocks under u (`scan._block_order`), so each resolves its own a u.
    """
    from . import scan

    spec, n = _instance(p, q, j)
    scan._check_scan_exact(p, spec.n, n)
    d_list = _exponents(p, d_list)
    u_int = None if u is None else scan._embed_matrix(u.to_matrix())
    r = scan._block_order(q, n, u_int)[1]
    results = run_partitioned(
        lambda lo, hi: scan._scan_worker(q, n, j, d_list, u_int, lo * r, hi * r),
        0,
        q ** (n * (n - 1) // 2) // r,
        threads,
    )
    counts = {d: 0 for d in d_list}
    gm = {d: 0 for d in d_list} if u is not None else None
    agree = True
    for part_counts, part_agree, part_gm in results:
        agree = agree and part_agree
        for d in d_list:
            counts[d] += part_counts[d]
            if gm is not None:
                gm[d] += part_gm[d]
    return {"counts": counts, "agree": agree, "gm": gm}


# -- the two G_m(u, g) routes ---------------------------------------------------


def gm_count(
    u: SylowElem,
    p: int,
    q: int,
    j: int,
    d_list: Sequence[int] | None = None,
    mode: str = "fast",
    threads: int | None = None,
) -> dict[int, int]:
    """{d: |{a in P : a^(p^j) = (a u)^(p^j) = g^d}|} for d in d_list (default 1..p-1).

    The fast mode intersects the closed characterizations for a and a*u, which
    depend only on the corner A[0,0] and the superdiagonal of L, and reads every
    d from one fold; the brute mode, the oracle, runs one scan for this u
    that tallies every d.
    """
    spec, n = _instance(p, q, j)
    d_list = _exponents(p, d_list)
    if u.spec != spec or u.n != n:
        raise ValueError("u must live in the target's block group")
    if mode == "fast":
        return _gm_count_fast(u, d_list)
    if mode == "brute":
        out = brute_characterization_scan(p, q, j, d_list, u=u, threads=threads)
        if not out["agree"]:
            raise AssertionError("brute scan disagrees with characterization")
        return out["gm"]
    raise ValueError(f"unknown mode {mode!r}")


def _gm_count_fast(u: SylowElem, d_list: Sequence[int]) -> dict[int, int]:
    spec = u.spec
    # a solution's corner is d / a, and a*u is one iff (d / a + A_u[0,0]) a C = d;
    # each such (corner, superdiagonal) extends q^F ways through the free entries
    t = spec.tables()
    exp, log = t["exp"], t["log"]
    m = spec.q - 1
    y_logs = [log[y.index()] for y in u.superdiagonal() if not y.is_zero()]
    zeros = u.n - 1 - len(y_logs)
    states = _nonzero_slot_fold(spec, y_logs, joint=not zeros)
    plus_corner = spec.add_map(u.corner().index())
    d_logs = {d: log[d % spec.p] for d in d_list}  # the index of d in GF(p) is d mod p
    weight = spec.q ** _free_exponent(u.n)
    if zeros:
        # log a is uniform over the even residues, 2 (q-1)^(zeros-1) tuples each:
        # e = d / a runs over d's square class, matching iff C = e / (e + A_u[0,0])
        weight *= 2 * m ** (zeros - 1)
        by_class = [0, 0]
        for le in range(m):
            s = plus_corner[exp[le]]
            if s:
                by_class[le % 2] += states.get((0, (le - log[s]) % m), 0)
        matches = {d: by_class[ld % 2] for d, ld in d_logs.items()}
    else:
        matches = dict.fromkeys(d_logs, 0)
        for (la, lc), count in states.items():
            for d, ld in d_logs.items():
                s = plus_corner[exp[(ld - la) % m]]
                if s and (log[s] + la + lc) % m == ld:
                    matches[d] += count
    return {d: k * weight for d, k in matches.items()}


# -- reports ------------------------------------------------------------------------


@dataclass(frozen=True)
class FszRow:
    u_name: str
    u: SylowElem
    counts: dict[int, int]

    def uniform(self) -> bool:
        return len(set(self.counts.values())) <= 1


@dataclass(frozen=True)
class FszReport:
    """Count table |G_m(u, g^d)| with the verdict it supports.

    A non-uniform row is an explicit witness that the group fails the
    count-equality property at g; uniform rows certify nothing unless the
    u-set was the whole group.  The verdict is "non-FSZ_m-at-z" with a
    witness, "FSZ_m-at-z" when uniform over the whole group, and
    "inconclusive-nonexhaustive" when uniform over a proper u-set.
    """

    group: str
    m: int
    z: str
    rows: tuple[FszRow, ...]
    verdict: str
    witness: str | None = None
    betas: tuple["BetaValue", ...] = dc_field(default=())

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "m": self.m,
            "z": self.z,
            "rows": [
                {"u": r.u_name, "counts": {str(d): c for d, c in sorted(r.counts.items())}}
                for r in self.rows
            ],
            "verdict": self.verdict,
            "witness": self.witness,
            "beta": [b.to_json() for b in self.betas],
        }


def fsz_test_at(
    p: int,
    q: int,
    j: int,
    u_set: Sequence[tuple[str, SylowElem]] | None = None,
    mode: str = "fast",
    threads: int | None = None,
    with_betas: bool = False,
) -> FszReport:
    """Tabulate |G_m(u, g^d)| over d in 1..p-1 and the given u-set, one row per u.

    Exponents coprime to the group order reduce to units mod p on the cyclic
    group generated by g, so this d-range is a complete test set at g.
    """
    target = make_target(p, q, j, 1)
    spec, n = target.spec, target.n
    if u_set is None:
        u_set = [
            ("identity", SylowElem.identity(spec, n)),
            ("U", u_witness(spec, n)),
        ]
    rows = [
        FszRow(name, u, gm_count(u, p, q, j, mode=mode, threads=threads))
        for name, u in u_set
    ]
    m = target.m
    witness = next((r.u_name for r in rows if not r.uniform()), None)
    exhaustive = len({u for _, u in u_set}) >= sylow_count(n, q)
    if witness is not None:
        verdict = f"non-FSZ_{m}-at-z"
    elif exhaustive:
        verdict = f"FSZ_{m}-at-z"
    else:
        verdict = "inconclusive-nonexhaustive"
    betas: tuple[BetaValue, ...] = ()
    if with_betas:
        betas = tuple(beta_linear_batch(list(spec.units()), target))
    return FszReport(
        group=f"P(Sp_{2 * n}({q}))",
        m=m,
        z=target.describe(),
        rows=tuple(rows),
        verdict=verdict,
        witness=witness,
        betas=betas,
    )


# -- beta values -----------------------------------------------------------------


@dataclass(frozen=True)
class BetaValue:
    """An exact squared character sum over m-th roots of z, with its verdict."""

    value: CycNum
    rational: bool
    rational_value: int | None
    zparam: int | list | None = None

    def to_json(self) -> dict:
        return {"zparam": self.zparam, "rational": self.rational,
                "coeffs": self.value.to_json()["coeffs"]}


def _beta(value: CycNum, zparam: int | list | None = None) -> BetaValue:
    rational, rv = value.is_rational()
    return BetaValue(value=value, rational=rational, rational_value=rv, zparam=zparam)


def _check_central(target: PthPowerTarget) -> None:
    # g = (I, D) with D = c E[n-1, n-1] is central: for x = (L, A), x g adds
    # L^T D to A and g x adds D L^-1, and both equal D because the last row of
    # an upper unitriangular L, and of its inverse, is e_{n-1}.  So the block
    # pattern of g is checked on its codes per target, never assumed.
    g, n = target.g, target.n
    if g._L != _unit_block(n) or g._A != _corner_block(n, g._A[n - 1][n - 1]):
        raise AssertionError("target element does not have the central block pattern")


def beta_linear(zparam: FieldElem, target: PthPowerTarget) -> BetaValue:
    """Exact beta for the corner character lambda(x) = zeta^tr(zparam x)."""
    return beta_linear_batch([zparam], target)[0]


def beta_linear_batch(
    zparams: Sequence[FieldElem], target: PthPowerTarget
) -> list[BetaValue]:
    """beta_linear for each zparam in closed form, after one centrality check.

    A solution's corner is d / w, with w = upsilon(L, j) spread evenly over
    the nonzero squares (2 (q-1)^(n-2) superdiagonals each, each extended in
    q^F ways), and the sum of zeta^tr(c s) over the nonzero squares s is
    (eta(c) G - 1)/2.  So beta = q^(2F) (q-1)^(2n-4) |eta(zparam d) G - 1|^2:
    two values per target, and G = -(-G(p))^f needs no table.  A list as
    long as the unit group (every unit, as `fsz_test_at` and `sylow beta`
    pass it) reads each eta(zparam) from the square mask of `qr_set()`,
    which costs less than q - 1 Euler criteria; a shorter one calls
    `legendre()`, so a single zparam never builds the mask.
    """
    spec, n, q = target.spec, target.n, target.spec.q
    for zparam in zparams:
        if zparam.spec != spec:
            raise ValueError("zparam must live in the target's field")
        if zparam.is_zero():
            raise ValueError("zparam must be nonzero (trivial character excluded)")
    _check_central(target)
    gauss = gauss_sum_via_prime(spec.p, spec.n)
    scale = q ** (2 * _free_exponent(n)) * (q - 1) ** (2 * n - 4)
    eta_d = spec.elem(target.d).legendre()
    if len(zparams) >= q - 1:
        squares = spec.qr_set()
        etas = [eta_d if zparam in squares else -eta_d for zparam in zparams]
    else:
        etas = [zparam.legendre() * eta_d for zparam in zparams]
    rows = {}  # (value, rational, rational_value), one rationality test per eta
    for eta in set(etas):
        value = (gauss * eta - 1).norm_sq() * scale
        rows[eta] = (value, *value.is_rational())
    return [BetaValue(*rows[eta], zparam.to_json()) for zparam, eta in zip(zparams, etas)]


def beta_definitional(
    chi: Callable[[SylowElem], CycNum],
    m: int,
    z: SylowElem,
    elements: Iterable[SylowElem],
) -> BetaValue:
    """The double-sum route: ||sum of chi(a) over a^m = z||^2 by enumeration."""
    p = z.spec.p
    inner = CycNum.zero(p)
    for a in elements:
        if a.pow(m) == z:
            inner = inner + chi(a)
    return _beta(inner.norm_sq())


def beta_via_counts(
    chi: Callable[[SylowElem], CycNum],
    m: int,
    z: SylowElem,
    elements: Sequence[SylowElem],
) -> BetaValue:
    """The count-expansion route: sum over u of |G_m(u, z)| chi(u).

    Valid for central z and linear chi, where it must equal the definitional
    double sum exactly; the identity needs the full element list, the
    computation does not.  Each listed element is powered once, and the m-th
    power of a u is read from that table; a product outside the list is
    powered directly, so any list gives the sum it defines.
    """
    p = z.spec.p
    powers = {a: a.pow(m) for a in elements}
    hits = [a for a in elements if powers[a] == z]
    total = CycNum.zero(p)
    for u in elements:
        count = 0
        for a in hits:
            au = a * u
            if (powers.get(au) or au.pow(m)) == z:
                count += 1
        if count:
            total = total + chi(u) * count
    return _beta(total)


def kappa_character(spec: FieldSpec, n: int, weights: Sequence[int | FieldElem]):
    """Linear character of P from additive characters along the kappa tuple."""
    if len(weights) != n:
        raise ValueError(f"expected {n} weights")
    ws = [spec.elem(w) if isinstance(w, int) else w for w in weights]

    def chi(x: SylowElem) -> CycNum:
        t = 0
        for w, comp in zip(ws, kappa(x)):
            t += (w * comp).trace()
        return CycNum.zeta(spec.p, t % spec.p)

    return chi


# -- the pair-count comparison ------------------------------------------------------


def witness_pair_count(spec: FieldSpec, d: int | FieldElem, mode: str = "closed") -> int:
    """Pairs (a, b) with a b^2 = (a+1)(b+1)^2 = d y for a shared nonzero square y.

    Defined under the standing hypothesis -1 in QR(q).  Closed value is
    (q-5)/2 for d a nonzero square and (q-1)/2 otherwise; the enumeration
    mode loops over all of GF(q)^2 on the field's index tables, so it needs
    q <= TABLE_BOUND.
    """
    if not spec.minus_one_is_qr():
        raise ValueError("pair count formula requires -1 to be a square in GF(q)")
    d_elem = spec.elem(d) if isinstance(d, int) else d
    if d_elem.spec != spec:
        raise ValueError("d must live in the field of spec")
    ld = d_elem.legendre()
    if ld == 0:
        raise ValueError("d must be nonzero")
    q = spec.q
    if mode == "closed":
        return (q - 5) // 2 if ld == 1 else (q - 1) // 2
    if mode != "enum":
        raise ValueError(f"unknown mode {mode!r}")
    # on index codes: a product is a sum of logs mod q - 1, x + 1 steps the
    # low base-p digit, and a nonzero element is a square when its log is even
    log = spec.tables()["log"]
    m = q - 1
    succ = spec.add_map(1)
    parity = 0 if ld == 1 else 1
    count = 0
    for a in range(q):
        a1 = succ[a]
        for b in range(q):
            b1 = succ[b]
            # v1 = a b^2 must be nonzero and equal v2 = (a+1)(b+1)^2
            if 0 in (a, b, a1, b1):
                continue
            lv1 = (log[a] + 2 * log[b]) % m
            if lv1 == (log[a1] + 2 * log[b1]) % m and lv1 % 2 == parity:
                count += 1
    return count


# -- witness search ---------------------------------------------------------------


# the orders k with phi(k) <= 2, those of the roots of unity in Q or a quadratic field
QUADRATIC_ORDERS = (1, 2, 3, 4, 6)


@dataclass(frozen=True)
class WitnessSearchResult:
    found: bool
    u_name: str | None = None
    u: SylowElem | None = None
    char_order: int | None = None


def witness_order_search(
    report: FszReport, chi: Callable[[SylowElem], CycNum]
) -> WitnessSearchResult:
    """Find a non-uniform row whose character value has order outside QUADRATIC_ORDERS.

    found=False reports that the u-set was searched to its end; it claims no
    negative beyond that set.
    """
    for row in report.rows:
        if row.uniform():
            continue
        val = chi(row.u)
        order = _root_of_unity_order(val)
        if order is not None and order not in QUADRATIC_ORDERS:
            return WitnessSearchResult(found=True, u_name=row.u_name, u=row.u, char_order=order)
    return WitnessSearchResult(found=False)


def _root_of_unity_order(val: CycNum) -> int | None:
    one = CycNum.one(val.p)
    acc = val
    for k in range(1, 2 * val.p + 1):
        if acc == one:
            return k
        acc = acc * val
    return None


# -- small-group brute machinery ----------------------------------------------------


GROUP_ELEMENTS_LIMIT = 200_000  # elements sylow_group_elements will materialize


def sylow_group_elements(spec: FieldSpec, n: int) -> list[SylowElem]:
    """Materialize the whole block group; refuses past GROUP_ELEMENTS_LIMIT."""
    total = sylow_count(n, spec.q)
    if total > GROUP_ELEMENTS_LIMIT:
        raise BudgetExceeded(total, GROUP_ELEMENTS_LIMIT)
    return list(enumerate_sylow(spec, n))


def center_of(elements: Sequence) -> list:
    """Brute-force center of a small group given by its element list."""
    return [z for z in elements if all(z * x == x * z for x in elements)]


def fsz_brute_small(
    elements: Sequence,
    m: int,
    mul: Callable = None,
    identity=None,
    zs: Sequence | None = None,
) -> tuple[bool, dict | None]:
    """Exhaustive count-equality test for a small group.

    For every z (or just those in zs), compares |{a : a^m = (a u)^m = z^d}|
    across the exponents d that are units modulo the order of z, for every u.
    Returns (True, None) when all counts match, else (False, the first
    violation found).
    """
    mul = (lambda a, b: a * b) if mul is None else mul
    if identity is None:
        identity = next(a for a in elements if all(mul(a, b) == b for b in elements[:4]))
    pow_m = [power(a, m, mul, identity) if m >= 1 else identity for a in elements]

    def order_of(z):
        k, acc = 1, z
        while acc != identity:
            acc = mul(acc, z)
            k += 1
        return k

    for z in elements if zs is None else zs:
        o = order_of(z)
        ds = [d for d in range(1, o) if gcd(d, o) == 1] or [1]
        if len(ds) <= 1:
            continue
        z_powers = {d: power(z, d, mul, identity) for d in ds}
        for u in elements:
            counts = {}
            for d, zd in z_powers.items():
                counts[d] = sum(
                    1
                    for a, am in zip(elements, pow_m)
                    if am == zd and power(mul(a, u), m, mul, identity) == zd
                )
            if len(set(counts.values())) > 1:
                return False, {"z": z, "u": u, "counts": counts}
    return True, None
