"""Root-counting and indicator-rationality tests for the block Sylow groups.

Two independent routes decide whether the Sylow p-subgroup P of Sp_2n(q)
(with 2n = p^j + 1) fails the count-equality property at the central
unipotent g = I + sigma * d * E[n-1, 2n-1]:

* counting: |G_m(u, g^d)| with G_m(u, g) = {a : a^m = (a u)^m = g} compared
  across exponents d coprime to p, in a fast closed-characterization mode and
  a brute full-enumeration mode that must agree (one pass per u serves all d);
* characters: the exact squared modulus beta of the character sum over the
  p^j-th roots of g, rational precisely when the counts cannot distinguish
  the exponents.

The closed characterization is A[0,0] * upsilon(L, j) = d; the brute route
powers every group element directly and doubles as the verification that the
characterization is exact.  It is vectorized over every GF(p^f): entries enter
one kernel over GF(p) through the regular representation of GF(p^f), which
powers fixed-size chunks of elements by exact float64 square-and-multiply.

The fast route never lists the q^(n-1) superdiagonals of L.  Both power
conditions see a superdiagonal x only through a = prod x_i^2 and
b = prod (x_i + y_i)^2, where y is the superdiagonal of u, so a dynamic
program folds the n-1 slots one at a time into a histogram of (a, b) values
with every x_i nonzero.  The double count sums the states with
(d/a + A_u[0,0]) * b = d for each d; with y = 0 the same histogram gives the
corner values d/a behind the betas.  The tuples are counted, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Sequence

import numpy as np

from .cyclotomic import CycNum
from .fields import FieldElem, FieldSpec, field_for_order
from .matrices import MatFq, UniTriMat
from .parallel import check_budget, run_partitioned
from .sylow import (
    SylowElem,
    enumerate_sylow,
    kappa,
    square_product,
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
    "SolutionSet",
    "count_solutions",
    "enumerate_solutions",
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

    def d_elem(self) -> FieldElem:
        return self.spec.elem(self.d)

    def describe(self) -> str:
        base = f"g{self.j}" if self.d == 1 else f"g{self.j}^{self.d}"
        return f"{base} in P(Sp_{2 * self.n}({self.spec.q}))"


def field_for_order_checked(p: int, q: int) -> FieldSpec:
    """The field of order q; rejects q that is not a power of p."""
    spec = field_for_order(q)
    if spec.p != p:
        raise ValueError(f"q = {q} is not a power of p = {p}")
    return spec


def _exponents(p: int, d_list: Sequence[int] | None) -> list[int]:
    """The exponents to tally: every unit 1..p-1 by default; rejects d = 0 mod p."""
    if d_list is None:
        return list(range(1, p))
    if any(d % p == 0 for d in d_list):
        raise ValueError("d must be a unit mod p")
    return list(dict.fromkeys(d_list))


def make_target(p: int, q: int, j: int, d: int) -> PthPowerTarget:
    """Build the target for (p, q, j, d); rejects d = 0 mod p."""
    spec = field_for_order_checked(p, q)
    if j < 1:
        raise ValueError("j must be >= 1")
    if d % p == 0:
        raise ValueError("d must be a unit mod p")
    d %= p
    n = (p ** j + 1) // 2
    sigma = (-1) ** (j * (p - 1) // 2)
    L = UniTriMat.identity(spec, n)
    A = MatFq.elementary(spec, n, n - 1, n - 1, sigma * d)
    return PthPowerTarget(spec=spec, j=j, d=d, n=n, sigma=sigma, g=SylowElem(L, A))


def characterization_holds(x: SylowElem, target: PthPowerTarget) -> bool:
    """The closed solvability condition: A[0,0] * upsilon(L, j) = d."""
    return x.corner() * upsilon(x, target.j) == target.d_elem()


def solve_pth_power(target: PthPowerTarget, x: FieldElem) -> SylowElem:
    """A solution X of X^(p^j) = g^d with prescribed corner A[0,0] = x.

    Needs x nonzero with the same residue class as d, since the superdiagonal
    product d / x must be a nonzero square.  The result is verified against
    the closed power formula before being returned.
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
    w = d_elem / x
    v = next(y for y in spec.elements() if y * y == w)
    entries = []
    for i in range(n):
        for j2 in range(i + 1, n):
            if j2 == i + 1:
                entries.append(v if i == 0 else spec.one)
            else:
                entries.append(spec.zero)
    L = UniTriMat(spec, n, entries)
    S = MatFq.elementary(spec, n, 0, 0, x)
    sol = SylowElem.from_symmetric(L, S)
    if sol.pow(target.m) != target.g:
        raise AssertionError("constructed element failed power verification")
    return sol


# -- solution sets ---------------------------------------------------------------


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


def _superdiagonal_histogram(
    spec: FieldSpec, shift: Sequence[FieldElem]
) -> dict[tuple[FieldElem, FieldElem], int]:
    """{(a, b): number of superdiagonals x} with a = prod x_i^2, b = prod (x_i+y_i)^2.

    y is the given shift (the superdiagonal of u, or zeros) and only tuples
    with every x_i nonzero are counted, since those are the superdiagonals
    that admit a solution.  The product is folded one slot at a time and equal
    (a, b) states are merged, so each slot costs at most (number of states) * q
    steps instead of the q^(n-1) tuples being listed.
    """
    nonzero = [x for x in spec.elements() if not x.is_zero()]
    states = {(spec.one, spec.one): 1}
    for y in shift:
        steps: dict[tuple[FieldElem, FieldElem], int] = {}
        for x in nonzero:
            s = x + y
            key = (x * x, s * s)
            steps[key] = steps.get(key, 0) + 1
        folded: dict[tuple[FieldElem, FieldElem], int] = {}
        for (a, b), count in states.items():
            for (sa, sb), k in steps.items():
                key = (a * sa, b * sb)
                folded[key] = folded.get(key, 0) + count * k
        states = folded
    return states


@dataclass(frozen=True)
class SolutionSet:
    """The solution set of a target, as a characterization plus exact count."""

    target: PthPowerTarget
    count: int
    elements: tuple[SylowElem, ...] | None = None

    def holds(self, x: SylowElem) -> bool:
        return characterization_holds(x, self.target)

    def verify_sample(self, rng, k: int = 20) -> None:
        """Spot-check both directions of the characterization on random elements.

        Random constructed solutions must power to g^d; random group elements
        must satisfy the power equation iff they satisfy the characterization.
        """
        t = self.target
        spec, n = t.spec, t.n
        for _ in range(k):
            x = spec.random(rng)
            while x.is_zero() or x.legendre() != t.d_elem().legendre():
                x = spec.random(rng)
            sol = solve_pth_power(t, x)
            if sol.pow(t.m) != t.g:
                raise AssertionError("sampled solution failed to power to the target")
        total = sylow_count(n, spec.q)
        for _ in range(k):
            x = sylow_from_index(spec, n, rng.randrange(total))
            if (x.pow(t.m) == t.g) != self.holds(x):
                raise AssertionError("characterization mismatch on a random element")


def enumerate_solutions(
    target: PthPowerTarget,
    budget: int | None = None,
    materialize: bool = False,
) -> SolutionSet:
    """The exact solution count, optionally with the members listed.

    Materializing filters the full group stream through the characterization
    and therefore requires the whole group to fit in the budget.
    """
    count = count_solutions(target)
    elements = None
    if materialize:
        total = sylow_count(target.n, target.spec.q)
        check_budget(total, budget)
        elements = tuple(
            x
            for x in enumerate_sylow(target.spec, target.n)
            if characterization_holds(x, target)
        )
        if len(elements) != count:
            raise AssertionError("materialized solution count disagrees with formula")
    return SolutionSet(target=target, count=count, elements=elements)


# -- vectorized brute scans ----------------------------------------------------------

_REGULAR_CACHE: dict[int, np.ndarray] = {}
_SYM_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _embed(q: int, idx: np.ndarray) -> np.ndarray:
    """The GF(p) regular representation of a matrix (or batch) of GF(q) indices.

    With q = p^f, x becomes the f x f matrix whose column k holds the
    coefficients of x t^k.  The map is an injective ring homomorphism, so
    powering commutes with it and one kernel over GF(p) serves every field;
    for f = 1 it is the identity.
    """
    table = _REGULAR_CACHE.get(q)
    if table is None:
        spec = field_for_order(q)
        f = spec.n
        t = spec.elem([0, 1]) if f > 1 else spec.one
        basis = [t ** k for k in range(f)]
        table = np.zeros((q, f, f), dtype=np.int64)
        for x in spec.elements():
            for k, b in enumerate(basis):
                table[x.index(), :, k] = (x * b).coeffs
        _REGULAR_CACHE[q] = table
    f = table.shape[1]
    rows, cols = idx.shape[-2:]
    blocks = table[idx].swapaxes(-3, -2)
    return blocks.reshape(idx.shape[:-2] + (rows * f, cols * f))


def _sym_blocks(q: int, n: int) -> np.ndarray:
    """All q^(n(n+1)/2) symmetric matrices, embedded, in canonical digit order."""
    key = (q, n)
    cached = _SYM_CACHE.get(key)
    if cached is not None:
        return cached
    k = n * (n + 1) // 2
    idx = np.arange(q ** k)
    S = np.zeros((q ** k, n, n), dtype=np.int64)
    for pos, (i, j) in enumerate(zip(*np.triu_indices(n))):
        digit = (idx // q ** (k - 1 - pos)) % q
        S[:, i, j] = digit
        S[:, j, i] = digit
    S = _embed(q, S)
    _SYM_CACHE[key] = S
    return S


def _decode_unitri(q: int, n: int, lidx: int) -> np.ndarray:
    k = n * (n - 1) // 2
    L = np.eye(n, dtype=np.int64)
    for pos, (i, j) in enumerate(zip(*np.triu_indices(n, 1))):
        L[i, j] = lidx // q ** (k - 1 - pos) % q
    return L


def _unitri_inv_int(L: np.ndarray, p: int) -> np.ndarray:
    n = L.shape[0]
    N = (L - np.eye(n, dtype=np.int64)) % p
    inv = np.eye(n, dtype=np.int64)
    term = np.eye(n, dtype=np.int64)
    for _ in range(n - 1):
        term = (-(term @ N)) % p
        inv = (inv + term) % p
    return inv


_SCAN_CHUNK = 2048  # symmetric blocks powered at once; bounds a partition's temporaries
_EXACT = 2 ** 53  # float64 holds every integer up to 2^53 exactly


def _reduce(Y: np.ndarray, p: int) -> np.ndarray:
    """Y mod p, exactly, for a float64 array of integers in [0, 2^53 - p].

    Write Y = k p + r with 0 <= r < p.  The correctly rounded quotient Y / p is
    at least k, a double.  For r > 0 it stays below k + 1: the true quotient
    lies (p - r) / p >= 1 / p under k + 1, more than half the spacing of
    doubles below k + 1, which is at most (k + 1) 2^-53 < 1 / p because
    p (k + 1) = Y - r + p < 2^53.  So the floor is k, and k p and Y - k p are
    exact.  (The quotient by the rounded reciprocal 1 / p can round up to k + 1.)
    """
    K = np.divide(Y, p)
    np.floor(K, out=K)
    K *= p
    return np.subtract(Y, K, out=K)


def _pow_mod(X: np.ndarray, e: int, p: int, bound: int) -> np.ndarray:
    """X^e mod p for a float64 batch of m x m integer matrices with entries in [0, bound].

    Left-to-right square-and-multiply, e >= 1, with m (p-1)^2 <= 2^53 - p.  A
    product of factors whose entries are bounded by b1 and b2 has entries
    bounded by m b1 b2; a factor is reduced mod p only when that bound would
    pass 2^53 - p.  Every product and partial sum is then a non-negative
    integer that float64 holds exactly, whatever the summation order, and the
    closing reduction is exact.
    """
    m = X.shape[-1]
    top = _EXACT - p
    if m * bound * bound > top:
        X, bound = _reduce(X, p), p - 1
    Y, b = X, bound
    for bit in bin(e)[3:]:
        if m * b * b > top:
            Y, b = _reduce(Y, p), p - 1
        Y, b = Y @ Y, m * b * b
        if bit == "1":
            if m * b * bound > top:
                Y, b = _reduce(Y, p), p - 1
            Y, b = Y @ X, m * b * bound
    return _reduce(Y, p)


def _scan_worker(
    q: int,
    n: int,
    j: int,
    d_list: Sequence[int],
    u_int: np.ndarray | None,
    lo: int,
    hi: int,
) -> tuple[dict[int, int], bool, dict[int, int] | None]:
    """Scan all elements whose L-index lies in [lo, hi).

    Every element is embedded over GF(p) and the power X^(p^j) is computed by
    exact float64 square-and-multiply, _SCAN_CHUNK symmetric blocks at a time,
    and compared entrywise against each target: once against the identity
    pattern the targets share off their corner block, then on that f x f block
    for each d.  The closed characterization is evaluated independently and
    the masks must coincide.  With u given (already embedded), products X u
    are powered the same way to count the double condition.
    """
    spec = field_for_order(q)
    p, f = spec.p, spec.n
    S = _sym_blocks(q, n)
    count_s = S.shape[0]
    e = p ** j
    nf = n * f
    m = 2 * nf
    sigma = (-1) ** (j * (p - 1) // 2)
    # g^d differs from the identity only in the block of entry (n-1, 2n-1)
    corner = np.s_[:, (n - 1) * f:n * f, m - f:m]
    corner_targets = {d: _embed(q, np.array([[(sigma * d) % p]])) for d in d_list}
    eye = np.eye(m)
    u_f = None if u_int is None else u_int.astype(np.float64)
    place = p ** np.arange(f)
    power_counts = {d: 0 for d in d_list}
    gm_counts = {d: 0 for d in d_list} if u_int is not None else None
    agree = True

    def matches(XP: np.ndarray) -> dict[int, np.ndarray]:
        off = XP == eye
        off[corner] = True
        base = off.all(axis=(1, 2))
        C = XP[corner]
        return {d: base & (C == T).all(axis=(1, 2)) for d, T in corner_targets.items()}

    X = np.zeros((min(_SCAN_CHUNK, count_s), m, m))
    for lidx in range(lo, hi):
        L_idx = _decode_unitri(q, n, lidx)
        Linv = _unitri_inv_int(_embed(q, L_idx), p)
        # the embedding of L^T, not the transpose of L's embedding
        X[:, :nf, :nf] = _embed(q, L_idx.T)
        X[:, nf:, nf:] = Linv
        ups = square_product(spec, [spec.from_index(int(x)) for x in np.diag(L_idx, 1)])
        for start in range(0, count_s, _SCAN_CHUNK):
            A = (S[start:start + _SCAN_CHUNK] @ Linv) % p
            Xc = X[:len(A)]
            Xc[:, :nf, nf:] = A
            masks = matches(_pow_mod(Xc, e, p, p - 1))
            if u_f is not None:
                umasks = matches(_pow_mod(Xc @ u_f, e, p, m * (p - 1) ** 2))
            # column 0 of the corner block holds the coefficients of A[0,0]
            corners = A[:, :f, 0] @ place
            for d, mask in masks.items():
                power_counts[d] += int(mask.sum())
                if ups.is_zero():
                    cmask = np.zeros(len(A), dtype=bool)
                else:
                    cmask = corners == (spec.elem(d) / ups).index()
                if not np.array_equal(mask, cmask):
                    agree = False
                if u_f is not None:
                    gm_counts[d] += int((mask & umasks[d]).sum())
    return power_counts, agree, gm_counts


def brute_characterization_scan(
    p: int,
    q: int,
    j: int,
    d_list: Sequence[int] | None = None,
    u: SylowElem | None = None,
    budget: int | None = None,
    threads: int | None = None,
) -> dict:
    """Power every element of P(Sp_2n(q)) and tally the solutions per d.

    Returns {"counts": {d: |solutions|}, "agree": bool, "gm": {d: count} | None}
    where "agree" asserts that the brute solution sets coincide with the
    closed characterization on every element scanned.
    """
    field_for_order_checked(p, q)
    n = (p ** j + 1) // 2
    d_list = _exponents(p, d_list)
    check_budget(sylow_count(n, q), budget)
    u_int = None
    if u is not None:
        u_int = _embed(q, np.array([[x.index() for x in r] for r in u.to_matrix().rows]))
    n_l = q ** (n * (n - 1) // 2)
    results = run_partitioned(
        lambda lo, hi: _scan_worker(q, n, j, d_list, u_int, lo, hi),
        0,
        n_l,
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
    budget: int | None = None,
    threads: int | None = None,
) -> dict[int, int]:
    """{d: |{a in P : a^(p^j) = (a u)^(p^j) = g^d}|} for d in d_list (default 1..p-1).

    The fast mode intersects the closed characterizations for a and a*u, which
    depend only on the corner A[0,0] and the superdiagonal of L, and reads every
    d from one histogram; the brute mode, the oracle, runs one scan for every d.
    """
    spec = field_for_order_checked(p, q)
    n = (p ** j + 1) // 2
    d_list = _exponents(p, d_list)
    if u.spec != spec or u.n != n:
        raise ValueError("u must live in the target's block group")
    if mode == "fast":
        return _gm_count_fast(u, d_list)
    if mode == "brute":
        out = brute_characterization_scan(p, q, j, d_list, u=u, budget=budget, threads=threads)
        if not out["agree"]:
            raise AssertionError("brute scan disagrees with characterization")
        return out["gm"]
    raise ValueError(f"unknown mode {mode!r}")


def _gm_count_fast(u: SylowElem, d_list: Sequence[int]) -> dict[int, int]:
    spec = u.spec
    a_u = u.corner()
    d_elems = {d: spec.elem(d) for d in d_list}
    matches = dict.fromkeys(d_elems, 0)
    # both power conditions see only (A[0,0], superdiagonal of L): a solution's
    # corner is d / a, and a*u is a solution iff (d / a + A_u[0,0]) * b = d; every
    # satisfying choice extends the same number of ways through the free entries
    for (a, b), count in _superdiagonal_histogram(spec, u.superdiagonal()).items():
        a_inv = a.inv()
        for d, d_elem in d_elems.items():
            if (d_elem * a_inv + a_u) * b == d_elem:
                matches[d] += count
    return {d: k * spec.q ** _free_exponent(u.n) for d, k in matches.items()}


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
            "beta": [
                {"zparam": b.zparam, "rational": b.rational,
                 "coeffs": b.value.to_json()["coeffs"]}
                for b in self.betas
            ],
        }


def fsz_test_at(
    p: int,
    q: int,
    j: int,
    u_set: Sequence[tuple[str, SylowElem]] | None = None,
    mode: str = "fast",
    budget: int | None = None,
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
        FszRow(name, u, gm_count(u, p, q, j, mode=mode, budget=budget, threads=threads))
        for name, u in u_set
    ]
    m = p ** j
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
        betas = tuple(beta_linear_batch(
            [zp for zp in spec.elements() if not zp.is_zero()], target
        ))
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
    rational_value: Fraction | None
    m: int
    z: str
    chi: str
    zparam: int | list | None = None

    def to_json(self) -> dict:
        out = {
            "m": self.m,
            "z": self.z,
            "chi": self.chi,
            "rational": self.rational,
            "coeffs": self.value.to_json()["coeffs"],
        }
        if self.zparam is not None:
            out["zparam"] = self.zparam
        if self.rational:
            out["value"] = [self.rational_value.numerator, self.rational_value.denominator]
        return out


def _beta_from_inner(
    inner: CycNum, m: int, z: str, chi: str, zparam: int | list | None = None
) -> BetaValue:
    value = inner.norm_sq()
    rational, rv = value.is_rational()
    return BetaValue(
        value=value, rational=rational, rational_value=rv, m=m, z=z, chi=chi, zparam=zparam
    )


def _check_central(target: PthPowerTarget) -> None:
    # g = (I, D) with D = c E[n-1, n-1] is central: for x = (L, A), x g adds
    # L^T D to A and g x adds D L^-1, and both equal D because the last row of
    # an upper unitriangular L, and of its inverse, is e_{n-1}.  So the block
    # pattern of g is checked per target, never assumed.
    g, n = target.g, target.n
    corner = MatFq.elementary(target.spec, n, n - 1, n - 1, g.A.rows[n - 1][n - 1])
    if g.L != UniTriMat.identity(target.spec, n) or g.A != corner:
        raise AssertionError("target element does not have the central block pattern")


def beta_linear(zparam: FieldElem, target: PthPowerTarget) -> BetaValue:
    """Exact beta for the corner character lambda(x) = zeta^tr(zparam x)."""
    return beta_linear_batch([zparam], target)[0]


def beta_linear_batch(
    zparams: Sequence[FieldElem], target: PthPowerTarget
) -> list[BetaValue]:
    """beta_linear for each zparam, with one centrality check and one histogram.

    Groups the sum over solutions by the achieved corner value: each nonzero
    square w = upsilon(L, j) pins the corner to d/w, and the number of
    elements sharing a corner is counted, not assumed.
    """
    spec = target.spec
    for zparam in zparams:
        if zparam.spec != spec:
            raise ValueError("zparam must live in the target's field")
        if zparam.is_zero():
            raise ValueError("zparam must be nonzero (trivial character excluded)")
    _check_central(target)
    d_elem = target.d_elem()
    multiplicity = spec.q ** _free_exponent(target.n)
    corner_counts = {
        d_elem / a: count * multiplicity
        for (a, _), count in _superdiagonal_histogram(
            spec, [spec.zero] * (target.n - 1)
        ).items()
    }
    betas = []
    for zparam in zparams:
        residue_vector = [0] * spec.p
        for x, count in corner_counts.items():
            residue_vector[(zparam * x).trace()] += count
        inner = CycNum.from_residue_vector(spec.p, residue_vector)
        betas.append(_beta_from_inner(
            inner, target.m, target.describe(), f"xi(zparam={zparam})", zparam.to_json()
        ))
    return betas


def beta_definitional(
    chi: Callable[[SylowElem], CycNum],
    m: int,
    z: SylowElem,
    elements: Iterable[SylowElem],
    chi_name: str = "chi",
) -> BetaValue:
    """The double-sum route: ||sum of chi(a) over a^m = z||^2 by enumeration."""
    p = z.spec.p
    inner = CycNum.zero(p)
    for a in elements:
        if a.pow(m) == z:
            inner = inner + chi(a)
    return _beta_from_inner(inner, m=m, z=repr(z), chi=chi_name)


def beta_via_counts(
    chi: Callable[[SylowElem], CycNum],
    m: int,
    z: SylowElem,
    elements: Sequence[SylowElem],
    budget: int | None = 100_000,
    chi_name: str = "chi",
) -> BetaValue:
    """The count-expansion route: sum over u of |G_m(u, z)| chi(u).

    Valid for central z and linear chi, where it must equal the definitional
    double sum exactly.  Needs the full element list, hence the budget.
    """
    check_budget(len(elements), budget)
    p = z.spec.p
    powers = [a.pow(m) for a in elements]
    hits = [a for a, am in zip(elements, powers) if am == z]
    total = CycNum.zero(p)
    for u in elements:
        count = sum(1 for a in hits if (a * u).pow(m) == z)
        if count:
            total = total + chi(u) * count
    rational, rv = total.is_rational()
    return BetaValue(
        value=total, rational=rational, rational_value=rv, m=m, z=repr(z), chi=chi_name
    )


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
    ld = d_elem.legendre()
    if ld == 0:
        raise ValueError("d must be nonzero")
    q = spec.q
    if mode == "closed":
        return (q - 5) // 2 if ld == 1 else (q - 1) // 2
    if mode != "enum":
        raise ValueError(f"unknown mode {mode!r}")
    # on index codes: a product is a sum of logs mod q - 1, x + 1 steps the
    # low base-p digit, and the Legendre symbol is the QR mask
    t = spec.tables()
    exp, log, qr = t["exp"], t["log"], t["qr"]
    p, m = spec.p, q - 1
    succ = [i + 1 if i % p != p - 1 else i + 1 - p for i in range(q)]
    want = 1 if ld == 1 else 0
    count = 0
    for a in range(q):
        a1 = succ[a]
        for b in range(q):
            b1 = succ[b]
            # v1 = a b^2 must be nonzero and equal v2 = (a+1)(b+1)^2
            if 0 in (a, b, a1, b1):
                continue
            lv1 = (log[a] + 2 * log[b]) % m
            if lv1 == (log[a1] + 2 * log[b1]) % m and qr[exp[lv1]] == want:
                count += 1
    return count


# -- witness search ---------------------------------------------------------------


@dataclass(frozen=True)
class WitnessSearchResult:
    found: bool
    exhausted: bool
    u_name: str | None = None
    u: SylowElem | None = None
    char_order: int | None = None


def witness_order_search(
    report: FszReport, chi: Callable[[SylowElem], CycNum]
) -> WitnessSearchResult:
    """Find a non-uniform row whose character value has order outside {1,2,3,4,6}.

    Reports exhaustion of the searched u-set rather than claiming a negative.
    """
    for row in report.rows:
        if row.uniform():
            continue
        val = chi(row.u)
        order = _root_of_unity_order(val)
        if order is not None and order not in (1, 2, 3, 4, 6):
            return WitnessSearchResult(
                found=True, exhausted=False, u_name=row.u_name, u=row.u, char_order=order
            )
    return WitnessSearchResult(found=False, exhausted=True)


def _root_of_unity_order(val: CycNum) -> int | None:
    one = CycNum.one(val.p)
    acc = val
    for k in range(1, 2 * val.p + 1):
        if acc == one:
            return k
        acc = acc * val
    return None


# -- small-group brute machinery ----------------------------------------------------


def sylow_group_elements(
    spec: FieldSpec, n: int, budget: int | None = 200_000
) -> list[SylowElem]:
    """Materialize the whole block group; refuses over budget."""
    total = sylow_count(n, spec.q)
    check_budget(total, budget)
    return list(enumerate_sylow(spec, n))


def center_of(elements: Sequence, mul: Callable = None) -> list:
    """Brute-force center of a small group given by its element list."""
    mul = (lambda a, b: a * b) if mul is None else mul
    return [z for z in elements if all(mul(z, x) == mul(x, z) for x in elements)]


def fsz_brute_small(
    elements: Sequence,
    m: int,
    mul: Callable = None,
    identity=None,
    zs: Sequence | None = None,
    budget: int | None = 1_000,
) -> tuple[bool, dict | None]:
    """Exhaustive count-equality test for a small group.

    For every z (or just those in zs), compares |{a : a^m = (a u)^m = z^d}|
    across the exponents d that are units modulo the order of z, for every u.
    Returns (True, None) when all counts match, else (False, the first
    violation found).
    """
    check_budget(len(elements), budget)
    mul = (lambda a, b: a * b) if mul is None else mul

    def power(a, e):
        acc = a
        for _ in range(e - 1):
            acc = mul(acc, a)
        return acc

    if identity is None:
        identity = next(
            a for a in elements if all(mul(a, b) == b for b in elements[: min(4, len(elements))])
        )
    pow_m = [power(a, m) if m >= 1 else identity for a in elements]

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
        z_powers = {}
        for d in ds:
            z_powers[d] = power(z, d)
        for u in elements:
            counts = {}
            for d, zd in z_powers.items():
                counts[d] = sum(
                    1
                    for a, am in zip(elements, pow_m)
                    if am == zd and power(mul(a, u), m) == zd
                )
            if len(set(counts.values())) > 1:
                return False, {"z": z, "u": u, "counts": counts}
    return True, None
