"""Structure of the centralizer of the unipotent target inside Sp_2n(q).

For g = I + sigma*d*E[n-1, 2n-1] the centralizer consists of the symplectic
matrices whose column n-1 and row 2n-1 vanish off the diagonal and whose two
surviving diagonal entries agree (a scalar Lambda, forced to be +-1).  Such a
matrix projects onto a symplectic matrix of dimension 2n-2 together with
Lambda; the projection is a surjective homomorphism with a block-diagonal
section and an exponent-p kernel that contains g itself.

Everything here is property-tested rather than proved: predicates come in
two independent forms (commutation and block pattern), the projection is
checked to be multiplicative on random pairs, and kernel elements are powered
both in closed form and directly.

Membership is checked once, when the section or the kernel parametrization
builds a CentElem; products are trusted, since the centralizer is a group.

The ambient center {+-I} lies inside the centralizer and projects onto the
sign factor (pi(-I) = (-I, -1)), so statements about the projective quotient
need no machinery of their own.
"""

from __future__ import annotations

from typing import Sequence

from .fields import FieldElem, FieldSpec
from .fsz import PthPowerTarget
from .matrices import MatFq, is_symplectic


class CentElem:
    """An element of the centralizer of the target's g in Sp_2n(q).

    The constructor checks that mat is symplectic and commutes with g;
    products are trusted, since the centralizer is a group.
    """

    __slots__ = ("mat", "target")

    def __init__(self, mat: MatFq, target: PthPowerTarget):
        g = target.g.to_matrix()
        if not is_symplectic(mat):
            raise ValueError("centralizer elements must be symplectic")
        if mat @ g != g @ mat:
            raise ValueError("matrix does not commute with the target element")
        self.mat = mat
        self.target = target

    @property
    def lam(self) -> FieldElem:
        n = self.target.n
        return self.mat.rows[n - 1][n - 1]

    def __mul__(self, other: "CentElem") -> "CentElem":
        if not isinstance(other, CentElem):
            return NotImplemented
        prod = object.__new__(CentElem)
        prod.mat = self.mat @ other.mat
        prod.target = self.target
        return prod

    def __eq__(self, other):
        if isinstance(other, CentElem):
            return self.mat == other.mat
        return NotImplemented

    def __hash__(self):
        return hash(self.mat)

    def __repr__(self):
        return f"CentElem(dim={self.mat.nrows}, Lambda={self.lam.to_json()})"


def centralizer_pattern(M: MatFq, target: PthPowerTarget) -> bool:
    """Block-pattern membership: off-diagonal column n-1 and row 2n-1 vanish.

    Independent of the commutation test; the two must agree on symplectic
    inputs.
    """
    n = target.n
    two_n = 2 * n
    if M.nrows != two_n or M.ncols != two_n:
        raise ValueError(f"expected a {two_n} x {two_n} matrix")
    for i in range(two_n):
        if i != n - 1 and not M.rows[i][n - 1].is_zero():
            return False
    for j in range(two_n):
        if j != two_n - 1 and not M.rows[two_n - 1][j].is_zero():
            return False
    return M.rows[n - 1][n - 1] == M.rows[two_n - 1][two_n - 1]


def is_in_centralizer(M: MatFq, target: PthPowerTarget, method: str = "both") -> bool:
    """Centralizer membership for a symplectic M, by either or both predicates."""
    if not is_symplectic(M):
        raise ValueError("membership is only defined for symplectic matrices")
    g = target.g.to_matrix()
    if method == "commute":
        return M @ g == g @ M
    if method == "pattern":
        return centralizer_pattern(M, target)
    if method == "both":
        by_commute = M @ g == g @ M
        by_pattern = centralizer_pattern(M, target)
        if by_commute != by_pattern:
            raise AssertionError("centralizer predicates disagree")
        return by_commute
    raise ValueError(f"unknown method {method!r}")


def _lambda_sign(lam: FieldElem) -> int:
    spec = lam.spec
    if lam == spec.one:
        return 1
    if lam == -spec.one:
        return -1
    raise ValueError("corner scalar is not +-1")


def pi(M: CentElem | MatFq, target: PthPowerTarget) -> tuple[MatFq, int]:
    """Project a centralizer element to (Sp_(2n-2)(q), +-1) by block extraction."""
    mat = M.mat if isinstance(M, CentElem) else M
    n = target.n
    if not isinstance(M, CentElem) and not is_in_centralizer(mat, target, "both"):
        raise ValueError("matrix is not in the centralizer")
    outer = list(range(n - 1)) + list(range(n, 2 * n - 1))
    image = mat.submatrix(outer, outer)
    if not is_symplectic(image):
        raise AssertionError("projected block is not symplectic")
    return image, _lambda_sign(mat.rows[n - 1][n - 1])


def pi_section(S: MatFq, lam: int, target: PthPowerTarget) -> CentElem:
    """The block-diagonal section: pi(pi_section(S, lam)) = (S, lam)."""
    if lam not in (1, -1):
        raise ValueError("lam must be +-1")
    if not is_symplectic(S):
        raise ValueError("section input must be symplectic")
    spec, n = target.spec, target.n
    k = S.nrows // 2
    if S.nrows != 2 * n - 2:
        raise ValueError(f"section input must have dimension {2 * n - 2}")
    lam_elem = spec.elem(lam)
    rows = [[spec.zero] * (2 * n) for _ in range(2 * n)]
    for bi, src_rows in enumerate((range(k), range(k, 2 * k))):
        for bj, src_cols in enumerate((range(k), range(k, 2 * k))):
            for ri, si in enumerate(src_rows):
                for rj, sj in enumerate(src_cols):
                    rows[bi * n + ri][bj * n + rj] = S.rows[si][sj]
    rows[n - 1][n - 1] = lam_elem
    rows[2 * n - 1][2 * n - 1] = lam_elem
    return CentElem(MatFq(spec, rows), target)


def kernel_element(
    target: PthPowerTarget,
    x: Sequence[FieldElem],
    a_col: Sequence[FieldElem],
    a_corner: FieldElem,
) -> CentElem:
    """A kernel element of pi from its free blocks.

    x fills the bottom row of the upper-left block, a_col the last column of
    the upper-right block (mirrored onto its last row, which the symplectic
    identity forces), and a_corner its corner; the last column of the
    lower-right block is forced to -x^T.
    """
    spec, n = target.spec, target.n
    if len(x) != n - 1 or len(a_col) != n - 1:
        raise ValueError(f"expected {n - 1} entries in x and a_col")
    rows = [
        [spec.one if i == j else spec.zero for j in range(2 * n)] for i in range(2 * n)
    ]
    for k, v in enumerate(x):
        rows[n - 1][k] = v
        rows[n + k][2 * n - 1] = -v
    for k, v in enumerate(a_col):
        rows[k][2 * n - 1] = v
        rows[n - 1][n + k] = v
    rows[n - 1][2 * n - 1] = a_corner
    return CentElem(MatFq(spec, rows), target)


def kernel_power_closed(K: CentElem, s: int) -> MatFq:
    """Closed form K^s = I + s (K - I): each entry of K - I is linear in the
    free blocks, so this is kernel_element(s x, s a_col, s a_corner)."""
    spec = K.target.spec
    I = MatFq.identity(spec, 2 * K.target.n)
    return I + (K.mat - I) * spec.elem(s)


def kernel_order_check(K: CentElem) -> bool:
    """K^s matches the closed form for s <= p, and K^p = I."""
    p = K.target.spec.p
    acc = K.mat
    for s in range(2, p + 1):
        acc = acc @ K.mat
        if acc != kernel_power_closed(K, s):
            return False
    return acc == MatFq.identity(K.target.spec, 2 * K.target.n)


def transvection(spec: FieldSpec, v: Sequence[FieldElem], scale: FieldElem) -> MatFq:
    """The symplectic transvection I + scale * (J v^T) v for a row vector v,
    where J = [[0, I], [-I, 0]] makes J v^T = (v[k:], -v[:k]) for k = dim / 2."""
    dim = len(v)
    if dim % 2:
        raise ValueError("transvections need an even dimension")
    k = dim // 2
    neg = -scale
    col = MatFq(spec, [[scale * x] for x in v[k:]] + [[neg * x] for x in v[:k]])
    return MatFq.identity(spec, dim) + col @ MatFq(spec, [list(v)])


def random_symplectic(spec: FieldSpec, dim: int, rng) -> MatFq:
    """A random product of 12 symplectic transvections.

    Deterministic under the given rng; no uniformity is claimed (or needed
    for property testing).
    """
    out = MatFq.identity(spec, dim)
    for _ in range(12):
        v = [spec.random(rng) for _ in range(dim)]
        if all(x.is_zero() for x in v):
            v[rng.randrange(dim)] = spec.one
        out = out @ transvection(spec, v, spec.random(rng))
    if rng.randrange(2):
        out = -out
    return out


def random_kernel_element(target: PthPowerTarget, rng) -> CentElem:
    spec, n = target.spec, target.n
    return kernel_element(
        target,
        [spec.random(rng) for _ in range(n - 1)],
        [spec.random(rng) for _ in range(n - 1)],
        spec.random(rng),
    )


def random_centralizer_elem(target: PthPowerTarget, rng) -> CentElem:
    """Section of a random (S, Lambda) times a random kernel element."""
    S = random_symplectic(target.spec, 2 * target.n - 2, rng)
    lam = 1 if rng.randrange(2) == 0 else -1
    return pi_section(S, lam, target) * random_kernel_element(target, rng)


def property_suites(target: PthPowerTarget, rng, samples: int) -> dict[str, dict[str, int]]:
    """Run the four sampled property suites; {suite: {"pass": k, "fail": k}}.

    The suites draw from rng in a fixed order, so a seed fixes every sample:
    predicate equivalence on centralizer and general symplectic matrices,
    multiplicativity of the projection, the section as a right inverse, and
    the order-p closed power form of kernel elements.  samples must be >= 1.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    spec, dim = target.spec, 2 * target.n

    def predicates_agree() -> bool:
        M = (random_centralizer_elem(target, rng).mat
             if rng.randrange(2) == 0 else random_symplectic(spec, dim, rng))
        return is_in_centralizer(M, target, "commute") == is_in_centralizer(M, target, "pattern")

    def projection_multiplies() -> bool:
        a = random_centralizer_elem(target, rng)
        b = random_centralizer_elem(target, rng)
        sa, la = pi(a, target)
        sb, lb = pi(b, target)
        sab, lab = pi(a * b, target)
        return sab == sa @ sb and lab == la * lb

    def section_inverts() -> bool:
        S = random_symplectic(spec, dim - 2, rng)
        lam = 1 if rng.randrange(2) == 0 else -1
        return pi(pi_section(S, lam, target), target) == (S, lam)

    def kernel_has_order_p() -> bool:
        return kernel_order_check(random_kernel_element(target, rng))

    results = {}
    for name, check in (("predicate_equivalence", predicates_agree),
                        ("projection_homomorphism", projection_multiplies),
                        ("section_identity", section_inverts),
                        ("kernel_order", kernel_has_order_p)):
        passed = sum(check() for _ in range(samples))
        results[name] = {"pass": passed, "fail": samples - passed}
    return results
