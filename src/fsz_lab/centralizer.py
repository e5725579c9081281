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
g's 2n x 2n embedding is built once per target (`PthPowerTarget.g_matrix`)
and read by every commutation test.
Random symplectic matrices are products of transvections, each applied as
a rank-one update on the int codes of `matrices`.

Matrices are built and read on those codes: the section and the kernel
parametrization place codes, and `pi`, `centralizer_pattern` and
`CentElem.lam` read them (`lam` wraps its one entry).  Validation stays
where input enters: `CentElem` checks every matrix it is built from, and
`kernel_element` checks that its free entries belong to the target's field.

The ambient center {+-I} lies inside the centralizer and projects onto the
sign factor (pi(-I) = (-I, -1)), so statements about the projective quotient
need no machinery of their own.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from .fields import FieldElem, FieldSpec
from .fsz import PthPowerTarget
from .matrices import MatFq, _encode_checked, _neg, _unit_block, is_symplectic


class CentElem:
    """An element of the centralizer of the target's g in Sp_2n(q).

    The constructor checks that mat is symplectic and commutes with g, whose
    embedding is built once per target; products are trusted, since the
    centralizer is a group.
    """

    __slots__ = ("mat", "target")

    def __init__(self, mat: MatFq, target: PthPowerTarget):
        g = target.g_matrix
        if not is_symplectic(mat):
            raise ValueError("centralizer elements must be symplectic")
        if mat @ g != g @ mat:
            raise ValueError("matrix does not commute with the target element")
        self.mat = mat
        self.target = target

    @property
    def lam(self) -> FieldElem:
        spec, n = self.mat.spec, self.target.n
        return FieldElem(spec, self.mat._codes[n - 1][n - 1])

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
    C = M._codes  # zero is code 0
    if any(C[i][n - 1] for i in range(two_n) if i != n - 1) or any(C[-1][:-1]):
        return False
    return C[n - 1][n - 1] == C[-1][-1]


def is_in_centralizer(M: MatFq, target: PthPowerTarget, method: str) -> bool:
    """Centralizer membership for a symplectic M, by the "commute" or the
    "pattern" predicate."""
    if not is_symplectic(M):
        raise ValueError("membership is only defined for symplectic matrices")
    if method == "commute":
        g = target.g_matrix
        return M @ g == g @ M
    if method == "pattern":
        return centralizer_pattern(M, target)
    raise ValueError(f"unknown method {method!r}")


def pi(M: CentElem, target: PthPowerTarget) -> tuple[MatFq, int]:
    """Project a centralizer element to (Sp_(2n-2)(q), +-1) by block extraction."""
    mat, n = M.mat, target.n
    outer = list(range(n - 1)) + list(range(n, 2 * n - 1))
    image = mat.submatrix(outer, outer)
    if not is_symplectic(image):
        raise AssertionError("projected block is not symplectic")
    lam = mat._codes[n - 1][n - 1]
    if lam == 1:
        return image, 1
    if lam == mat.spec.code.minus_one:
        return image, -1
    raise ValueError("corner scalar is not +-1")


def pi_section(S: MatFq, lam: int, target: PthPowerTarget) -> CentElem:
    """The block-diagonal section: pi(pi_section(S, lam)) = (S, lam)."""
    if lam not in (1, -1):
        raise ValueError("lam must be +-1")
    if not is_symplectic(S):
        raise ValueError("section input must be symplectic")
    spec, n = target.spec, target.n
    k = n - 1
    if S.nrows != 2 * k:
        raise ValueError(f"section input must have dimension {2 * k}")
    if S.spec is not spec and S.spec != spec:
        raise ValueError("section input must be over the target's field")
    # S's blocks fill rows and columns 0..k-1 and n..n+k-1; lam sits at
    # (k, k) and at the last corner, the rest of those two rows and columns is 0
    c = 1 if lam == 1 else spec.code.minus_one
    inner = [r[:k] + (0,) + r[k:] + (0,) for r in S._codes]
    rows = (inner[:k] + [(0,) * k + (c,) + (0,) * n]
            + inner[k:] + [(0,) * (2 * n - 1) + (c,)])
    return CentElem(MatFq._wrap(spec, tuple(rows)), target)


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
    xc, ac, (corner,) = _encode_checked(spec, (x, a_col, (a_corner,)))
    red, m1 = spec.code.reduce, spec.code.minus_one
    rows = [list(r) for r in _unit_block(2 * n)]
    for k in range(n - 1):
        rows[n - 1][k] = xc[k]
        rows[n + k][-1] = red(m1 * xc[k])
        rows[k][-1] = rows[n - 1][n + k] = ac[k]
    rows[n - 1][-1] = corner
    return CentElem(MatFq._wrap(spec, tuple(map(tuple, rows))), target)


def kernel_order_check(K: CentElem) -> bool:
    """K^s matches the closed form I + s (K - I) for s <= p, and K^p = I.

    Each entry of K - I is linear in the free blocks, so I + s (K - I) is
    kernel_element(s x, s a_col, s a_corner).  I and K - I are formed once;
    the closed side makes no matrix product.
    """
    spec = K.target.spec
    I = MatFq.identity(spec, 2 * K.target.n)
    step = K.mat - I
    acc = K.mat
    for s in range(2, spec.p + 1):
        acc = acc @ K.mat
        if acc != I + step * spec.elem(s):
            return False
    return acc == I


def random_symplectic(spec: FieldSpec, dim: int, rng) -> MatFq:
    """A random product of 12 symplectic transvections, on int codes.

    The transvection of a row vector v and a scalar is I + c v, where
    c = scale J v^T = (scale v[k:], -scale v[:k]) for J = [[0, I], [-I, 0]]
    and k = dim / 2, so multiplying it in is the rank-one update
    out <- out + (out c) v.  Deterministic under the given rng; no uniformity
    is claimed (or needed for property testing).
    """
    if dim % 2:
        raise ValueError("transvections need an even dimension")
    k = dim // 2
    code = spec.code
    red, m1, q = code.reduce, code.minus_one, spec.q
    out = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(12):
        v = [code.from_index(rng.randrange(q)) for _ in range(dim)]
        if not any(v):
            v[rng.randrange(dim)] = 1
        scale = code.from_index(rng.randrange(q))
        sv = [red(scale * x) for x in v]
        c = sv[k:] + [red(m1 * x) for x in sv[:k]]
        for i, row in enumerate(out):
            w = red(sum(map(mul, row, c)))
            if w:
                out[i] = [red(a + w * b) for a, b in zip(row, v)]
    if rng.randrange(2):
        out = _neg(out, code)
    return MatFq._wrap(spec, tuple(map(tuple, out)))


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
