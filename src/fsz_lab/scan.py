"""The brute scan's numpy kernel: every element of P(Sp_2n(q)) powered as a matrix.

The brute route doubles as the check that the closed characterization
A[0,0] * upsilon(L, j) = d is exact.  Entries of every GF(p^f) enter one
kernel over GF(p) through the regular representation, which powers chunks of
a fixed number of matrix entries by exact float32 square-and-multiply.  `fsz`
imports this module only when a brute scan runs (or `fsz._scan_worker` is
read), so no other process pays for loading numpy (about 13 MiB and 0.07 s).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .fields import field_for_order
from .matrices import MatFq
from .sylow import square_product, sylow_from_index

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
    """All q^(n(n+1)/2) symmetric matrices, embedded, in canonical digit order.

    Cached read-only as float32, the scan kernel's type, so every partition of
    every scan reads the one array and none keeps a converted copy.
    """
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
    S = _embed(q, S).astype(_SCAN_DTYPE)
    S.flags.writeable = False
    _SYM_CACHE[key] = S
    return S


def _embed_matrix(M: MatFq) -> np.ndarray:
    """_embed of a matrix over GF(q), read off its entries' indices."""
    return _embed(M.spec.q, np.array([[x.index() for x in r] for r in M.rows]))


_SCAN_DTYPE = "float32"  # the scan kernel's type
_SCAN_ENTRIES = 4096 * 36  # matrix entries powered at once: bounds every buffer and BLAS call


def _exact_limit(dtype) -> int:
    """2^(nmant + 1): the float type holds every integer up to it exactly (2^24 for float32)."""
    return 2 ** (np.finfo(dtype).nmant + 1)


def _check_scan_exact(p: int, f: int, n: int) -> None:
    """Refuse a scan whose float32 kernel would meet an integer it cannot hold exactly.

    With q = p^f and m = 2 n f, the kernel needs m (p-1)^2 <= 2^24 - p, the
    bound of a product of reduced factors over m terms (X X, E u, and a u's
    top-right block; S L^-1 and A' L' sum n f terms), and q < 2^24 for an
    element index read off its coefficients.
    """
    top = _exact_limit(_SCAN_DTYPE)
    q, m = p ** f, 2 * n * f
    if m * (p - 1) ** 2 > top - p or q >= top:
        raise ValueError(
            f"the brute scan of P(Sp_{2 * n}({q})) has products past "
            f"2^{top.bit_length() - 1}, which the float32 kernel does not hold exactly"
        )


def _reduce(Y: np.ndarray, p: int, out: np.ndarray) -> np.ndarray:
    """Y mod p, exactly, written into out, for a float array of integers in [0, T - p].

    T = 2^(nmant + 1) is the exactness limit of Y's type (2^24 for float32).
    out has Y's shape and type and shares no memory with it, since Y is read
    again after out is first written; the result is out.

    Write Y = k p + r with 0 <= r < p.  The correctly rounded quotient Y / p is
    at least k, a float.  For r > 0 it stays below k + 1: the true quotient
    lies (p - r) / p >= 1 / p under k + 1, more than half the spacing of
    floats below k + 1, which is at most (k + 1) / T < 1 / p because
    p (k + 1) = Y - r + p < T.  So the floor is k, and k p and Y - k p are
    exact.  (The quotient by the rounded reciprocal 1 / p can round up to k + 1.)
    """
    np.divide(Y, p, out=out)
    np.floor(out, out=out)
    out *= p
    return np.subtract(Y, out, out=out)


def _pow_mod(X: np.ndarray, e: int, p: int, out: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """X^e mod p for a float batch of m x m integer matrices with entries in [0, p - 1].

    Left-to-right square-and-multiply, e >= 1, with m (p-1)^2 <= T - p, where
    T = 2^(nmant + 1) is the exactness limit of X's type (2^24 for float32),
    as `_check_scan_exact` ensures for every scan.  A product of factors
    whose entries are bounded by b1 and b2 has entries bounded by m b1 b2; the
    running power is reduced mod p only when that bound would pass T - p.
    Every product and partial sum is then a non-negative integer that the
    type holds exactly, whatever the summation order, and the closing
    reduction is exact.

    out is a pair of arrays shaped and typed like X that share no memory with
    X or with each other.  Each product and reduction is written into the one
    that does not hold the running power, and the result is one of them; X is
    only read.
    """
    m = X.shape[-1]
    top = _exact_limit(X.dtype) - p
    bound = p - 1
    Y, b = X, bound

    def free() -> np.ndarray:
        return out[1] if Y is out[0] else out[0]

    for bit in bin(e)[3:]:
        if m * b * b > top:
            Y, b = _reduce(Y, p, free()), p - 1
        Y, b = np.matmul(Y, Y, out=free()), m * b * b
        if bit == "1":
            if m * b * bound > top:
                Y, b = _reduce(Y, p, free()), p - 1
            Y, b = np.matmul(Y, X, out=free()), m * b * bound
    return _reduce(Y, p, free())


def _index_reader(n: int, f: int, p: int, entries: list[tuple[int, int]]) -> np.ndarray:
    """W such that R.reshape(-1, (n f)^2) @ W holds the GF(q) indices of R's listed entries.

    R holds embedded n x n matrices: column 0 of an entry's block holds its coefficients.
    """
    W = np.zeros((n * f, n * f, len(entries)), dtype=_SCAN_DTYPE)
    for col, (i, j) in enumerate(entries):
        W[i * f:(i + 1) * f, j * f, col] = p ** np.arange(f)
    return W.reshape(-1, len(entries))


def _block_order(q: int, n: int, u_int: np.ndarray | None) -> tuple[np.ndarray | None, int]:
    """The L-indices in the scan's order for u, and the size r of u's orbits.

    a u has L-block L_u L_a: u permutes the L-blocks by L -> L_u L, whose
    orbits, the cosets <L_u> L, all have r = ord(L_u) blocks.  Each is listed
    from its least L-index along the map.  Without u: index order (None), r = 1.
    """
    if u_int is None:
        return None, 1
    spec = field_for_order(q)
    p, f = spec.p, spec.n
    k = n * (n - 1) // 2
    weights = q ** np.arange(k - 1, -1, -1)
    rows, cols = np.triu_indices(n, 1)  # L's free entries, row-major
    ident = np.arange(q ** k)
    Lt = np.zeros((len(ident), n, n), dtype=np.intp)
    Lt[:, range(n), range(n)] = 1  # the index of 1
    Lt[:, cols, rows] = ident[:, None] // weights % q
    # (L_u L)^T = L^T L_u^T
    image = (_embed(q, Lt) @ u_int[:n * f, :n * f] % p).reshape(len(ident), -1)
    step = (image @ _index_reader(n, f, p, list(zip(cols, rows))) @ weights).astype(np.intp)
    walk = [ident]
    while not np.array_equal(nxt := step[walk[-1]], ident):
        walk.append(nxt)
    orbits = np.stack(walk, axis=1)  # row i: i and its images along the map
    return orbits[orbits.min(axis=1) == ident].ravel(), len(walk)


def _join(target: np.ndarray, d: np.ndarray, block_codes: np.ndarray, p: int) -> np.ndarray:
    """The tally by d of the a whose a u, row target of the next block, has a's code d."""
    return np.bincount(d[block_codes[target] == d], minlength=p)


def _scan_worker(
    q: int,
    n: int,
    j: int,
    d_list: Sequence[int],
    u_int: np.ndarray | None,
    lo: int,
    hi: int,
) -> tuple[dict[int, int], bool, dict[int, int] | None]:
    """Scan all elements of the L-blocks at positions [lo, hi) of `_block_order`.

    Every element is embedded over GF(p) and the power X^(p^j) is computed by
    exact float32 square-and-multiply, _SCAN_ENTRIES // m^2 symmetric blocks
    at a time, into buffers the partition reuses.  Sizing chunks by entries
    keeps every buffer and every BLAS call below the same size for any m:
    past OpenBLAS's threading threshold a call wakes BLAS threads that spin
    against the other partitions.  Each power is read as a brute code:
    d mod p if it equals g^d for some unit d, else 0.  The closed
    characterization gives its own code from A[0,0] and the two must coincide
    on every element.

    With u (embedded), a u's code is read where a u itself is scanned, so
    each element is powered once.  [lo, hi) holds whole orbits, walked in
    order: a u lies in the next block (the orbit's first, after its last).
    X u's top-right block L^T u_TR + A u_BR is A', and S' = A' L' must be
    symmetric, with a u's S-index in its digits; outside that block X u is E u
    (E: A = 0), which must equal the next block's E.  A block's solving a
    wait as (S-index of a u, d) pairs for the next block's codes (`_join`).
    """
    spec = field_for_order(q)
    p, f = spec.p, spec.n
    S = _sym_blocks(q, n)
    count_s = S.shape[0]
    e = p ** j
    nf = n * f
    m = 2 * nf
    sigma = (-1) ** (j * (p - 1) // 2)
    order, r = _block_order(q, n, u_int)
    if lo % r or hi % r:
        raise ValueError(f"[{lo}, {hi}) splits an orbit of {r} L-blocks")
    # g^d differs from the identity only in the block of entry (n-1, 2n-1)
    corner = np.s_[:, (n - 1) * f:nf, m - f:m]
    # entries lie in [0, p - 1], so the off-diagonal entries outside the
    # corner block are all 0 exactly when their 0/1-weighted sum is
    off_weight = 1 - np.eye(m, dtype=_SCAN_DTYPE)
    off_weight[corner[1:]] = 0
    off_weight = off_weight.ravel()
    # the corner of g^d embeds sigma d, whose index is sigma d mod p
    residue = np.zeros(q, dtype=np.intp)
    residue[(sigma * np.arange(1, p)) % p] = np.arange(1, p)
    place = (p ** np.arange(f)).astype(_SCAN_DTYPE)

    def codes(R: np.ndarray) -> np.ndarray:
        """d mod p on the rows where R = g^d for a unit d, else 0."""
        flat = R.reshape(len(R), m * m)
        C = R[corner]
        # column 0 of an embedded element holds its coefficients
        idx = (C[:, :, 0] @ place).astype(np.intp)
        ok = flat @ off_weight == 0
        # one row per diagonal position, so the reduction runs along the chunk
        diag = np.equal(R.diagonal(axis1=1, axis2=2).T, 1, order="C")
        ok &= np.logical_and.reduce(diag, axis=0)
        ok &= (C == _embed(q, idx[:, None, None])).all(axis=(1, 2))
        return np.where(ok, residue[idx], 0)

    def block(pos: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """E, the embedded L and the characterization's codes of the block at pos."""
        lidx = pos if order is None else int(order[pos])
        # the element with this L and S = 0 is [[L^T, 0], [0, L^-1]]; each chunk
        # fills in its A blocks
        M = sylow_from_index(spec, n, lidx * count_s).to_matrix()
        idx = np.array([[x.index() for x in row] for row in M.rows])
        # the characterization's code of A[0,0]: d where A[0,0] = d / upsilon,
        # with L's superdiagonal read below the diagonal of L^T
        ups = square_product(spec, [M.rows[i + 1][i] for i in range(n - 1)])
        char = np.zeros(q, dtype=np.intp)
        if not ups.is_zero():
            for d in range(1, p):
                char[(spec.elem(d) / ups).index()] = d
        E, L = (_embed(q, x).astype(_SCAN_DTYPE, order="C") for x in (idx, idx[:n, :n].T))
        return E, L, char

    chunk = max(1, _SCAN_ENTRIES // (m * m))
    rows = min(chunk, count_s)
    X = np.empty((rows, m, m), dtype=_SCAN_DTYPE)
    SL = np.empty((rows * nf, nf), dtype=_SCAN_DTYPE)
    A = np.empty((rows, nf, nf), dtype=_SCAN_DTYPE)
    P = tuple(np.empty((rows, m, m), dtype=_SCAN_DTYPE) for _ in range(2))
    tally = np.zeros(p, dtype=np.int64)
    # codes d < p fit uint8, since _check_scan_exact admits no p past 251
    first_codes = np.empty(count_s, dtype=np.uint8)
    if u_int is not None:
        u_f = u_int.astype(_SCAN_DTYPE)
        top = np.s_[:nf, nf:]
        rest = np.ones((m, m), dtype=bool)
        rest[top] = False
        tile = np.empty((rows, nf, nf), dtype=_SCAN_DTYPE)
        later_codes = np.empty(count_s, dtype=np.uint8) if r > 1 else first_codes
        # one float32 product reads the indices of S''s entries above and on the
        # diagonal, the S-index's digits, and then of those below it
        free = list(zip(*np.triu_indices(n)))
        above = [(i, k) for i, k in free if i < k]
        digits = above + [(i, i) for i in range(n)]
        read = _index_reader(n, f, p, digits + [(k, i) for i, k in above]).T
        # S-indices fit int32: _sym_blocks could not hold 2^31 matrices
        s_weights = np.array([q ** (len(free) - 1 - free.index(x)) for x in digits], np.int32)
        gm_tally = np.zeros(p, dtype=np.int64)
    agree = True
    for orbit in range(lo, hi, r):
        first = nxt = block(orbit)
        pending = None
        for step in range(r):
            (E, _, char), block_codes = nxt, later_codes if step else first_codes
            if u_int is not None:
                nxt = block(orbit + step + 1) if step < r - 1 else first
                Eu = _reduce(E @ u_f, p, np.empty_like(E))
                if not np.array_equal(Eu[rest], nxt[0][rest]):
                    agree = False
                tile[:] = Eu[top]  # L^T u_TR on every row of a chunk
            X[:] = E
            Linv = E[nf:, nf:]
            pairs = []
            for start in range(0, count_s, chunk):
                Sc = S[start:start + chunk]
                c = len(Sc)
                Xc, Ac = X[:c], A[:c]
                # A = S L^-1 as one 2-D product (entries at most nf (p - 1)^2),
                # reduced where it is contiguous and then placed
                np.matmul(Sc.reshape(c * nf, nf), Linv, out=SL[:c * nf])
                _reduce(SL[:c * nf].reshape(c, nf, nf), p, Ac)
                Xc[:, :nf, nf:] = Ac
                code = codes(_pow_mod(Xc, e, p, (P[0][:c], P[1][:c])))
                # column 0 of the corner block holds the coefficients of A[0,0]
                if not np.array_equal(code, char[(Ac[:, :f, 0] @ place).astype(np.intp)]):
                    agree = False
                tally += np.bincount(code, minlength=p)
                block_codes[start:start + c] = code
                if u_int is not None:
                    # for the solving a: A' = L^T u_TR + A u_BR (entries at most
                    # m (p - 1)^2), then S' = A' L', in buffers free once code is read
                    solved = np.flatnonzero(code)
                    k = len(solved)
                    G, T = (B.reshape(-1)[:k * nf * nf].reshape(k * nf, nf) for B in P)
                    # mode="clip" lets take write into out unbuffered; the rows are valid
                    np.take(Ac, solved, axis=0, out=G.reshape(k, nf, nf), mode="clip")
                    Y = SL[:k * nf]
                    np.matmul(G, u_f[nf:, nf:], out=Y)
                    Y += tile[:k].reshape(k * nf, nf)
                    np.matmul(_reduce(Y, p, T), nxt[1], out=Y)
                    # one row per entry, so each runs along the chunk
                    index = read @ _reduce(Y, p, T).reshape(k, nf * nf).T
                    if not np.array_equal(index[:len(above)], index[len(free):]):
                        agree = False
                    pairs.append((s_weights @ index[:len(free)].astype(np.int32),
                                  code[solved].astype(np.uint8)))
            if u_int is not None:
                if pending is not None:
                    gm_tally += _join(*pending, block_codes, p)
                pending = tuple(map(np.concatenate, zip(*pairs)))
        if pending is not None:
            gm_tally += _join(*pending, first_codes, p)
    # exponents equal mod p share a tally and keep their given keys
    power_counts = {d: int(tally[d % p]) for d in d_list}
    gm_counts = None if u_int is None else {d: int(gm_tally[d % p]) for d in d_list}
    return power_counts, agree, gm_counts
