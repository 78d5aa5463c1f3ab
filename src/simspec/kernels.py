"""The exact small matrix ops, one implementation each for Q and F_p, the one
word evaluator, and the GL_n(F_p) search kernel.

matmul_mod, rref_mod, rank_mod, det_mod, inverse_mod, charpoly_mod and
eval_words_mod take rows of raw values: Python ints reduced mod p, exact at
every p, or rationals when p is None.  Over Q the first six run on ints under
one denominator per row (per matrix in charpoly_mod), eliminate fraction-free
(Bareiss), and make ``Fraction``s, never ints, only for rational outputs.

numpy is used only by conjugator_search_mod (the GL_n(F_p) oracle), on int64
arrays, and is imported on its first call, so importing simspec does not load
it.  The search is one numpy scan, row-factored: each matrix is its first
n - 1 rows over its last row, and every matrix's determinant and residual
test come from products shared along those two indices.  It needs
p^(n^2) < 2^63, which ``find_conjugator`` enforces.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm, prod
from operator import mul

# There is one search lane, numpy; the constant stays for perfbench, whose
# worker reports the lane from it.
USE_NUMBA = False


# ---------------------------------------------------------------------------
# small dense ops on lists of rows (p None: Q, computed on ints)
# ---------------------------------------------------------------------------

def red(x, p):
    """x reduced mod p; unchanged over Q."""
    return x if p is None else x % p


def inv_scalar(x, p):
    """1 / x for a nonzero raw value."""
    return Fraction(1) / x if p is None else pow(x, -1, p)


def _ints(row):
    """(ints, d): the rational row times d, the lcm of its denominators."""
    d = lcm(*[x.denominator for x in row])
    return [x.numerator * (d // x.denominator) for x in row], d


def _bareiss(M):
    """Fraction-free Gauss-Jordan on int rows M, in place (Bareiss, Math.
    Comp. 22, 1968): each update divides exactly by the previous pivot, so the
    entries stay minors of M, and M ends as d times its RREF, d the last
    pivot.  Returns (pivot columns, d, swap sign); det M = sign * d at full rank."""
    nrows, ncols = len(M), len(M[0])
    pivots, prev, sign = [], 1, 1
    for col in range(ncols):
        piv = len(pivots)
        if piv == nrows:
            break
        sel = next((r for r in range(piv, nrows) if M[r][col]), None)
        if sel is None:
            continue
        if sel != piv:
            M[piv], M[sel] = M[sel], M[piv]
            sign = -sign
        prow, d = M[piv], M[piv][col]
        for r in range(nrows):
            if r != piv:
                f = M[r][col]
                M[r] = [(d * x - f * y) // prev for x, y in zip(M[r], prow)]
        pivots.append(col)
        prev = d
    return pivots, prev, sign


def matmul_mod(A, B, p):
    if p is None:
        cols = [_ints(col) for col in zip(*B)]
        return [[Fraction(sum(map(mul, row, col)), d * e) for col, e in cols]
                for row, d in map(_ints, A)]
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) % p for col in cols] for row in A]


def rref_mod(A, p):
    """(reduced row echelon form, pivot columns) of A; first-nonzero
    pivoting, so the result is deterministic.  Over Q, of A's rows as ints."""
    if p is None:
        M = [_ints(row)[0] for row in A]
        pivots, d, _ = _bareiss(M)
        return [[Fraction(x, d) for x in row] for row in M], pivots
    R = [list(r) for r in A]
    nrows, ncols = len(R), len(R[0])
    pivots = []
    for col in range(ncols):
        piv = len(pivots)
        if piv == nrows:
            break
        sel = next((r for r in range(piv, nrows) if R[r][col]), None)
        if sel is None:
            continue
        R[piv], R[sel] = R[sel], R[piv]
        inv = pow(R[piv][col], -1, p)
        prow = R[piv] = [x * inv % p for x in R[piv]]
        for r in range(nrows):
            if r != piv and R[r][col]:
                f = R[r][col]
                R[r] = [(x - f * y) % p for x, y in zip(R[r], prow)]
        pivots.append(col)
    return R, pivots


# rank_mod, inverse_mod and eval_words_mod call rref_mod and matmul_mod by
# these names, so that a wrapper bound to a public name counts only outside
# calls
_rref = rref_mod
_matmul = matmul_mod


def rank_mod(A, p):
    return len(_bareiss([_ints(row)[0] for row in A])[0] if p is None else _rref(A, p)[1])


def det_mod(A, p):
    """Determinant by elimination with swap sign tracking; over Q, _bareiss."""
    if p is None:
        rows = list(map(_ints, A))
        pivots, d, sign = _bareiss([row for row, _ in rows])
        return Fraction(sign * d if len(pivots) == len(A) else 0, prod(e for _, e in rows))
    M = [list(r) for r in A]
    n = len(M)
    d = 1
    for col in range(n):
        sel = next((r for r in range(col, n) if M[r][col]), None)
        if sel is None:
            return 0
        if sel != col:
            M[col], M[sel] = M[sel], M[col]
            d = -d
        d = d * M[col][col]
        inv = pow(M[col][col], -1, p)
        for r in range(col + 1, n):
            if M[r][col]:
                f = M[r][col] * inv
                M[r] = [(x - f * y) % p for x, y in zip(M[r], M[col])]
    return d % p


def inverse_mod(A, p):
    """A^-1 by Gauss-Jordan on [A | I], or None when A is singular."""
    n = len(A)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(A)]
    R, pivots = _rref(aug, p)
    return [row[n:] for row in R] if pivots == list(range(n)) else None


def charpoly_mod(A, p):
    """Coefficients [1, c1, ..., cn] of det(xI - A), by the division-free
    Berkowitz recursion (valid in every characteristic).  Over Q it runs on
    the ints N = dA, d the lcm of A's denominators: c_k(A) = c_k(N) / d^k."""
    n = len(A)
    if p is None:
        flat, d = _ints([x for row in A for x in row])
        A = [flat[k:k + n] for k in range(0, n * n, n)]
    poly = [1]
    for k in range(1, n + 1):
        top = n - k
        diags = [1, red(-A[top][top], p)]
        if k > 1:
            R = A[top][top + 1:]
            vec = [A[r][top] for r in range(top + 1, n)]
            sub = [row[top + 1:] for row in A[top + 1:]]
            for i in range(2, k + 1):
                diags.append(red(-sum(map(mul, R, vec)), p))
                if i < k:
                    vec = [red(sum(map(mul, row, vec)), p) for row in sub]
        poly = [red(sum(diags[i - j] * pj for j, pj in enumerate(poly)
                        if 0 <= i - j <= k), p)
                for i in range(k + 1)]
    return poly if p is not None else [Fraction(c, d ** k) for k, c in enumerate(poly)]


def eval_words_mod(flat, offs, coeffs, mats, p):
    """sum_w coeffs[w] * prod(mats[flat[offs[w]:offs[w+1]]]), the empty
    product being the identity.  Prefix products are memoized, so words
    sharing a prefix share its products."""
    zero, one = (0, 1) if p is not None else (Fraction(0), Fraction(1))
    n = len(mats[0])
    memo = {(): [[one if i == j else zero for j in range(n)] for i in range(n)]}
    acc = [[zero] * n for _ in range(n)]
    for w, c in enumerate(coeffs):
        word = tuple(flat[offs[w]:offs[w + 1]])
        prod = memo[()]
        for s in range(1, len(word) + 1):
            if word[:s] not in memo:
                memo[word[:s]] = _matmul(prod, mats[word[s - 1]], p)
            prod = memo[word[:s]]
        acc = [[x + c * y for x, y in zip(ra, rp)] for ra, rp in zip(acc, prod)]
    return [[red(x, p) for x in row] for row in acc]


# ---------------------------------------------------------------------------
# GL_n(F_p) search on int64 arrays; np is bound by conjugator_search_mod
# ---------------------------------------------------------------------------

# cells of the largest array of one search step, whatever n and p are
_CELLS = 1 << 18


def _digit_block(start, stop, nn, p):
    """The nn base-p digits, most significant first, of start, ..., stop - 1."""
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.zeros((idx.shape[0], nn), dtype=np.int64)
    for pos in range(nn - 1, -1, -1):
        out[:, pos] = idx % p
        idx = idx // p
    return out


def _cofactors(U, p):
    """c(U) mod p for a stack of (n-1) x n matrices U: the cofactors of the
    last row of [U; r], so that det [U; r] = r . c(U).  Built from the minors
    of U's top rows on every set of columns, one row at a time by Laplace
    expansion along that row; each is reduced, so int64 holds n p^2."""
    k, n = U.shape[1], U.shape[2]
    minors = {(): np.ones(U.shape[0], dtype=np.int64)}
    for i in range(k):
        minors = {cols: sum((-1) ** (i + t) * U[:, i, c] * minors[cols[:t] + cols[t + 1:]]
                            for t, c in enumerate(cols)) % p
                  for cols in combinations(range(n), i + 1)}
    return np.stack([(-1) ** (k + j) * minors[tuple(c for c in range(n) if c != j)]
                     for j in range(n)], axis=1) % p


def conjugator_search_mod(A1, A2, B1, B2, p):
    """(invertible count, found, first g in lex order with g A1 = B1 g and
    g A2 = B2 g) over all n x n matrices g over F_p, on int64 arrays; needs
    p^(n^2) < 2^63.

    Row-factored scan: g = [U; r], U its first n - 1 rows (index h) and r
    its last row (index l), so g's lex index is h p^n + l and the (h, l)
    table in row-major order is the lex scan.  det g = r . c(U) with c(U)
    the last-row cofactors, and R(g) = g A - B g is linear, so R(g) = 0 iff
    R(U; 0) = -R(0; r) mod p, compared as base-p codes below p^(n^2).
    Every g gets its own determinant and residual test; only the products
    are shared, one per row or column of the table."""
    global np
    import numpy as np

    n = A1.shape[0]
    nn, top = n * n, n * n - n
    L, H = p ** n, p ** top
    lstep = min(L, _CELLS // (2 * nn))
    hstep = min(H, max(1, _CELLS // lstep))
    # row k: the residuals of both pairs at the k-th unit matrix, so that
    # digits(g) @ M lists R(g) for (A1, B1) and then for (A2, B2)
    E = np.eye(nn, dtype=np.int64).reshape(nn, n, n)
    M = np.concatenate([(E @ A - B @ E).reshape(nn, nn) for A, B in ((A1, B1), (A2, B2))],
                       axis=1)
    powers = p ** np.arange(nn, dtype=np.int64)

    def codes(digits, part):
        # (2, rows): the base-p code of each residual mod p, for each pair
        return ((digits @ part % p).reshape(-1, 2, nn) @ powers).T

    def last_rows(l0):
        # r^T and the codes of -R(0; r) for the last rows l0, l0 + 1, ...
        r = _digit_block(l0, min(l0 + lstep, L), n, p)
        return r.T, codes(r, -M[top:])

    starts = range(0, L, lstep)
    once = last_rows(0) if len(starts) == 1 else None
    count, first = 0, None
    for h0 in range(0, H, hstep):
        h1 = min(h0 + hstep, H)
        U = _digit_block(h0, h1, top, p)
        cof = _cofactors(U.reshape(h1 - h0, n - 1, n), p)
        keys = codes(U, M[:top]) if first is None else None
        hits = []
        for l0 in starts:
            rT, rkeys = once or last_rows(l0)
            dets = cof @ rT % p
            count += int(np.count_nonzero(dets))
            if keys is not None:
                hit = dets != 0
                for u, v in zip(keys, rkeys):
                    hit &= u[:, None] == v
                at = np.flatnonzero(hit)
                if at.size:
                    h, l = divmod(int(at[0]), hit.shape[1])
                    hits.append((h0 + h) * L + l0 + l)
        if hits:
            first = min(hits)
    if first is None:
        return count, False, np.zeros((n, n), dtype=np.int64)
    return count, True, _digit_block(first, first + 1, nn, p).reshape(n, n)
