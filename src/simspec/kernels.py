"""The exact small matrix ops, one implementation each for Q and F_p, the one
word evaluator, and the GL_n(F_p) search kernel.

matmul_mod, rref_mod, rank_mod, det_mod, inverse_mod, charpoly_mod and
eval_words_mod take rows of raw values: Python ints reduced mod p, exact at
every p, or rationals when p is None.  Over Q the first six run on ints under
one denominator per row (per matrix in charpoly_mod) and make ``Fraction``s,
never ints, only for rational outputs.  rref, rank, det and inverse read one
elimination: fraction-free (Bareiss) over Q, with unit pivots over F_p.

numpy is used only by conjugator_search_mod (the GL_n(F_p) oracle), on int64
arrays, and is imported on its first call, so importing simspec does not load
it.  The search is one numpy scan, row-factored: each matrix is its first
n - 1 rows over its last row.  Determinants come from one row per distinct
cofactor vector of the first rows, and residual matches from a sorted join
of the two halves' residual codes.  It needs p^(n^2) < 2^63, which
``find_conjugator`` enforces.
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


def _eliminate(M, p):
    """Gauss-Jordan on the rows M, in place, pivoting on the first nonzero
    entry of each column, so the result is deterministic.  Over Q, on int
    rows, it is fraction-free (Bareiss, Math. Comp. 22, 1968): each update
    divides exactly by the previous pivot, so the entries stay minors of M,
    and M ends as scale times its RREF, scale the last pivot.  Over F_p each
    pivot row is scaled to a unit pivot, so M ends as its RREF and scale is
    the product of the pivots.  Returns (pivot columns, scale, swap sign);
    det M = sign * scale at full rank."""
    nrows, ncols = len(M), len(M[0])
    pivots, scale, sign = [], 1, 1
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
        d = M[piv][col]
        if p is None:
            prow, prev, scale = M[piv], scale, d
            for r in range(nrows):
                if r != piv:
                    f = M[r][col]
                    M[r] = [(d * x - f * y) // prev for x, y in zip(M[r], prow)]
        else:
            inv, scale = pow(d, -1, p), scale * d % p
            prow = M[piv] = [x * inv % p for x in M[piv]]
            for r in range(nrows):
                if r != piv and M[r][col]:
                    f = M[r][col]
                    M[r] = [(x - f * y) % p for x, y in zip(M[r], prow)]
        pivots.append(col)
    return pivots, scale, sign


def _rows(A, p):
    """A fresh copy of A's rows for _eliminate; over Q, each row as ints."""
    return [_ints(row)[0] for row in A] if p is None else [list(row) for row in A]


def matmul_mod(A, B, p):
    if p is None:
        cols = [_ints(col) for col in zip(*B)]
        return [[Fraction(sum(map(mul, row, col)), d * e) for col, e in cols]
                for row, d in map(_ints, A)]
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) % p for col in cols] for row in A]


def rref_mod(A, p):
    """(reduced row echelon form, pivot columns) of A, by _eliminate."""
    M = _rows(A, p)
    pivots, d, _ = _eliminate(M, p)
    return (M if p is not None else [[Fraction(x, d) for x in row] for row in M]), pivots


# inverse_mod and eval_words_mod call rref_mod and matmul_mod by these names,
# so that a wrapper bound to a public name counts only outside calls
_rref = rref_mod
_matmul = matmul_mod


def rank_mod(A, p):
    return len(_eliminate(_rows(A, p), p)[0])


def det_mod(A, p):
    """sign * scale of _eliminate at full rank, else 0; over Q, divided by
    the row scalings that made A's rows ints."""
    rows = list(map(_ints, A)) if p is None else [(list(row), 1) for row in A]
    pivots, d, sign = _eliminate([row for row, _ in rows], p)
    det = sign * d if len(pivots) == len(A) else 0
    return Fraction(det, prod(e for _, e in rows)) if p is None else det % p


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
    the last-row cofactors.  A block of U takes at most p^n distinct c(U),
    and each distinct one gets one determinant row over the last rows,
    counted with its multiplicity.

    R(g) = (g A1 - B1 g, g A2 - B2 g) is linear, so R(g) = 0 iff
    R(U; 0) = -R(0; r) mod p.  Both sides lie in the row space of R on the
    unit matrices, where a vector is fixed by its entries at the pivot
    columns, so each side is keyed by the base-p code of those entries,
    below p^(n^2).  The matches are a sorted join: each block of last rows
    is sorted by key once and kept for the whole scan, (n + 2) p^n values in
    all, and every U finds its run of last rows with its key there.  Prefix counts of the nonzero determinants along the sorted
    rows tell which runs hold an invertible g; the first such U, with the
    first invertible r of its run, is the block's lex-first witness."""
    global np
    import numpy as np

    n = A1.shape[0]
    nn, top = n * n, n * n - n
    L, H = p ** n, p ** top
    lstep = min(L, _CELLS // (2 * nn))
    hstep = min(H, max(1, _CELLS // lstep))
    # row k: the residuals of both pairs at the k-th unit matrix, so that
    # digits(g) @ M lists R(g) for (A1, B1) and then for (A2, B2); only the
    # pivot columns of M are kept
    E = np.eye(nn, dtype=np.int64).reshape(nn, n, n)
    M = np.concatenate([(E @ A - B @ E).reshape(nn, nn) for A, B in ((A1, B1), (A2, B2))],
                       axis=1) % p
    M = M[:, _rref(M.tolist(), p)[1]]
    powers = p ** np.arange(nn, dtype=np.int64)

    def codes(digits, part):
        # the base-p code of each residual mod p, on the pivot columns
        return digits @ part % p @ powers[:part.shape[1]]

    def last_rows(l0):
        # the last rows l0, l0 + 1, ... sorted by their codes of -R(0; r)
        # (stably, so l ascends among equal codes): r^T in that order, the
        # order itself and the sorted codes
        r = _digit_block(l0, min(l0 + lstep, L), n, p)
        key = codes(r, -M[top:])
        order = np.argsort(key, kind="stable")
        return l0, r[order].T, order, key[order]

    blocks = [last_rows(l0) for l0 in range(0, L, lstep)]
    count, first = 0, None
    for h0 in range(0, H, hstep):
        h1 = min(h0 + hstep, H)
        U = _digit_block(h0, h1, top, p)
        cof = _cofactors(U.reshape(h1 - h0, n - 1, n), p)
        _, at, inv, mult = np.unique(cof @ powers[:n], return_index=True,
                                     return_inverse=True, return_counts=True)
        ucof = cof[at]
        keys = codes(U, M[:top]) if first is None else None
        hits = []
        for l0, rT, order, sorted_keys in blocks:
            invertible = ucof @ rT % p != 0
            count += int(mult @ np.count_nonzero(invertible, axis=1))
            if keys is not None:
                # u's matches are the run lo:hi of last rows with u's code;
                # the first u with an invertible match has the block's witness
                lo = np.searchsorted(sorted_keys, keys)
                hi = np.searchsorted(sorted_keys, keys, side="right")
                seen = np.zeros((len(ucof), len(order) + 1), dtype=np.int64)
                np.cumsum(invertible, axis=1, out=seen[:, 1:])
                good = seen[inv, hi] > seen[inv, lo]
                if good.any():
                    u = int(np.argmax(good))
                    j = lo[u] + int(np.argmax(invertible[inv[u], lo[u]:hi[u]]))
                    hits.append((h0 + u) * L + l0 + int(order[j]))
        if hits:
            first = min(hits)
    if first is None:
        return count, False, np.zeros((n, n), dtype=np.int64)
    return count, True, _digit_block(first, first + 1, nn, p).reshape(n, n)
