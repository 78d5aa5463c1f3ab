"""Mod-p int64 kernels behind the F_p hot paths.

Two lanes:

* numba ``@njit`` loop kernels (default when numba imports cleanly);
* a pure-numpy lane, selected with ``SIMSPEC_PURE_NUMPY=1`` or when numba is
  unavailable.  Small dense ops run the same loop source uncompiled (they are
  O(n^3) with n <= 6); the brute-force enumeration kernels have genuinely
  vectorized batch implementations.

``IMPLS`` exposes both lanes for cross-checking and for the benchmark in
benchmarks/bench_kernels.py.  All inputs are int64 arrays with entries already
reduced mod p.
"""

from __future__ import annotations

import os

import numpy as np

_flag = os.environ.get("SIMSPEC_PURE_NUMPY", "0").strip().lower()
PURE_NUMPY = _flag not in ("", "0", "false", "no")

HAVE_NUMBA = False
if not PURE_NUMPY:
    try:
        from numba import njit

        HAVE_NUMBA = True
    except ImportError:
        PURE_NUMPY = True

USE_NUMBA = HAVE_NUMBA and not PURE_NUMPY


# ---------------------------------------------------------------------------
# loop sources (njit-compatible; also run as-is on the numpy lane)
# ---------------------------------------------------------------------------

def _inv_mod_src(a, p):
    # extended Euclid on (a, p), a in [1, p)
    t = 0
    newt = 1
    r = p
    newr = a
    while newr != 0:
        q = r // newr
        t, newt = newt, t - q * newt
        r, newr = newr, r - q * newr
    return t % p


def _matmul_src(A, B, p):
    n = A.shape[0]
    m = B.shape[1]
    k = A.shape[1]
    out = np.zeros((n, m), dtype=np.int64)
    for i in range(n):
        for j in range(m):
            acc = 0
            for l in range(k):
                acc += A[i, l] * B[l, j]
            out[i, j] = acc % p
    return out


def _rref_src(A, p):
    # returns (reduced row echelon form, rank); first-nonzero pivoting
    R = A.copy()
    m = R.shape[0]
    n = R.shape[1]
    piv = 0
    for col in range(n):
        if piv == m:
            break
        sel = -1
        for r in range(piv, m):
            if R[r, col] != 0:
                sel = r
                break
        if sel < 0:
            continue
        if sel != piv:
            for c in range(n):
                tmp = R[piv, c]
                R[piv, c] = R[sel, c]
                R[sel, c] = tmp
        inv = _inv_mod(R[piv, col], p)
        for c in range(n):
            R[piv, c] = R[piv, c] * inv % p
        for r in range(m):
            if r != piv and R[r, col] != 0:
                f = R[r, col]
                for c in range(n):
                    R[r, c] = (R[r, c] - f * R[piv, c]) % p
        piv += 1
    return R, piv


def _rank_src(A, p):
    _, rk = _rref(A, p)
    return rk


def _det_src(A, p):
    # elimination with swap sign tracking
    M = A.copy()
    n = M.shape[0]
    det = 1
    for col in range(n):
        sel = -1
        for r in range(col, n):
            if M[r, col] != 0:
                sel = r
                break
        if sel < 0:
            return 0
        if sel != col:
            det = (p - det) % p
            for c in range(n):
                tmp = M[col, c]
                M[col, c] = M[sel, c]
                M[sel, c] = tmp
        det = det * M[col, col] % p
        inv = _inv_mod(M[col, col], p)
        for r in range(col + 1, n):
            if M[r, col] != 0:
                f = M[r, col] * inv % p
                for c in range(col, n):
                    M[r, c] = (M[r, c] - f * M[col, c]) % p
    return det


def _inverse_src(A, p):
    # returns (ok, inverse); Gauss-Jordan on [A | I]
    n = A.shape[0]
    aug = np.zeros((n, 2 * n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            aug[i, j] = A[i, j]
        aug[i, n + i] = 1
    R, rk = _rref(aug, p)
    if rk < n:
        return False, np.zeros((n, n), dtype=np.int64)
    # rank n on the left block iff the left block reduced to I
    for i in range(n):
        for j in range(n):
            if R[i, j] != (1 if i == j else 0):
                return False, np.zeros((n, n), dtype=np.int64)
    return True, R[:, n:].copy()


def _charpoly_src(A, p):
    # Berkowitz, division-free: coeffs c of det(xI - A) = x^n + c1 x^(n-1) + ... + cn,
    # returned as [1, c1, ..., cn]
    n = A.shape[0]
    poly = np.zeros(1, dtype=np.int64)
    poly[0] = 1
    for k in range(1, n + 1):
        # leading principal k x k block, split off first row/col
        a = A[n - k, n - k]
        diags = np.zeros(k + 1, dtype=np.int64)
        diags[0] = 1
        diags[1] = (-a) % p
        if k > 1:
            m = k - 1
            R = A[n - k, n - k + 1:n]
            C = A[n - k + 1:n, n - k]
            vec = C.copy()
            for i in range(2, k + 1):
                acc = 0
                for l in range(m):
                    acc += R[l] * vec[l]
                diags[i] = (-acc) % p
                if i < k:
                    nxt = np.zeros(m, dtype=np.int64)
                    sub = A[n - k + 1:n, n - k + 1:n]
                    for r in range(m):
                        s = 0
                        for c in range(m):
                            s += sub[r, c] * vec[c]
                        nxt[r] = s % p
                    vec = nxt
        out = np.zeros(k + 1, dtype=np.int64)
        for i in range(k + 1):
            s = 0
            for j in range(poly.shape[0]):
                if 0 <= i - j <= k:
                    s += diags[i - j] * poly[j]
            out[i] = s % p
        poly = out
    return poly


def _eval_words_src(flat, offs, coeffs, mats, p):
    # sum_w coeffs[w] * prod(mats[flat[offs[w]:offs[w+1]]]), empty product = I
    n = mats.shape[1]
    out = np.zeros((n, n), dtype=np.int64)
    nwords = offs.shape[0] - 1
    for w in range(nwords):
        acc = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            acc[i, i] = 1
        for pos in range(offs[w], offs[w + 1]):
            acc = _matmul(acc, mats[flat[pos]], p)
        c = coeffs[w]
        for i in range(n):
            for j in range(n):
                out[i, j] = (out[i, j] + c * acc[i, j]) % p
    return out


def _conjugator_search_src(A1, A2, B1, B2, p):
    # exhaustive over all n x n matrices g in lex order of the entry tuple:
    # counts invertible ones and reports the first g with
    # g A1 = B1 g, g A2 = B2 g, det g != 0.
    n = A1.shape[0]
    nn = n * n
    digits = np.zeros(nn, dtype=np.int64)
    g = np.zeros((n, n), dtype=np.int64)
    found = np.zeros((n, n), dtype=np.int64)
    ok = False
    count = 0
    total = 1
    for _ in range(nn):
        total *= p
    for _ in range(total):
        for i in range(n):
            for j in range(n):
                g[i, j] = digits[i * n + j]
        d = _det(g, p)
        if d != 0:
            count += 1
            if not ok:
                good = True
                for i in range(n):
                    for j in range(n):
                        s1 = 0
                        s2 = 0
                        for l in range(n):
                            s1 += g[i, l] * A1[l, j]
                            s2 += B1[i, l] * g[l, j]
                        if (s1 - s2) % p != 0:
                            good = False
                            break
                    if not good:
                        break
                if good:
                    for i in range(n):
                        for j in range(n):
                            s1 = 0
                            s2 = 0
                            for l in range(n):
                                s1 += g[i, l] * A2[l, j]
                                s2 += B2[i, l] * g[l, j]
                            if (s1 - s2) % p != 0:
                                good = False
                                break
                        if not good:
                            break
                if good:
                    ok = True
                    for i in range(n):
                        for j in range(n):
                            found[i, j] = g[i, j]
        # lex odometer: last digit fastest
        pos = nn - 1
        while pos >= 0:
            digits[pos] += 1
            if digits[pos] < p:
                break
            digits[pos] = 0
            pos -= 1
    return count, ok, found


# ---------------------------------------------------------------------------
# vectorized numpy lane for the enumeration kernels
# ---------------------------------------------------------------------------

_CHUNK = 1 << 17


def _digit_block(start, stop, nn, p):
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.zeros((idx.shape[0], nn), dtype=np.int64)
    for pos in range(nn - 1, -1, -1):
        out[:, pos] = idx % p
        idx = idx // p
    return out


def _det_batch(G, p):
    n = G.shape[1]
    if n == 1:
        return G[:, 0, 0] % p
    if n == 2:
        return (G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] * G[:, 1, 0]) % p
    if n == 3:
        return (
            G[:, 0, 0] * (G[:, 1, 1] * G[:, 2, 2] - G[:, 1, 2] * G[:, 2, 1])
            - G[:, 0, 1] * (G[:, 1, 0] * G[:, 2, 2] - G[:, 1, 2] * G[:, 2, 0])
            + G[:, 0, 2] * (G[:, 1, 0] * G[:, 2, 1] - G[:, 1, 1] * G[:, 2, 0])
        ) % p
    dets = np.empty(G.shape[0], dtype=np.int64)
    for i in range(G.shape[0]):
        dets[i] = _det_src(G[i], p)
    return dets


def _conjugator_search_np(A1, A2, B1, B2, p):
    n = A1.shape[0]
    nn = n * n
    total = p ** nn
    count = 0
    ok = False
    found = np.zeros((n, n), dtype=np.int64)
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        G = _digit_block(start, stop, nn, p).reshape(-1, n, n)
        dets = _det_batch(G, p)
        inv_mask = dets != 0
        count += int(inv_mask.sum())
        if not ok:
            c1 = ((G @ A1 - B1 @ G) % p == 0).all(axis=(1, 2))
            cand = inv_mask & c1
            if cand.any():
                Gc = G[cand]
                c2 = ((Gc @ A2 - B2 @ Gc) % p == 0).all(axis=(1, 2))
                if c2.any():
                    ok = True
                    found = Gc[c2][0].copy()
    return count, ok, found


def _eval_words_np(flat, offs, coeffs, mats, p):
    n = mats.shape[1]
    nwords = offs.shape[0] - 1
    if nwords == 0:
        return np.zeros((n, n), dtype=np.int64)
    lens = offs[1:] - offs[:-1]
    maxlen = int(lens.max()) if nwords else 0
    acc = np.broadcast_to(np.eye(n, dtype=np.int64), (nwords, n, n)).copy()
    for t in range(maxlen):
        active = lens > t
        if not active.any():
            break
        letters = flat[offs[:-1][active] + t]
        acc[active] = (acc[active] @ mats[letters]) % p
    return (coeffs[:, None, None] * acc).sum(axis=0) % p


# ---------------------------------------------------------------------------
# lane wiring
# ---------------------------------------------------------------------------

if USE_NUMBA:
    _inv_mod = njit(cache=True)(_inv_mod_src)
    _matmul = njit(cache=True)(_matmul_src)
    _rref = njit(cache=True)(_rref_src)
    _rank = njit(cache=True)(_rank_src)
    _det = njit(cache=True)(_det_src)
    _inverse = njit(cache=True)(_inverse_src)
    _charpoly = njit(cache=True)(_charpoly_src)
    _eval_words = njit(cache=True)(_eval_words_src)
    _conjugator_search = njit(cache=True)(_conjugator_search_src)
else:
    def _matmul_vec(A, B, p):
        return (A @ B) % p

    _inv_mod = _inv_mod_src
    _matmul = _matmul_vec
    _rref = _rref_src
    _rank = _rank_src
    _det = _det_src
    _inverse = _inverse_src
    _charpoly = _charpoly_src
    _eval_words = _eval_words_np
    _conjugator_search = _conjugator_search_np

matmul_mod = _matmul
rref_mod = _rref
rank_mod = _rank
det_mod = _det
inverse_mod = _inverse
charpoly_mod = _charpoly
eval_words_mod = _eval_words
conjugator_search_mod = _conjugator_search


def _numpy_lane():
    return {
        "matmul": lambda A, B, p: (A @ B) % p,
        "rref": _rref_src,
        "rank": lambda A, p: _rref_src(A, p)[1],
        "det": _det_src,
        "inverse": _inverse_src,
        "charpoly": _charpoly_src,
        "eval_words": _eval_words_np,
        "conjugator_search": _conjugator_search_np,
    }


def _numba_lane():
    if not USE_NUMBA:
        return None
    return {
        "matmul": _matmul,
        "rref": _rref,
        "rank": _rank,
        "det": _det,
        "inverse": _inverse,
        "charpoly": _charpoly,
        "eval_words": _eval_words,
        "conjugator_search": _conjugator_search,
    }


IMPLS = {"numpy": _numpy_lane(), "numba": _numba_lane()}
