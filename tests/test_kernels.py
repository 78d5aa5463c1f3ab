"""The small matrix ops, the word evaluator and the GL_n(F_p) search of
simspec.kernels against independent oracles, over Q and F_p."""

import functools
import itertools
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import prod

import numpy as np
import pytest

from simspec import kernels
from simspec.matrices import order_gl

FIELDS = [None, 2, 3, 7, 11]      # None is Q


def _rand(rng, nrows, ncols, p, zeros=0.0):
    def scalar():
        if rng.random() < zeros:
            return 0 if p else Fraction(0)
        if p:
            return rng.randrange(p)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return [[scalar() for _ in range(ncols)] for _ in range(nrows)]


def _red(x, p):
    return Fraction(x) if p is None else x % p


def _exact(rows, p):
    """Q results are Fractions (an int pivot must not turn into a float),
    F_p results are reduced ints."""
    for x in itertools.chain.from_iterable(rows):
        assert type(x) is Fraction if p is None else (type(x) is int and 0 <= x < p)
    return True


def _product(A, B, p):
    return [[_red(sum(A[i][l] * B[l][j] for l in range(len(B))), p)
             for j in range(len(B[0]))] for i in range(len(A))]


@functools.cache
def _signed_permutations(n):
    return [(perm, (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)))
            for perm in itertools.permutations(range(n))]


def _leibniz(A, p):
    n = len(A)
    return _red(sum(sign * prod(A[i][perm[i]] for i in range(n))
                    for perm, sign in _signed_permutations(n)), p)


def _rank_by_minors(A, p):
    """Largest k with a nonzero k x k minor."""
    rows, cols = range(len(A)), range(len(A[0]))
    for k in range(min(len(A), len(A[0])), 0, -1):
        for rs in itertools.combinations(rows, k):
            for cs in itertools.combinations(cols, k):
                if _leibniz([[A[r][c] for c in cs] for r in rs], p):
                    return k
    return 0


def _rank_by_kernel_count(A, p):
    """ncols - log_p of the number of x in F_p^ncols with A x = 0."""
    ncols = len(A[0])
    count = sum(all(sum(a * x for a, x in zip(row, xs)) % p == 0 for row in A)
                for xs in itertools.product(range(p), repeat=ncols))
    return ncols - round(np.log(count) / np.log(p))


def test_matmul_against_entry_sums(rng):
    for p in FIELDS:
        for n, k, m in ((1, 1, 1), (2, 3, 1), (3, 2, 5), (4, 4, 4), (5, 5, 5)):
            A, B = _rand(rng, n, k, p), _rand(rng, k, m, p)
            got = kernels.matmul_mod(A, B, p)
            assert got == _product(A, B, p) and _exact(got, p)
    # Q products of integer matrices reduce to the F_p products
    for p in (3, 7):
        A = [[rng.randint(-20, 20) for _ in range(4)] for _ in range(4)]
        B = [[rng.randint(-20, 20) for _ in range(4)] for _ in range(4)]
        over_q = kernels.matmul_mod([[Fraction(x) for x in r] for r in A],
                                    [[Fraction(x) for x in r] for r in B], None)
        mod_p = kernels.matmul_mod([[x % p for x in r] for r in A],
                                   [[x % p for x in r] for r in B], p)
        assert [[int(x) % p for x in r] for r in over_q] == mod_p


def test_rank_det_inverse_against_oracles(rng):
    for p in FIELDS + [2 ** 61 - 1]:
        for _ in range(25):
            n = rng.choice([1, 2, 3, 4, 5])
            A = _rand(rng, n, n, p, zeros=0.4)
            d = kernels.det_mod(A, p)
            assert d == _leibniz(A, p) and _exact([[d]], p)
            rk = kernels.rank_mod(A, p)
            assert rk == _rank_by_minors(A, p)
            if p in (2, 3):
                assert rk == _rank_by_kernel_count(A, p)
            R, pivots = kernels.rref_mod(A, p)
            assert len(pivots) == rk and _exact(R, p)
            assert all(R[r][c] == (1 if r == i else 0)
                       for i, c in enumerate(pivots) for r in range(n))
            assert all(x == 0 for row in R[rk:] for x in row)
            inv = kernels.inverse_mod(A, p)
            assert (inv is None) == (d == 0)
            if inv is not None:
                ident = [[_red(int(i == j), p) for j in range(n)] for i in range(n)]
                assert _exact(inv, p)
                assert _product(A, inv, p) == ident == _product(inv, A, p)
        # non-square rank
        A = _rand(rng, 2, 4, p, zeros=0.3)
        assert kernels.rank_mod(A, p) == _rank_by_minors(A, p)
    # permutation matrices pin the swap sign of det over both fields; their
    # inverse is their transpose
    for p in (None, 7, 2 ** 61 - 1):
        one, zero = _red(1, p), _red(0, p)
        for n, step in ((2, 1), (3, 1), (5, 7)):
            for perm, sign in _signed_permutations(n)[::step]:
                A = [[one if perm[i] == j else zero for j in range(n)] for i in range(n)]
                assert kernels.det_mod(A, p) == _red(sign, p) == _leibniz(A, p)
                assert kernels.rank_mod(A, p) == n
                assert kernels.inverse_mod(A, p) == [list(col) for col in zip(*A)]
    # the inverse of an integer identity starts from Fraction(1), not 1 / 1
    inv = kernels.inverse_mod([[1, 0], [0, 1]], None)
    assert inv == [[1, 0], [0, 1]] and _exact(inv, None)
    # Q determinants of integer matrices reduce to the F_p determinants
    for p in (2, 5, 11):
        A = [[rng.randint(-30, 30) for _ in range(4)] for _ in range(4)]
        over_q = kernels.det_mod([[Fraction(x) for x in r] for r in A], None)
        assert over_q.denominator == 1
        assert int(over_q) % p == kernels.det_mod([[x % p for x in r] for r in A], p)


def test_charpoly_against_oracles(rng):
    for p in FIELDS:
        for _ in range(20):
            n = rng.choice([1, 2, 3, 4, 5])
            A = _rand(rng, n, n, p, zeros=0.3)
            c = kernels.charpoly_mod(A, p)
            assert len(c) == n + 1 and c[0] == 1 and _exact([c], p)
            # Cayley-Hamilton: sum_k c_k A^(n-k) = 0
            acc = [[_red(0, p)] * n for _ in range(n)]
            power = [[_red(int(i == j), p) for j in range(n)] for i in range(n)]
            for ck in reversed(c):
                acc = [[_red(x + ck * y, p) for x, y in zip(ra, rp)]
                       for ra, rp in zip(acc, power)]
                power = _product(power, A, p)
            assert all(x == 0 for row in acc for x in row)
            # det(tI - A) by Leibniz at n + 1 points (fewer over a small F_p)
            if n <= 4:
                for t in range(n + 1 if p is None else min(p, n + 1)):
                    shifted = [[_red((t if i == j else 0) - x, p) for j, x in enumerate(row)]
                               for i, row in enumerate(A)]
                    assert _red(sum(ck * t ** (n - k) for k, ck in enumerate(c)), p) \
                        == _leibniz(shifted, p)
    # Q characteristic polynomials of integer matrices reduce to F_p ones
    for p in (3, 7):
        A = [[rng.randint(-30, 30) for _ in range(5)] for _ in range(5)]
        over_q = kernels.charpoly_mod([[Fraction(x) for x in r] for r in A], None)
        mod_p = kernels.charpoly_mod([[x % p for x in r] for r in A], p)
        assert [int(x) % p for x in over_q] == mod_p


def _gauss_jordan(A):
    """Naive Fraction Gauss-Jordan: (RREF, pivot columns)."""
    R = [[Fraction(x) for x in row] for row in A]
    pivots = []
    for col in range(len(R[0])):
        rows = [r for r in range(len(pivots), len(R)) if R[r][col] != 0]
        if not rows:
            continue
        piv = len(pivots)
        R[piv], R[rows[0]] = R[rows[0]], R[piv]
        R[piv] = [x / R[piv][col] for x in R[piv]]
        for r in range(len(R)):
            if r != piv:
                R[r] = [x - R[r][col] * y for x, y in zip(R[r], R[piv])]
        pivots.append(col)
    return R, pivots


def _tall_rows(rng, nrows, ncols, rank, height):
    """rank random rows of numerators and denominators up to height, each
    entry with its own denominator, then rational combinations of them and
    zero rows, shuffled."""
    def scalar():
        return Fraction(rng.randint(-height, height), rng.randint(1, height))
    rows = [[scalar() for _ in range(ncols)] for _ in range(rank)]
    while len(rows) < nrows:
        if rank and rng.random() < 0.7:
            a, b = rng.choice(rows[:rank]), rng.choice(rows[:rank])
            s, t = scalar(), scalar()
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([Fraction(0)] * ncols)
    rng.shuffle(rows)
    return rows


def test_q_kernels_at_real_heights():
    """Every Q kernel on entries with numerators and denominators up to 10^12,
    mixed denominators in each row, at n = 1..6, against the naive Fraction
    Gauss-Jordan and Leibniz oracles; every returned value is a Fraction."""
    import random

    rng = random.Random(1012)
    height = 10 ** 12
    for n in range(1, 7):
        for _ in range(4):
            A = _tall_rows(rng, n, n, n, height)
            B = _tall_rows(rng, n, rng.randint(1, 6), n, height)
            got = kernels.matmul_mod(A, B, None)
            assert got == _product(A, B, None) and _exact(got, None)
            d = kernels.det_mod(A, None)
            assert d == _leibniz(A, None) != 0 and _exact([[d]], None)
            inv = kernels.inverse_mod(A, None)
            ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
            assert _exact(inv, None) and _product(A, inv, None) == ident
            assert inv == [row[n:] for row in _gauss_jordan(
                [row + ident_row for row, ident_row in zip(A, ident)])[0]]
            c = kernels.charpoly_mod(A, None)
            assert _exact([c], None) and c[0] == 1 and c[1] == -sum(A[i][i] for i in range(n))
            for t in range(n + 1):
                shifted = [[(t if i == j else 0) - x for j, x in enumerate(row)]
                           for i, row in enumerate(A)]
                assert sum(ck * t ** (n - k) for k, ck in enumerate(c)) == _leibniz(shifted, None)
            # rank-deficient, non-square and with zero rows
            rank = rng.randint(0, n - 1)
            for M in (_tall_rows(rng, n, n, rank, height),
                      _tall_rows(rng, n, rng.randint(1, 7), rank, height),
                      _tall_rows(rng, rng.randint(1, 7), n, min(rank, n), height)):
                R, pivots = kernels.rref_mod(M, None)
                assert (R, pivots) == _gauss_jordan(M) and _exact(R, None)
                assert kernels.rank_mod(M, None) == len(pivots)
            M = _tall_rows(rng, n, n, rank, height)
            assert kernels.det_mod(M, None) == 0 and _exact([[kernels.det_mod(M, None)]], None)
            assert kernels.inverse_mod(M, None) is None


def test_eval_words_against_naive(rng):
    for p in (7, None):
        _check_eval_words(rng, p)


def _check_eval_words(rng, p):
    for _ in range(20):
        n = rng.choice([2, 3])
        m = rng.choice([1, 2, 3])
        mats = [_rand(rng, n, n, p) for _ in range(m)]
        words = [[rng.randrange(m) for _ in range(rng.randint(0, 5))]
                 for _ in range(rng.randint(1, 8))]
        coeffs = [_red(rng.randrange(7), p) for _ in words]
        flat, offs = [], [0]
        for w in words:
            flat.extend(w)
            offs.append(len(flat))
        got = kernels.eval_words_mod(flat, offs, coeffs, mats, p)
        want = [[_red(0, p)] * n for _ in range(n)]
        for w, c in zip(words, coeffs):
            acc = [[_red(int(i == j), p) for j in range(n)] for i in range(n)]
            for k in w:
                acc = _product(acc, mats[k], p)
            want = [[_red(x + c * y, p) for x, y in zip(rw, ra)] for rw, ra in zip(want, acc)]
        assert got == want and _exact(got, p)


def test_count_gl_matches_formula():
    # no g has g 0 = I g, so the search scans and counts every invertible g
    for n, p in ((1, 2), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3)):
        zero, ident = np.zeros((n, n), dtype=np.int64), np.eye(n, dtype=np.int64)
        count, ok, _ = kernels.conjugator_search_mod(zero, zero, ident, zero, p)
        assert not ok and count == order_gl(n, p)
    assert order_gl(3, 3) == 11232


def test_conjugator_search_small(rng):
    p = 3
    A1 = np.array([[0, 0], [0, 1]], dtype=np.int64)
    A2 = np.array([[0, 1], [0, 0]], dtype=np.int64)
    # conjugate by a known g and expect recovery of some witness
    g = np.array([[1, 1], [1, 2]], dtype=np.int64)
    ginv = np.array([[2, 2], [2, 1]], dtype=np.int64)
    assert (g @ ginv % p == np.eye(2, dtype=np.int64)).all()
    B1 = g @ A1 @ ginv % p
    B2 = g @ A2 @ ginv % p
    count, found, w = kernels.conjugator_search_mod(A1, A2, B1, B2, p)
    assert count == order_gl(2, 3)
    assert found
    assert (w @ A1 % p == B1 @ w % p).all()
    assert (w @ A2 % p == B2 @ w % p).all()
    # an impossible target: ranks of second components differ
    C2 = np.array([[1, 0], [0, 1]], dtype=np.int64)
    count, found, _ = kernels.conjugator_search_mod(A1, A2, A1, C2, p)
    assert count == order_gl(2, 3) and not found


def _search_by_enumeration(A1, A2, B1, B2, p):
    """(count, ok, found) by listing every g in lex order of its row-major
    entries: a Leibniz determinant each, and the first invertible g with
    g A1 = B1 g and g A2 = B2 g."""
    n = len(A1)
    count, found = 0, None
    for entries in itertools.product(range(p), repeat=n * n):
        g = [list(entries[i:i + n]) for i in range(0, n * n, n)]
        if _leibniz(g, p) == 0:
            continue
        count += 1
        if found is None and all(_product(g, A, p) == _product(B, g, p)
                                 for A, B in ((A1, B1), (A2, B2))):
            found = g
    return count, found is not None, found or [[0] * n for _ in range(n)]


def _search_inputs(rng, n, p, kind):
    def rand():
        return [[rng.randrange(p) for _ in range(n)] for _ in range(n)]

    A1, A2 = rand(), rand()
    if kind == "scalar":        # A1 = B1 = c I: every g fits pair 1
        c = rng.randrange(p)
        A1 = [[c * (i == j) for j in range(n)] for i in range(n)]
    if kind == "zero":
        return [[[0] * n for _ in range(n)]] * 4
    if kind == "equal":
        return A1, A2, A1, A2
    if kind == "random":
        return A1, A2, rand(), rand()
    while True:                 # conjugate by a random invertible g
        g = rand()
        if _leibniz(g, p):
            break
    ginv = kernels.inverse_mod(g, p)
    return (A1, A2) + tuple(_product(_product(g, A, p), ginv, p) for A in (A1, A2))


def test_search_against_enumeration(rng, monkeypatch):
    """(count, ok, found) equal to the enumeration's on seeded conjugate,
    equal, random and zero pairs, and on conjugate pairs whose first matrix
    is scalar, where every pair-1 residual agrees and only pair 2 and the
    determinant decide; at the default cell budget and at 32 cells, where
    every search runs in many blocks of both row indices."""
    sizes = ((1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (2, 5), (3, 2))
    cases = [(n, p, kind) for n, p in sizes
             for kind in ("conjugate", "conjugate", "equal", "random", "zero")]
    cases += [(3, 3, kind) for kind in ("conjugate",) * 4 + ("equal", "random", "zero")]
    cases += [(n, p, "scalar") for n, p in sizes + ((3, 3),)]
    found_any, default = 0, kernels._CELLS
    for n, p, kind in cases:
        mats = _search_inputs(rng, n, p, kind)
        want = _search_by_enumeration(*mats, p)
        for cells in (default, 32):
            monkeypatch.setattr(kernels, "_CELLS", cells)
            count, ok, found = kernels.conjugator_search_mod(
                *[np.array(M, dtype=np.int64) for M in mats], p)
            assert (count, ok, found.tolist()) == want, (n, p, kind, cells)
            assert found.dtype == np.int64 and found.shape == (n, n)
        found_any += want[1]
    assert 0 < found_any < len(cases)


def test_search_guard_and_memory():
    """p^(n^2) >= 2^63 is refused at once whatever max_order is, and one
    search holds a few MB at most."""
    import time
    import tracemalloc

    from simspec import Mat, MatrixPair, PrimeField, find_conjugator
    from simspec.errors import ResourceGuardError

    F = PrimeField(1_000_003)
    P = MatrixPair(Mat.diag(F, [1, 2, 3]), Mat.unit(F, 3, 1, 2))
    t0 = time.perf_counter()
    with pytest.raises(ResourceGuardError):
        find_conjugator(P, P, max_order=10 ** 60)
    assert time.perf_counter() - t0 < 1.0

    rng = np.random.default_rng(5)
    cases = []
    for n, p in ((3, 5), (2, 61)):
        A1, A2, B2 = (rng.integers(0, p, (n, n)) for _ in range(3))
        cases.append((p, (A1, A2, A1, B2)))
    # the worst case of the residual join: every (U, r) matches
    cases.append((5, (np.zeros((3, 3), dtype=np.int64),) * 4))
    for p, mats in cases:
        n = len(mats[0])
        tracemalloc.start()
        try:
            count, _, _ = kernels.conjugator_search_mod(*mats, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == order_gl(n, p) and peak < 16 * 2 ** 20


def test_numpy_stays_off_the_import_path():
    """Only the GL_n(F_p) search loads numpy: importing simspec and its CLI,
    canonicalizing, deciding and evaluating polynomials over F_7 and Q leave
    it unloaded, and find_conjugator loads it and still answers."""
    code = textwrap.dedent("""
        import random, sys
        import simspec, simspec.cli
        from simspec import (QQ, MatrixPair, NcPoly, PrimeField, canonicalize,
                             find_conjugator, orbit_eq_by_ranks)
        from simspec.sampling import random_simple_spectrum_pair
        rng = random.Random(1)
        for field in (PrimeField(7), QQ):
            P = random_simple_spectrum_pair(field, 3, rng)
            Q = random_simple_spectrum_pair(field, 3, rng)
            canonicalize(P)
            orbit_eq_by_ranks(P, P)
            orbit_eq_by_ranks(P, Q)
            NcPoly.word(field, (1, 2, 1), m=2).eval(P.mats())
        print("numpy" in sys.modules)
        P = random_simple_spectrum_pair(PrimeField(3), 2, rng)
        g, count = find_conjugator(P, P)
        print(g is not None and count == 48, "numpy" in sys.modules)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(kernels.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True).stdout
    assert out.split() == ["False", "True", "True"]
