import itertools
import random
from fractions import Fraction

import pytest

from simspec.errors import NotSimpleSpectrumError, ResourceGuardError, SingularMatrixError
from simspec.fields import QQ, PrimeField, field_cmp
from simspec.matrices import (
    Mat,
    _eigenbasis,
    charpoly,
    conjugate,
    det,
    diagonalizer,
    eigs_in_field,
    enumerate_GL,
    inverse,
    nullspace_basis,
    order_gl,
    rank,
    sigma,
)
from simspec.sampling import random_invertible, random_matrix


# -- independent oracle: characteristic polynomial by Leibniz expansion ------

def _charpoly_leibniz(M):
    """Coefficients of det(xI - M) via the permutation sum, with polynomial
    coefficient arithmetic.  Exponential; for cross-checking n <= 4 only."""
    field = M.field
    n = M.n
    zero, one = field.zero, field.one

    def poly_mul(a, b):
        out = [zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        return out

    total = [zero] * (n + 1)
    for perm in itertools.permutations(range(n)):
        sign = one
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            v = start
            while not seen[v]:
                seen[v] = True
                v = perm[v]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = [one]
        for i in range(n):
            if perm[i] == i:
                term = poly_mul(term, [-M[i, i], one])  # (x - M_ii), ascending
            else:
                term = poly_mul(term, [-M[i, perm[i]]])
        term = [sign * c for c in term]
        for k, c in enumerate(term):
            total[k] = total[k] + c
    # ascending -> descending, i.e. [1, c1, ..., cn]
    return tuple(reversed(total))


def test_rank_examples():
    assert rank(Mat.zeros(QQ, 4)) == 0
    stair = Mat(QQ, [[0, 1, 0, -1], [0, 0, 0, 0], [0, -1, 0, 1], [0, 0, 0, 0]])
    assert rank(stair) == 1
    stair0 = Mat(QQ, [[0, 1, 0, 0], [0, 0, 0, 0], [0, -1, 0, 1], [0, 0, 0, 0]])
    assert rank(stair0) == 2


def test_rank_invariance_under_gl(rng, field):
    for _ in range(25):
        n = rng.choice([2, 3, 4])
        M = random_matrix(field, n, rng)
        g = random_invertible(field, n, rng)
        h = random_invertible(field, n, rng)
        assert rank(g @ M @ h) == rank(M)


def test_sigma_examples():
    D = Mat.diag(QQ, [1, 2, 3])
    assert sigma(D, 1) == QQ.elem(6)
    assert sigma(D, 2) == QQ.elem(11)
    assert sigma(D, 3) == QQ.elem(6)
    assert sigma(Mat.identity(QQ, 5), 5) == QQ.one


def test_sigma_trace_det_and_leibniz(rng, field):
    for _ in range(15):
        n = rng.choice([2, 3, 4])
        M = random_matrix(field, n, rng, height=5)
        got = charpoly(M)
        assert got == _charpoly_leibniz(M)
        tr = M[0, 0]
        for i in range(1, n):
            tr = tr + M[i, i]
        assert sigma(M, 1) == tr
        assert sigma(M, n) == det(M)


def test_sigma_conjugation_invariant(rng, field):
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        M = random_matrix(field, n, rng)
        g = random_invertible(field, n, rng)
        gM = conjugate(g, M)
        for t in range(1, n + 1):
            assert sigma(gM, t) == sigma(M, t)


def test_sigma_elementary_symmetric_exhaustive():
    F3 = PrimeField(3)
    for n in (2, 3, 4):
        for vals in itertools.product(range(3), repeat=n):
            D = Mat.diag(F3, vals)
            elems = [F3.elem(v) for v in vals]
            for t in range(1, n + 1):
                want = F3.zero
                for comb in itertools.combinations(elems, t):
                    term = F3.one
                    for e in comb:
                        term = term * e
                    want = want + term
                assert sigma(D, t) == want


def test_eigs_examples():
    assert eigs_in_field(Mat.diag(QQ, [0, 1])) == [(QQ.zero, 1), (QQ.one, 1)]
    assert eigs_in_field(Mat.unit(QQ, 2, 1, 2)) == [(QQ.zero, 2)]
    comp = Mat(QQ, [[0, 2], [1, 0]])  # roots sqrt(2), irrational
    # rational-root candidates all fail, so no eigenvalues in Q
    coeffs = charpoly(comp)
    for cand in (2, 1, -1, -2):
        x = QQ.elem(cand)
        val = coeffs[0]
        for c in coeffs[1:]:
            val = val * x + c
        assert not val.is_zero()
    assert eigs_in_field(comp) == []


def test_eigs_match_det_roots_fp(rng):
    F7 = PrimeField(7)
    ident = Mat.identity(F7, 3)
    for _ in range(20):
        M = random_matrix(F7, 3, rng)
        got = dict(eigs_in_field(M))
        for a in F7.elements():
            is_root = det(M - ident * a).is_zero()
            assert (a in got) == is_root
        assert sum(got.values()) <= 3


def test_eigs_multiplicity():
    M = Mat.diag(QQ, [2, 2, 5])
    assert eigs_in_field(M) == [(QQ.elem(2), 2), (QQ.elem(5), 1)]
    F5 = PrimeField(5)
    M = Mat.diag(F5, [1, 1, 1])
    assert eigs_in_field(M) == [(F5.one, 3)]


def test_eigs_rational_fractions():
    M = Mat.diag(QQ, [Fraction(1, 2), Fraction(-3, 4)])
    assert eigs_in_field(M) == [(QQ.elem(Fraction(-3, 4)), 1), (QQ.elem(Fraction(1, 2)), 1)]


def test_rational_root_search_is_bounded():
    """The divisor scan for rational eigenvalues is refused, at once, when it
    would pass MAX_ROOT_SCAN trial divisions; below that it still answers."""
    import time

    from simspec.canonical import MatrixPair, canonicalize

    g = Mat(QQ, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    A2 = Mat(QQ, [[1, 2, 0], [0, 1, 3], [4, 0, 1]])
    a = 10 ** 10 + 19
    t0 = time.perf_counter()
    with pytest.raises(ResourceGuardError):
        canonicalize(MatrixPair(conjugate(g, Mat.diag(QQ, [1, a, a + 2])), A2))
    assert time.perf_counter() - t0 < 1.0
    a = 10 ** 6 + 3          # sqrt(a (a + 2)) < 2^20
    A1 = conjugate(g, Mat.diag(QQ, [1, a, a + 2]))
    assert eigs_in_field(A1) == [(QQ.elem(v), 1) for v in (1, a, a + 2)]
    assert canonicalize(MatrixPair(A1, A2)).canon.eigs == tuple(QQ.elem(v) for v in (1, a, a + 2))


def test_rational_entries_are_fractions():
    """Q entries are stored as Fractions, never ints (1 / int is a float)."""
    from simspec.ncpoly import NcPoly

    A, B = Mat(QQ, [[2, 1], [1, 1]]), Mat(QQ, [[1, 0], [3, 1]])
    for M in (A, inverse(A), A @ B, NcPoly.word(QQ, (1, 2), m=2).eval((A, B))):
        assert all(type(x) is Fraction for row in M.values() for x in row)


def test_diagonalizer_examples():
    A = Mat.diag(QQ, [0, 1, 2])
    g, eigs = diagonalizer(A)
    assert g == Mat.identity(QQ, 3)
    assert eigs == [QQ.zero, QQ.one, QQ.elem(2)]

    A = Mat.diag(QQ, [2, 0, 1])
    g, eigs = diagonalizer(A)
    assert eigs == [QQ.zero, QQ.one, QQ.elem(2)]
    assert conjugate(g, A) == Mat.diag(QQ, [0, 1, 2])
    # permutation matrix: one 1 per row/column
    ones = sum(1 for row in g.rows for e in row if e == QQ.one)
    zeros = sum(1 for row in g.rows for e in row if e.is_zero())
    assert ones == 3 and zeros == 6

    F5 = PrimeField(5)
    A = Mat(F5, [[0, 1], [1, 0]])
    g, eigs = diagonalizer(A)
    assert [e.value for e in eigs] == [1, 4]
    assert conjugate(g, A) == Mat.diag(F5, [1, 4])


def test_diagonalizer_property(rng, field):
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        pool = list(range(-6, 7)) if field.is_rationals else list(range(field.p))
        vals = rng.sample(pool, n)
        g0 = random_invertible(field, n, rng)
        A = conjugate(g0, Mat.diag(field, vals))
        g, eigs = diagonalizer(A)
        assert conjugate(g, A) == Mat.diag(field, eigs)
        assert all(field_cmp(a, b) < 0 for a, b in zip(eigs, eigs[1:]))


def _companion(field, vals):
    """The companion matrix of prod (x - v): ones below the diagonal, minus
    the coefficients in the last column."""
    coeffs = [field.one]                    # ascending
    for v in map(field.elem, vals):
        coeffs = [lo - hi * v for lo, hi in zip([field.zero] + coeffs, coeffs + [field.zero])]
    n = len(vals)
    return Mat(field, [[int(i == j + 1) for j in range(n - 1)] + [-coeffs[i]]
                       for i in range(n)])


@pytest.mark.parametrize("field", [PrimeField(5), PrimeField(7), PrimeField(11), QQ],
                         ids=["F5", "F7", "F11", "Q"])
def test_krylov_eigenbasis_matches_nullspaces_and_inverse(field):
    """_eigenbasis's Krylov eigenvectors and dual basis equal their
    definition: per eigenvalue the one RREF nullspace vector of A^T - a I,
    and the Gauss-Jordan inverse of the matrix of those rows.  Diagonal and
    permuted-diagonal A leave e_1 non-cyclic, so every eigenvalue but one
    needs a later e_i; over Q the eigenvalues and conjugators carry
    denominators."""
    rng = random.Random(16)
    for n in range(1, 7):
        if not field.is_rationals and field.p < n:
            continue
        for _ in range(6):
            if field.is_rationals:
                vals = [Fraction(v, rng.choice([1, 2, 3])) for v in rng.sample(range(-9, 10), n)]
                if len(set(vals)) < n:
                    continue
            else:
                vals = rng.sample(range(field.p), n)
            perm = rng.sample(range(n), n)
            swap = Mat(field, [[int(perm[i] == j) for j in range(n)] for i in range(n)])
            g = random_invertible(field, n, rng)
            D = Mat.diag(field, vals)
            for A in (D, conjugate(swap, D), _companion(field, vals), conjugate(g, D)):
                rows, roots, inv = _eigenbasis(A.values(), field)
                eigs = [a for a, _ in eigs_in_field(A)]
                ref = Mat(field, [nullspace_basis(A.transpose() - Mat.diag(field, [a] * n))[0]
                                  for a in eigs])
                assert [field.elem(a) for a in roots] == eigs
                assert Mat(field, rows) == ref
                assert Mat(field, inv) == inverse(ref)


def test_diagonalizer_rejects_non_simple():
    with pytest.raises(NotSimpleSpectrumError):
        diagonalizer(Mat.unit(QQ, 2, 1, 2))
    with pytest.raises(NotSimpleSpectrumError):
        diagonalizer(Mat(QQ, [[0, 2], [1, 0]]))


def test_conjugate_examples(rng):
    A1, A2 = Mat.diag(QQ, [0, 1]), Mat.unit(QQ, 2, 1, 2)
    assert conjugate(Mat.identity(QQ, 2), (A1, A2)) == (A1, A2)
    g = Mat.diag(QQ, [2, 1])
    got = conjugate(g, (A1, A2))
    assert got == (A1, A2 * QQ.elem(2))
    with pytest.raises(SingularMatrixError):
        conjugate(Mat.zeros(QQ, 2), A1)


def test_conjugate_action_property(rng, field):
    for _ in range(15):
        n = rng.choice([2, 3])
        g = random_invertible(field, n, rng)
        h = random_invertible(field, n, rng)
        P = (random_matrix(field, n, rng), random_matrix(field, n, rng))
        assert conjugate(g @ h, P) == conjugate(g, conjugate(h, P))


def test_nullspace_basis(rng, field):
    for _ in range(10):
        n = rng.choice([2, 3, 4])
        M = random_matrix(field, n, rng)
        basis = nullspace_basis(M)
        assert len(basis) == n - rank(M)
        for v in basis:
            col = Mat(field, [[x] for x in v])
            assert (M @ col).is_zero()


def test_enumerate_gl_counts():
    assert sum(1 for _ in enumerate_GL(1, 2)) == 1
    assert sum(1 for _ in enumerate_GL(2, 2)) == 6
    assert sum(1 for _ in enumerate_GL(2, 3)) == 48
    assert sum(1 for _ in enumerate_GL(2, 5)) == order_gl(2, 5) == 480
    assert sum(1 for _ in enumerate_GL(3, 2)) == order_gl(3, 2) == 168
    assert sum(1 for _ in enumerate_GL(3, 3)) == order_gl(3, 3) == 11232


def test_enumerate_gl_unique_and_invertible():
    seen = set()
    for g in enumerate_GL(2, 3):
        assert not det(g).is_zero()
        assert g not in seen
        seen.add(g)
    assert len(seen) == 48


def test_enumerate_gl_guard():
    with pytest.raises(ResourceGuardError):
        list(enumerate_GL(4, 2))
    with pytest.raises(ResourceGuardError):
        list(enumerate_GL(3, 5, max_order=1000))
    # n > 3 is refused whatever max_order is, and the message says so
    with pytest.raises(ResourceGuardError, match="n <= 3 only") as exc:
        list(enumerate_GL(4, 2, max_order=10 ** 9))
    assert "raise max_order" not in str(exc.value)
    with pytest.raises(ResourceGuardError, match="raise max_order to enumerate"):
        list(enumerate_GL(3, 5, max_order=1000))


def test_inverse_roundtrip(rng, field):
    for _ in range(10):
        n = rng.choice([2, 3, 4])
        g = random_invertible(field, n, rng)
        assert g @ inverse(g) == Mat.identity(field, n)
    with pytest.raises(SingularMatrixError):
        inverse(Mat.zeros(QQ, 3))


def test_int64_overflow_guard_at_large_p():
    """At p = 4294967291, where int64 sums of products overflow, the small ops
    and NcPoly.eval on Python ints are exact, checked against Python-int
    arithmetic here; canonicalize's residue scan refuses such a p at once,
    and the int64 search behind find_conjugator still refuses it."""
    import time

    from simspec.canonical import MatrixPair, canonicalize, find_conjugator
    from simspec.ncpoly import NcPoly

    rng = random.Random(64)
    big = PrimeField(4294967291)
    p = big.p
    X = [[rng.randrange(p) for _ in range(4)] for _ in range(4)]
    Y = [[rng.randrange(p) for _ in range(4)] for _ in range(4)]
    A, B = Mat(big, X), Mat(big, Y)

    def product(U, V):
        return [[sum(U[i][k] * V[k][j] for k in range(len(V))) % p
                 for j in range(len(V[0]))] for i in range(len(U))]

    assert A @ B == Mat(big, product(X, Y))
    leibniz = sum((-1) ** sum(s[i] > s[j] for i in range(4) for j in range(i + 1, 4))
                  * X[0][s[0]] * X[1][s[1]] * X[2][s[2]] * X[3][s[3]]
                  for s in itertools.permutations(range(4))) % p
    assert det(A).value == leibniz != 0 and rank(A) == 4
    Z = X[:3] + [[(5 * X[0][j] + 7 * X[1][j]) % p for j in range(4)]]
    assert rank(Mat(big, Z)) == 3 and det(Mat(big, Z)).is_zero()
    inv = [[e.value for e in row] for row in inverse(A).rows]
    ident = [[int(i == j) for j in range(4)] for i in range(4)]
    assert product(X, inv) == ident == product(inv, X)
    c = [e.value for e in charpoly(A)]
    assert c[1] == -sum(X[i][i] for i in range(4)) % p and c[4] == leibniz
    acc, power = [[0] * 4 for _ in range(4)], ident     # Cayley-Hamilton
    for ck in reversed(c):
        acc = [[(x + ck * y) % p for x, y in zip(ra, rp)] for ra, rp in zip(acc, power)]
        power = product(power, X)
    assert acc == [[0] * 4 for _ in range(4)]

    P = MatrixPair(Mat.diag(big, [1, 2, 3, 4]), B)
    t0 = time.perf_counter()
    with pytest.raises(ResourceGuardError):
        canonicalize(P)
    assert time.perf_counter() - t0 < 1.0
    with pytest.raises(ResourceGuardError):
        find_conjugator(P, P)
    assert NcPoly.word(big, (1, 2), m=2).eval((A, B)) == Mat(big, product(X, Y))

    p = 1_000_000_007          # 5 (p - 1)^2 < 2^63
    F = PrimeField(p)
    X = [[rng.randrange(p) for _ in range(5)] for _ in range(5)]
    Y = [[rng.randrange(p) for _ in range(5)] for _ in range(5)]
    assert Mat(F, X) @ Mat(F, Y) == Mat(F, product(X, Y))
