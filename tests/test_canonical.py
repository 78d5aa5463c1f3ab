import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from simspec.errors import (
    FieldMismatchError,
    FieldTooSmallError,
    NotSimpleSpectrumError,
    ResourceGuardError,
)
from simspec.fields import QQ, PrimeField
from simspec.matrices import Mat, conjugate
from simspec.canonical import (
    MatrixPair,
    canonicalize,
    find_conjugator,
    has_simple_spectrum,
    orbit_eq_brute,
    orbit_eq_canonical,
)
from simspec.sampling import random_invertible, random_simple_spectrum_pair
from simspec.separators import orbit_eq_by_ranks
from simspec.stargraph import Digraph, matches


def test_membership_examples():
    P = MatrixPair(Mat.diag(QQ, [0, 1, 2]), Mat.zeros(QQ, 3))
    assert has_simple_spectrum(P)
    P = MatrixPair(Mat.unit(QQ, 2, 1, 2), Mat.zeros(QQ, 2))
    assert not has_simple_spectrum(P)
    A2 = Mat(QQ, [[0, 0, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0], [1, 0, 2, 0]])
    assert has_simple_spectrum(MatrixPair(Mat.diag(QQ, [0, 1, 2, 3]), A2))


def test_field_size_guard():
    F3 = PrimeField(3)
    P = MatrixPair(Mat.diag(F3, [0, 1, 2, 0]), Mat.zeros(F3, 4))
    with pytest.raises(FieldTooSmallError):
        has_simple_spectrum(P)


def test_field_too_small_is_one_error_everywhere():
    F2 = PrimeField(2)
    P = MatrixPair(Mat.identity(F2, 3), Mat.identity(F2, 3))
    for op in (lambda: canonicalize(P), lambda: orbit_eq_canonical(P, P),
               lambda: has_simple_spectrum(P), lambda: orbit_eq_by_ranks(P, P)):
        with pytest.raises(FieldTooSmallError,
                           match="F_2 is too small for 3 distinct eigenvalues"):
            op()


def test_pair_validation():
    with pytest.raises(FieldMismatchError):
        MatrixPair(Mat.zeros(QQ, 2), Mat.zeros(PrimeField(5), 2))
    with pytest.raises(ValueError):
        MatrixPair(Mat.zeros(QQ, 2), Mat.zeros(QQ, 3))


def test_canonicalize_already_canonical():
    A2 = Mat(QQ, [[7, 1, 0], [0, 3, 1], [Fraction(1, 2), 0, 0]])
    # type 1->2->3; (3,1) is a free cell (path arrows (1,2),(2,3) < (3,1))
    P = MatrixPair(Mat.diag(QQ, [0, 1, 2]), A2)
    res = canonicalize(P)
    assert res.g == Mat.identity(QQ, 3)
    assert res.canon.reconstituted() == P
    again = canonicalize(res.canon.reconstituted())
    assert again.canon == res.canon and again.g == Mat.identity(QQ, 3)


def test_canonicalize_scales_single_entry():
    for c in (Fraction(5), Fraction(-2, 3)):
        P = MatrixPair(Mat.diag(QQ, [0, 1]), Mat.unit(QQ, 2, 1, 2) * QQ.elem(c))
        res = canonicalize(P)
        assert sorted(res.canon.type_graph.arrows) == [(1, 2)]
        assert res.canon.star.text_rows() == ["*1", "**"]
        assert res.canon.reconstituted().A2 == Mat.unit(QQ, 2, 1, 2)
        assert dict(res.canon.params) == {(1, 1): QQ.zero, (2, 1): QQ.zero,
                                          (2, 2): QQ.zero}
        assert conjugate(res.g, P.mats()) == res.canon.reconstituted().mats()


def test_canonicalize_counterexample_type():
    a = [QQ.elem(v) for v in (0, 1, 2, 3)]
    for val in (1, 2):
        A2 = Mat(QQ, [[0, 0, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0], [1, 0, val, 0]])
        res = canonicalize(MatrixPair(Mat.diag(QQ, a), A2))
        assert res.canon.type_graph == Digraph(4, [(4, 1), (2, 1), (2, 3)])
        assert res.canon.param(4, 3) == QQ.elem(val)
    P1 = MatrixPair(Mat.diag(QQ, a),
                    Mat(QQ, [[0, 0, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0], [1, 0, 1, 0]]))
    P2 = MatrixPair(Mat.diag(QQ, a),
                    Mat(QQ, [[0, 0, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0], [1, 0, 2, 0]]))
    assert not orbit_eq_canonical(P1, P2)


def test_canonicalize_degenerate_zero():
    P = MatrixPair(Mat.diag(QQ, [3, 4, 5]), Mat.zeros(QQ, 3))
    c = canonicalize(P).canon
    assert c.type_graph == Digraph(3, [])
    assert all(v.is_zero() for _, v in c.params)


def test_canonicalize_requires_membership():
    with pytest.raises(NotSimpleSpectrumError):
        canonicalize(MatrixPair(Mat.unit(QQ, 2, 1, 2), Mat.zeros(QQ, 2)))


def test_witness_and_pattern_every_call(rng, field):
    for _ in range(30):
        n = rng.choice([2, 3, 4])
        if not field.is_rationals and field.p < n:
            continue
        P = random_simple_spectrum_pair(field, n, rng, height=4)
        res = canonicalize(P)
        recon = res.canon.reconstituted()
        assert conjugate(res.g, P.mats()) == recon.mats()
        assert matches(res.canon.star, recon.A2)
        # zero cells really are zero, one cells really are one
        again = canonicalize(recon)
        assert again.canon == res.canon
        assert again.g == Mat.identity(field, n)


def test_orbit_invariance(rng):
    F7, F11 = PrimeField(7), PrimeField(11)
    for field in (F7, F11):
        for _ in range(60):
            n = rng.choice([2, 3, 4, 5])
            P = random_simple_spectrum_pair(field, n, rng)
            g = random_invertible(field, n, rng)
            Q = MatrixPair(*conjugate(g, P.mats()))
            assert canonicalize(Q).canon == canonicalize(P).canon


def test_orbit_invariance_rationals(rng):
    for _ in range(15):
        n = rng.choice([2, 3])
        P = random_simple_spectrum_pair(QQ, n, rng, height=3)
        g = random_invertible(QQ, n, rng, height=3)
        Q = MatrixPair(*conjugate(g, P.mats()))
        assert canonicalize(Q).canon == canonicalize(P).canon


def _fraction_product(X, Y):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*Y)]
            for row in X]


def _leibniz_det(X):
    n = len(X)
    return sum((-1) ** sum(s[k] > s[l] for k in range(n) for l in range(k + 1, n))
               * math.prod(X[k][s[k]] for k in range(n))
               for s in itertools.permutations(range(n)))


def test_canonicalize_rational_edge_inputs(rng):
    """Q inputs that no random pair produces: A1 with non-integer entries and
    with negative, zero and fractional eigenvalues, a zero A2, and
    eigenvalues near the root-scan guard.  The witness is checked with plain
    Fraction arithmetic, and the canonical data is the same on conjugates."""
    a = 10 ** 6 + 3
    half, third = Fraction(1, 2), Fraction(1, 3)
    cases = [
        ([Fraction(-3, 2), 0, Fraction(5, 7)],
         [[half, 2, 0], [third, 0, -1], [0, 4, Fraction(7, 5)]]),
        ([-4, 0, third, 2], [[0] * 4 for _ in range(4)]),
        ([-1, 0], [[0, 3], [Fraction(-2, 9), 1]]),
        ([1, a, a + 2], [[1, 2, 0], [0, 1, 3], [4, 0, 1]]),
        ([Fraction(-7, 3), -1, 0, half, 5], [[Fraction(i + 1, j + 2) if i <= j else 0
                                              for j in range(5)] for i in range(5)]),
    ]
    g = Mat(QQ, [[1, half, 0, 0, 0], [0, 1, -third, 0, 0], [Fraction(1, 5), 0, 1, 0, 0],
                 [0, 0, 0, 1, 2], [0, 0, 0, 0, 1]])
    for eigs, A2 in cases:
        n = len(eigs)
        gn = Mat(QQ, [row[:n] for row in g.values()[:n]])
        P = MatrixPair(conjugate(gn, Mat.diag(QQ, eigs)), Mat(QQ, A2))
        assert any(x.denominator != 1 for row in P.A1.values() for x in row)
        res = canonicalize(P)
        C = res.canon
        assert [e.value for e in C.eigs] == sorted(Fraction(e) for e in eigs)
        G = res.g.values()
        D = [[C.eigs[i].value if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        B = C.reconstituted().A2.values()
        assert _leibniz_det(G) != 0
        assert _fraction_product(G, P.A1.values()) == _fraction_product(D, G)
        assert _fraction_product(G, P.A2.values()) == _fraction_product(B, G)
        assert all(type(x) is Fraction for row in G + B for x in row)
        if not any(map(any, A2)):
            assert all(v.is_zero() for _, v in C.params) and C.type_graph == Digraph(n, [])
        for _ in range(2):
            h = random_invertible(QQ, n, rng, height=5)
            assert canonicalize(MatrixPair(*conjugate(h, P.mats()))).canon == C


def test_orbit_eq_brute_examples(rng):
    F3 = PrimeField(3)
    P = random_simple_spectrum_pair(F3, 2, rng)
    assert orbit_eq_brute(P, P)
    g = random_invertible(F3, 2, rng)
    assert orbit_eq_brute(P, MatrixPair(*conjugate(g, P.mats())))
    witness, scanned = find_conjugator(P, MatrixPair(*conjugate(g, P.mats())))
    assert witness is not None and scanned == 48
    assert conjugate(witness, P.mats()) == conjugate(g, P.mats())


def test_orbit_eq_brute_counterexample_small_field():
    # the 3x3 pairs (E12, E13) and (E12, E32) stay inequivalent over F3
    F3 = PrimeField(3)
    A = MatrixPair(Mat.unit(F3, 3, 1, 2), Mat.unit(F3, 3, 1, 3))
    B = MatrixPair(Mat.unit(F3, 3, 1, 2), Mat.unit(F3, 3, 3, 2))
    witness, scanned = find_conjugator(A, B)
    assert witness is None
    assert scanned == 11232


def test_orbit_eq_brute_guard():
    F7 = PrimeField(7)
    P = MatrixPair(Mat.diag(F7, [0, 1, 2]), Mat.zeros(F7, 3))
    with pytest.raises(ResourceGuardError, match="raise max_order to search"):
        orbit_eq_brute(P, P, max_order=100)
    # raising max_order never lifts the n <= 3 limit, and the message says so
    F2 = PrimeField(2)
    P4 = MatrixPair(Mat.identity(F2, 4), Mat.identity(F2, 4))
    with pytest.raises(ResourceGuardError, match="n <= 3 only") as exc:
        find_conjugator(P4, P4, max_order=10 ** 9)
    assert "raise max_order" not in str(exc.value)
    with pytest.raises(ValueError):
        orbit_eq_brute(MatrixPair(Mat.diag(QQ, [0, 1]), Mat.zeros(QQ, 2)),
                       MatrixPair(Mat.diag(QQ, [0, 1]), Mat.zeros(QQ, 2)))


def test_oracle_agreement_random(rng):
    F3 = PrimeField(3)
    for _ in range(40):
        P = random_simple_spectrum_pair(F3, 2, rng)
        if rng.random() < 0.5:
            g = random_invertible(F3, 2, rng)
            Q = MatrixPair(*conjugate(g, P.mats()))
        else:
            Q = random_simple_spectrum_pair(F3, 2, rng)
        assert orbit_eq_canonical(P, Q) == orbit_eq_brute(P, Q)


def test_canonical_pair_structural_equality(rng):
    P = random_simple_spectrum_pair(PrimeField(7), 3, rng)
    c1 = canonicalize(P).canon
    c2 = canonicalize(P).canon
    assert c1 == c2 and hash(c1) == hash(c2)


# Each script breaks one step of canonicalize's one body, so that the witness
# it returns is wrong, and runs under python -O, where assert statements are
# dropped: the Q script swaps two eigenvector rows, the F_p script puts an
# off-by-one entry into the inverse of the eigenvector matrix that
# _eigenbasis returns with it.
_BREAK_Q = """
import simspec.canonical as canonical
real = canonical._eigenbasis
def swapped(A, field):
    g0, roots, g0inv = real(A, field)
    g0[0], g0[1] = g0[1], g0[0]
    return g0, roots, g0inv
canonical._eigenbasis = swapped
"""

_BREAK_FP = """
import simspec.canonical as canonical
real = canonical._eigenbasis
def off_by_one(A, field):
    g0, roots, inv = real(A, field)
    inv[0][0] = (inv[0][0] + 1) % field.p
    return g0, roots, inv
canonical._eigenbasis = off_by_one
"""

_CHECK = """
import sys
assert sys.flags.optimize == 1
from simspec.canonical import MatrixPair, canonicalize
from simspec.errors import VerificationError
from simspec.fields import QQ, PrimeField
from simspec.matrices import Mat
from simspec.cli import main
field = QQ if sys.argv[1] == "Q" else PrimeField(7)
P = MatrixPair(Mat.diag(field, [1, 2, 3]), Mat(field, [[1, 2, 0], [3, 0, 1], [2, 1, 1]]))
try:
    canonicalize(P)
except VerificationError as exc:
    print("raised:", exc)
sys.exit(main(["canonicalize", sys.argv[2]]))
"""


@pytest.mark.parametrize("lane", ["Q", "F7"])
def test_wrong_witness_raises_under_python_O(tmp_path, lane):
    import simspec
    from simspec.serialize import dumps, pair_to_json

    field = QQ if lane == "Q" else PrimeField(7)
    P = MatrixPair(Mat.diag(field, [1, 2, 3]),
                   Mat(field, [[1, 2, 0], [3, 0, 1], [2, 1, 1]]))
    path = tmp_path / "p.json"
    path.write_text(dumps(pair_to_json(P)))
    script = (_BREAK_Q if lane == "Q" else _BREAK_FP) + _CHECK
    src = os.path.dirname(os.path.dirname(os.path.abspath(simspec.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script, lane, str(path)],
                          capture_output=True, text=True, env=env)
    assert "raised: witness fails to transform" in proc.stdout, proc.stderr
    assert proc.returncode == 3, proc.stderr
    assert "internal verification failure" in proc.stderr
    assert proc.stdout.count("\n") == 1      # nothing on stdout from the CLI
