import itertools
import os
import subprocess
import sys

import pytest

from simspec.errors import VerificationError
from simspec.fields import QQ, PrimeField
from simspec.matrices import Mat, rank
from simspec.ncpoly import eval_word, is_multilinear
from simspec.staircase import (
    StaircaseCert,
    ThreeDiagSeq,
    cert_matrix,
    staircase_cert,
    td_matrices,
    verify_cert,
)
from simspec.stargraph import FWD, REV

ALPHAS = (-1, 0, 1, 2)


def _seq(idx, delta, n=None):
    return ThreeDiagSeq(tuple(idx), tuple(delta), n or max(idx))


def _dense_cert_matrix(S, cert, alpha, field):
    """The reference certificate matrix from td_matrices and eval_word
    products: Alt(w1(S),..,wr(S)) + alpha * u1(S) E_{i1 i_{k+1}} u2(S)."""
    mats = td_matrices(S, field)
    corner = Mat.unit(field, S.n, S.idx[0], S.idx[-1])
    acc = eval_word(cert.u1, mats) @ corner @ eval_word(cert.u2, mats) * alpha
    for l, w in enumerate(cert.ws, start=1):
        acc = acc + (eval_word(w, mats) if l % 2 == 1 else -eval_word(w, mats))
    return acc


def test_td_matrices_examples():
    S = _seq((1, 2), (FWD,), 2)
    assert td_matrices(S, QQ) == [Mat.unit(QQ, 2, 1, 2)]
    S = _seq((1, 2, 3, 4), (FWD, REV, FWD))
    assert td_matrices(S, QQ) == [Mat.unit(QQ, 4, 1, 2),
                                  Mat.unit(QQ, 4, 3, 2),
                                  Mat.unit(QQ, 4, 3, 4)]
    S = _seq(range(1, 7), (FWD, REV, FWD, REV, FWD))
    mats = td_matrices(S, QQ)
    assert mats[1] == Mat.unit(QQ, 6, 3, 2) and mats[4] == Mat.unit(QQ, 6, 5, 6)


def test_displayed_matrix_k3():
    # staircase (E12, E23^T, E34) with corner E14: rows for each alpha
    S = _seq((1, 2, 3, 4), (FWD, REV, FWD))
    cert = staircase_cert(S)
    for alpha in (-1, 0, 1):
        M = cert_matrix(S, cert, QQ.elem(alpha), QQ)
        want = Mat(QQ, [[0, 1, 0, alpha], [0, 0, 0, 0], [0, -1, 0, 1], [0, 0, 0, 0]])
        assert M == want
        assert rank(M) == (1 if alpha == -1 else 2)


def test_displayed_matrix_k5():
    S = _seq(range(1, 7), (FWD, REV, FWD, REV, FWD))
    cert = staircase_cert(S)
    for alpha in (-1, 0, 1):
        M = cert_matrix(S, cert, QQ.elem(alpha), QQ)
        want = Mat(QQ, [
            [0, 1, 0, 0, 0, alpha],
            [0, 0, 0, 0, 0, 0],
            [0, -1, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, -1, 0, 1],
            [0, 0, 0, 0, 0, 0]])
        assert M == want
        assert rank(M) == (2 if alpha == -1 else 3)


def test_reduce_all_reversed():
    # the all-REV base case: its sandwich is checked like every other pattern's
    for k in range(1, 6):
        S = _seq(range(1, k + 2), (REV,) * k)
        cert = staircase_cert(S)
        assert cert == StaircaseCert(((1,),), (1,), tuple(range(k, 0, -1)))
        assert len(cert.u1) + len(cert.u2) == k + 1
        mats = td_matrices(S, QQ)
        corner = Mat.unit(QQ, k + 1, 1, k + 1)
        got = eval_word(cert.u1, mats) @ corner @ eval_word(cert.u2, mats)
        assert got == Mat.unit(QQ, k + 1, 2, 1)  # = E_{i1 i2} transposed
        assert got == eval_word(cert.ws[0], mats)


def test_reduce_mixed_base_case():
    assert staircase_cert(_seq((1, 2), (FWD,))) == StaircaseCert(((1,),), (), ())


def test_reduce_mixed_alternating():
    cert = staircase_cert(_seq((1, 2, 3, 4), (FWD, REV, FWD)))
    assert cert == StaircaseCert(((1,), (2,), (3,)), (), ())


def test_reduce_mixed_contraction():
    cert = staircase_cert(_seq((1, 2, 3), (FWD, FWD)))
    assert cert == StaircaseCert(((1, 2),), (), ())
    mats = td_matrices(_seq((1, 2, 3), (FWD, FWD)), QQ)
    corner = Mat.unit(QQ, 3, 1, 3)
    assert eval_word((1, 2), mats) == corner
    # REV,REV contraction followed by boundary stripping; the lifted
    # certificate is re-verified numerically inside staircase_cert
    cert = staircase_cert(_seq((1, 2, 3, 4), (REV, REV, FWD)))
    assert cert.r == 1


def test_reduce_mixed_worked_paths():
    # path patterns behind the worked 4x4 example
    cert = staircase_cert(_seq((3, 2, 1), (REV, FWD), 4))
    assert cert == StaircaseCert(((2,),), (1,), ())
    cert = staircase_cert(_seq((4, 1, 2), (FWD, REV), 4))
    assert cert == StaircaseCert(((1,),), (), (2,))
    cert = staircase_cert(_seq((4, 1, 2, 3), (FWD, REV, FWD), 4))
    assert cert == StaircaseCert(((1,), (2,), (3,)), (), ())


@pytest.mark.parametrize("fieldname", ["Q", "F7"])
def test_exhaustive_certificates(fieldname):
    field = QQ if fieldname == "Q" else PrimeField(7)
    for k in range(1, 6):
        for delta in itertools.product((FWD, REV), repeat=k):
            S = _seq(range(1, k + 2), delta)
            cert = staircase_cert(S)
            assert cert.r % 2 == 1 and 1 <= cert.r <= k
            assert len(cert.u1) + len(cert.u2) + 1 <= k + 2
            assert all(len(w) <= k for w in cert.ws)
            if any(d == FWD for d in delta):
                flat = cert.u1 + cert.u2
                for w in cert.ws:
                    flat += w
                assert is_multilinear(flat)
            assert verify_cert(S, cert, [field.elem(v) for v in ALPHAS], field)
            for v in ALPHAS:
                a = field.elem(v)
                assert cert_matrix(S, cert, a, field) == _dense_cert_matrix(S, cert, a, field)


def test_certificates_depend_only_on_delta(rng):
    for _ in range(20):
        k = rng.randint(1, 5)
        delta = tuple(rng.choice((FWD, REV)) for _ in range(k))
        n = rng.randint(k + 1, k + 4)
        idx = tuple(rng.sample(range(1, n + 1), k + 1))
        base = staircase_cert(_seq(range(1, k + 2), delta))
        relabeled = staircase_cert(ThreeDiagSeq(idx, delta, n))
        assert base == relabeled
        assert verify_cert(ThreeDiagSeq(idx, delta, n), relabeled,
                           [QQ.elem(v) for v in ALPHAS], QQ)
        # the index walks against dense products, on relabelled indices in
        # a larger n
        S = ThreeDiagSeq(idx, delta, n + rng.randint(0, 3))
        for field in (QQ, PrimeField(7)):
            for v in ALPHAS:
                a = field.elem(v)
                assert cert_matrix(S, base, a, field) == _dense_cert_matrix(S, base, a, field)


def test_long_pattern_certifies_cold():
    import simspec.staircase as staircase

    S = _seq(range(1, 33), tuple(FWD if l % 3 else REV for l in range(31)))
    staircase._cert_for_pattern.cache_clear()
    cert = staircase_cert(S)
    assert cert.r % 2 == 1 and 1 <= cert.r <= 31
    assert verify_cert(S, cert, [QQ.elem(v) for v in ALPHAS], QQ)


def test_verify_cert_rejects_wrong_r():
    S = _seq((1, 2, 3, 4), (FWD, REV, FWD))
    cert = staircase_cert(S)
    bogus = StaircaseCert(cert.ws + ((1,), (2,)), cert.u1, cert.u2)
    assert not verify_cert(S, bogus, [QQ.elem(-1)], QQ)
    # letters outside x1..xk: read as the last letter (x0) or as the corner
    # (x3 at k = 2), either would pass the rank formula
    alphas = [QQ.elem(v) for v in ALPHAS]
    assert not verify_cert(_seq((1, 2), (FWD,)), StaircaseCert(((0,),), (), ()), alphas)
    assert not verify_cert(_seq((1, 2, 3), (FWD, FWD)), StaircaseCert(((3,),), (), ()), alphas)


def test_seq_validation():
    with pytest.raises(ValueError):
        ThreeDiagSeq((1, 1), (FWD,), 2)
    with pytest.raises(ValueError):
        ThreeDiagSeq((1, 2), (FWD, REV), 2)
    with pytest.raises(ValueError):
        ThreeDiagSeq((1, 5), (FWD,), 4)
    with pytest.raises(ValueError):
        ThreeDiagSeq((1, 2), ("x",), 2)


def test_cert_json():
    S = _seq((1, 2, 3), (REV, REV))
    cert = staircase_cert(S)
    assert cert.to_json() == {"r": 1, "ws": ["x1"], "u1": "x1", "u2": "x2.x1"}


# wrong _reduce results for patterns not yet memoized: a broken staircase, an
# r = 1 word whose value is not elementary, an all-REV certificate whose
# u2 has the right length but the wrong order, and letters below x1 and past
# xk, which would pass if x0 were read as the last letter or x{k+1} as the
# corner
WRONG_REDUCTIONS = {
    "broken-staircase": ((REV, FWD, REV, FWD, REV, FWD),
                         StaircaseCert(((1,), (2,), (3,)), (), ())),
    "not-elementary": ((FWD, REV, FWD), StaircaseCert(((1, 2),), (), ())),
    "all-rev-u2-order": ((REV,) * 4, StaircaseCert(((1,),), (1,), (1, 2, 3, 4))),
    "letter-zero": ((FWD,), StaircaseCert(((0,),), (), ())),
    "letter-past-k": ((FWD, FWD), StaircaseCert(((3,),), (), ())),
}


@pytest.mark.parametrize("case", sorted(WRONG_REDUCTIONS))
def test_certificate_built_once_per_pattern_and_checked(monkeypatch, case):
    import simspec.staircase as staircase

    delta = (FWD, REV, FWD)
    first = staircase_cert(_seq((1, 2, 3, 4), delta))
    assert staircase_cert(_seq((5, 3, 1, 2), delta, 6)) is first
    pattern, wrong = WRONG_REDUCTIONS[case]
    staircase._cert_for_pattern.cache_clear()
    monkeypatch.setattr(staircase, "_reduce", lambda S: wrong)
    try:
        with pytest.raises(VerificationError):
            staircase_cert(_seq(range(1, len(pattern) + 2), pattern))
    finally:
        staircase._cert_for_pattern.cache_clear()


# The all-REV mutation again, under python -O where assert statements are
# dropped: the certificate check must still raise, and the CLI must exit 3
# with nothing on stdout.
_BREAK_ALL_REV = """
import sys
assert sys.flags.optimize == 1
import simspec.staircase as staircase
from simspec.cli import main
from simspec.errors import VerificationError
from simspec.stargraph import REV
staircase._reduce = lambda S: staircase.StaircaseCert(
    ((1,),), (1,), tuple(range(1, S.k + 1)))
try:
    staircase.staircase_cert(staircase.ThreeDiagSeq((1, 2, 3, 4, 5), (REV,) * 4, 5))
except VerificationError as exc:
    print("raised:", exc)
sys.exit(main(["staircase", "--k", "3", "--delta", "RRR"]))
"""


def test_wrong_all_rev_certificate_raises_under_python_O():
    import simspec

    src = os.path.dirname(os.path.dirname(os.path.abspath(simspec.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", _BREAK_ALL_REV],
                          capture_output=True, text=True, env=env)
    assert ("raised: foundation does not match the staircase corner"
            in proc.stdout), proc.stderr
    assert proc.returncode == 3, proc.stderr
    assert "internal verification failure" in proc.stderr
    assert proc.stdout.count("\n") == 1      # nothing on stdout from the CLI
