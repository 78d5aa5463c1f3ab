import itertools

import pytest

from simspec.errors import VerificationError
from simspec.fields import QQ, PrimeField
from simspec.matrices import Mat, rank
from simspec.ncpoly import eval_word, is_multilinear
from simspec.staircase import (
    SingleWordOutcome,
    StaircaseCert,
    StaircaseOutcome,
    ThreeDiagSeq,
    cert_matrix,
    reduce_all_reversed,
    reduce_mixed,
    staircase_cert,
    td_matrices,
    verify_cert,
)
from simspec.stargraph import FWD, REV

ALPHAS = (-1, 0, 1, 2)


def _seq(idx, delta, n=None):
    return ThreeDiagSeq(tuple(idx), tuple(delta), n or max(idx))


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
    for k in range(1, 6):
        S = _seq(range(1, k + 2), (REV,) * k)
        u1, u2 = reduce_all_reversed(S)
        assert u1 == (1,) and u2 == tuple(range(k, 0, -1))
        assert len(u1) + len(u2) == k + 1
        mats = td_matrices(S, QQ)
        corner = Mat.unit(QQ, k + 1, 1, k + 1)
        got = eval_word(u1, mats) @ corner @ eval_word(u2, mats)
        assert got == Mat.unit(QQ, k + 1, 2, 1)  # = E_{i1 i2} transposed
    with pytest.raises(ValueError):
        reduce_all_reversed(_seq((1, 2), (FWD,)))


def test_reduce_mixed_base_case():
    out = reduce_mixed(_seq((1, 2), (FWD,)))
    assert out == SingleWordOutcome((), (), (1,))


def test_reduce_mixed_alternating():
    out = reduce_mixed(_seq((1, 2, 3, 4), (FWD, REV, FWD)))
    assert out == StaircaseOutcome(((1,), (2,), (3,)), (), ())


def test_reduce_mixed_contraction():
    out = reduce_mixed(_seq((1, 2, 3), (FWD, FWD)))
    assert out == SingleWordOutcome((), (), (1, 2))
    mats = td_matrices(_seq((1, 2, 3), (FWD, FWD)), QQ)
    corner = Mat.unit(QQ, 3, 1, 3)
    assert eval_word((1, 2), mats) == corner
    # REV,REV contraction followed by boundary stripping; the lifted outcome
    # is re-verified numerically inside reduce_mixed
    out = reduce_mixed(_seq((1, 2, 3, 4), (REV, REV, FWD)))
    assert isinstance(out, SingleWordOutcome)


def test_reduce_mixed_worked_paths():
    # path patterns behind the worked 4x4 example
    out = reduce_mixed(_seq((3, 2, 1), (REV, FWD), 4))
    assert out == SingleWordOutcome((1,), (), (2,))
    out = reduce_mixed(_seq((4, 1, 2), (FWD, REV), 4))
    assert out == SingleWordOutcome((), (2,), (1,))
    out = reduce_mixed(_seq((4, 1, 2, 3), (FWD, REV, FWD), 4))
    assert out == StaircaseOutcome(((1,), (2,), (3,)), (), ())


def test_reduce_mixed_requires_fwd():
    with pytest.raises(ValueError):
        reduce_mixed(_seq((1, 2, 3), (REV, REV)))


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


def test_verify_cert_rejects_wrong_r():
    S = _seq((1, 2, 3, 4), (FWD, REV, FWD))
    cert = staircase_cert(S)
    bogus = StaircaseCert(cert.ws + ((1,), (2,)), cert.u1, cert.u2)
    assert not verify_cert(S, bogus, [QQ.elem(-1)], QQ)


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


def test_certificate_built_once_per_pattern_and_checked(monkeypatch):
    import simspec.staircase as staircase

    delta = (FWD, REV, FWD)
    first = staircase_cert(_seq((1, 2, 3, 4), delta))
    assert staircase_cert(_seq((5, 3, 1, 2), delta, 6)) is first
    # a wrong outcome for a pattern not yet memoized still fails its check
    pattern = (REV, FWD, REV, FWD, REV, FWD)
    staircase._cert_for_pattern.cache_clear()
    monkeypatch.setattr(staircase, "_reduce",
                        lambda S: StaircaseOutcome(((1,), (2,), (3,)), (), ()))
    try:
        with pytest.raises(VerificationError):
            staircase_cert(_seq(range(1, 8), pattern))
    finally:
        staircase._cert_for_pattern.cache_clear()
