"""Cross-checks between the kernel lanes and the generic reference path."""

import numpy as np
import pytest

from simspec import kernels
from simspec.fields import PrimeField
from simspec.matrices import Mat, _rref_generic, charpoly, det, inverse, order_gl

LANES = [("numpy", kernels.IMPLS["numpy"])]
if kernels.IMPLS["numba"] is not None:
    LANES.append(("numba", kernels.IMPLS["numba"]))


def _rand_mat(rng, n, p):
    return np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)],
                    dtype=np.int64)


@pytest.mark.parametrize("lane_name,lane", LANES)
def test_matmul_against_generic(lane_name, lane, rng):
    for p in (3, 7):
        F = PrimeField(p)
        for n in (1, 2, 4):
            A, B = _rand_mat(rng, n, p), _rand_mat(rng, n, p)
            want = np.array([[e.value for e in row] for row in
                             (Mat(F, A.tolist()).__matmul__(Mat(F, B.tolist()))).rows])
            got = lane["matmul"](A, B, p)
            assert (got == want).all()


@pytest.mark.parametrize("lane_name,lane", LANES)
def test_rank_det_inverse_against_generic(lane_name, lane, rng):
    for p in (2, 5, 11):
        F = PrimeField(p)
        for _ in range(30):
            n = rng.choice([1, 2, 3, 4, 5])
            A = _rand_mat(rng, n, p)
            M = Mat(F, A.tolist())
            assert lane["rank"](A, p) == len(_rref_generic(M.rows)[1])
            assert lane["det"](A, p) == det(M).value
            ok, inv = lane["inverse"](A, p)
            assert ok == (det(M).value != 0)
            if ok:
                assert (lane["matmul"](A, inv, p) == np.eye(n, dtype=np.int64)).all()


@pytest.mark.parametrize("lane_name,lane", LANES)
def test_charpoly_against_generic(lane_name, lane, rng):
    for p in (3, 7, 11):
        F = PrimeField(p)
        for _ in range(20):
            n = rng.choice([1, 2, 3, 4, 5])
            A = _rand_mat(rng, n, p)
            got = [int(c) for c in lane["charpoly"](A, p)]
            # reference: generic Berkowitz over FieldElements
            want = [c.value for c in charpoly(Mat(F, A.tolist()))]
            assert got == want


@pytest.mark.parametrize("lane_name,lane", LANES)
def test_eval_words_against_naive(lane_name, lane, rng):
    p = 7
    F = PrimeField(p)
    for _ in range(20):
        n = rng.choice([2, 3])
        m = rng.choice([1, 2, 3])
        mats = [_rand_mat(rng, n, p) for _ in range(m)]
        words = [[rng.randrange(m) for _ in range(rng.randint(0, 5))]
                 for _ in range(rng.randint(1, 8))]
        coeffs = [rng.randrange(p) for _ in words]
        flat, offs = [], [0]
        for w in words:
            flat.extend(w)
            offs.append(len(flat))
        got = lane["eval_words"](np.array(flat, dtype=np.int64),
                                 np.array(offs, dtype=np.int64),
                                 np.array(coeffs, dtype=np.int64),
                                 np.stack(mats), p)
        want = np.zeros((n, n), dtype=np.int64)
        for w, c in zip(words, coeffs):
            acc = np.eye(n, dtype=np.int64)
            for k in w:
                acc = acc @ mats[k] % p
            want = (want + c * acc) % p
        assert (got == want).all()


@pytest.mark.parametrize("lane_name,lane", LANES)
def test_count_gl_matches_formula(lane_name, lane):
    # no g has g 0 = I g, so the search scans and counts every invertible g
    for n, p in ((1, 2), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3)):
        zero, ident = np.zeros((n, n), dtype=np.int64), np.eye(n, dtype=np.int64)
        count, ok, _ = lane["conjugator_search"](zero, zero, ident, zero, p)
        assert not ok and count == order_gl(n, p)
    assert order_gl(3, 3) == 11232
@pytest.mark.parametrize("lane_name,lane", LANES)
def test_conjugator_search_small(lane_name, lane, rng):
    p = 3
    F = PrimeField(p)
    A1 = np.array([[0, 0], [0, 1]], dtype=np.int64)
    A2 = np.array([[0, 1], [0, 0]], dtype=np.int64)
    # conjugate by a known g and expect recovery of some witness
    g = np.array([[1, 1], [1, 2]], dtype=np.int64)
    ok, ginv = lane["inverse"](g, p)
    assert ok
    B1 = lane["matmul"](lane["matmul"](g, A1, p), ginv, p)
    B2 = lane["matmul"](lane["matmul"](g, A2, p), ginv, p)
    count, found, w = lane["conjugator_search"](A1, A2, B1, B2, p)
    assert count == order_gl(2, 3)
    assert found
    assert (lane["matmul"](w, A1, p) == lane["matmul"](B1, w, p)).all()
    assert (lane["matmul"](w, A2, p) == lane["matmul"](B2, w, p)).all()
    # an impossible target: ranks of second components differ
    C2 = np.array([[1, 0], [0, 1]], dtype=np.int64)
    count, found, _ = lane["conjugator_search"](A1, A2, A1, C2, p)
    assert count == order_gl(2, 3) and not found


def test_lanes_agree_on_search(rng):
    if kernels.IMPLS["numba"] is None:
        pytest.skip("numba lane unavailable")
    p = 3
    for _ in range(5):
        mats = [_rand_mat(rng, 2, p) for _ in range(4)]
        res_np = kernels.IMPLS["numpy"]["conjugator_search"](*mats, p)
        res_nb = kernels.IMPLS["numba"]["conjugator_search"](*mats, p)
        assert res_np[0] == res_nb[0] and res_np[1] == res_nb[1]
