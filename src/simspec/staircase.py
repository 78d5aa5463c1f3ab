"""Three-diagonal sequences of elementary matrices and certified rank formulas.

A sequence S is described by pairwise-distinct indices i1..i{k+1} and flags
delta in {FWD, REV}^k: the l-th matrix is E_{i_l i_{l+1}} for FWD and its
transpose for REV.  For every S there are words ws = (w1..wr) (r odd) and u1,
u2 such that for all alpha

    rank(Alt(w1(S),..,wr(S)) + alpha * u1(S) E_{i1 i_{k+1}} u2(S))
        = (r-1)/2 if alpha = -1, else (r+1)/2,

with deg(u1)+deg(u2)+1 <= k+2 and deg(w_l) <= k.  The construction is a
recursion over the flag pattern:

* adjacent equal flags contract into one letter (the merged word evaluates to
  the merged elementary matrix), shortening the sequence;
* a REV prefix and/or suffix is stripped by absorbing it into u1/u2, which
  moves the corner matrix to the stripped subsequence's corner;
* what remains is strictly alternating starting and ending FWD: for k = 1 a
  single rank-one word, for odd k >= 3 a staircase whose alternating sum plus
  alpha times its corner has the displayed rank.

An all-REV sequence bypasses the recursion: u1 = x1 and u2 = xk..x1 satisfy
u1(S) E u2(S) = w1(S) with w1 = x1 (that word pair is deliberately not
multilinear; its degree sum is exactly k+1, still within the k+2 budget).

Every outcome is re-verified on the concrete matrices before being returned;
staircase_cert does this once per flag pattern and memoizes the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import VerificationError
from .fields import QQ, Field
from .matrices import Mat, rank
from .ncpoly import Word, eval_word, is_multilinear, word_text
from .stargraph import FWD, REV


@dataclass(frozen=True)
class ThreeDiagSeq:
    idx: tuple
    delta: tuple
    n: int

    def __init__(self, idx, delta, n):
        idx = tuple(int(i) for i in idx)
        delta = tuple(delta)
        if len(idx) < 2 or len(delta) != len(idx) - 1:
            raise ValueError("need k+1 indices and k flags with k >= 1")
        if len(set(idx)) != len(idx):
            raise ValueError("indices must be pairwise distinct")
        if any(not 1 <= i <= n for i in idx):
            raise ValueError("indices out of range 1..n")
        if any(d not in (FWD, REV) for d in delta):
            raise ValueError("flags must be FWD or REV")
        object.__setattr__(self, "idx", idx)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "n", n)

    @property
    def k(self) -> int:
        return len(self.delta)


def td_matrices(S: ThreeDiagSeq, field: Field) -> list[Mat]:
    """The sequence matrices: E_{i_l i_{l+1}} for FWD, transposed for REV."""
    out = []
    for l, d in enumerate(S.delta):
        i, j = S.idx[l], S.idx[l + 1]
        out.append(Mat.unit(field, S.n, i, j) if d == FWD
                   else Mat.unit(field, S.n, j, i))
    return out


@dataclass(frozen=True)
class SingleWordOutcome:
    """u1(S) E_{i1 i_{k+1}} u2(S) = w(S), a single one-entry matrix.

    w is the (possibly contracted) letter: a plain letter when no contraction
    happened, otherwise the merged word evaluating to the contracted matrix.
    """

    u1: Word
    u2: Word
    w: Word


@dataclass(frozen=True)
class StaircaseOutcome:
    """(w1(S),..,wr(S)) is a staircase with foundation u1(S) E u2(S)."""

    ws: tuple
    u1: Word
    u2: Word


def reduce_all_reversed(S: ThreeDiagSeq) -> tuple[Word, Word]:
    """u1 = x1, u2 = xk..x1 for an all-REV sequence; the sandwich product
    collapses back to the first matrix, and deg(u1)+deg(u2) = k+1."""
    if any(d != REV for d in S.delta):
        raise ValueError("sequence has a FWD flag")
    k = S.k
    return (1,), tuple(range(k, 0, -1))


def _map_word(w: Word, mapping) -> Word:
    return tuple(x for s in w for x in mapping(s))


def _reduce(S: ThreeDiagSeq):
    k = S.k
    delta = S.delta
    if k == 1:
        # precondition: some FWD flag, so the single flag is FWD
        return SingleWordOutcome((), (), (1,))

    # contraction: leftmost adjacent equal pair merges into one letter
    for l in range(1, k):
        if delta[l - 1] == delta[l]:
            d = delta[l - 1]
            merged = (l, l + 1) if d == FWD else (l + 1, l)
            sub = ThreeDiagSeq(S.idx[:l] + S.idx[l + 1:],
                               delta[:l - 1] + (d,) + delta[l + 1:], S.n)
            out = _reduce(sub)

            def phi(s, l=l, merged=merged):
                if s < l:
                    return (s,)
                if s == l:
                    return merged
                return (s + 1,)

            if isinstance(out, SingleWordOutcome):
                return SingleWordOutcome(_map_word(out.u1, phi),
                                         _map_word(out.u2, phi),
                                         _map_word(out.w, phi))
            return StaircaseOutcome(tuple(_map_word(w, phi) for w in out.ws),
                                    _map_word(out.u1, phi),
                                    _map_word(out.u2, phi))

    # strictly alternating from here on
    if delta[0] == FWD and delta[-1] == FWD:
        # alternation forces odd k; k >= 3 is a staircase as it stands
        return StaircaseOutcome(tuple((s,) for s in range(1, k + 1)), (), ())

    if delta[0] == FWD:
        # REV suffix: absorb x_k..x_{l+1} into u2, recurse on the prefix
        l = max(s for s in range(1, k) if delta[s - 1] == FWD)
        u1o: Word = ()
        u2o: Word = tuple(range(k, l, -1))
        sub = ThreeDiagSeq(S.idx[:l + 1], delta[:l], S.n)
        off = 0
    elif delta[-1] == FWD:
        # REV prefix: absorb x_{l-1}..x_1 into u1, recurse on the suffix
        l = min(s for s in range(2, k + 1) if delta[s - 1] == FWD)
        u1o = tuple(range(l - 1, 0, -1))
        u2o = ()
        sub = ThreeDiagSeq(S.idx[l - 1:], delta[l - 1:], S.n)
        off = l - 1
    else:
        # REV on both ends, FWD somewhere inside: strip both sides
        interior = [s for s in range(2, k) if delta[s - 1] == FWD]
        l, t = min(interior), max(interior)
        u1o = tuple(range(l - 1, 0, -1))
        u2o = tuple(range(k, t, -1))
        sub = ThreeDiagSeq(S.idx[l - 1:t + 1], delta[l - 1:t], S.n)
        off = l - 1
    out = _reduce(sub)

    def shift(s, off=off):
        return (s + off,)

    if isinstance(out, SingleWordOutcome):
        return SingleWordOutcome(_map_word(out.u1, shift) + u1o,
                                 u2o + _map_word(out.u2, shift),
                                 _map_word(out.w, shift))
    return StaircaseOutcome(tuple(_map_word(w, shift) for w in out.ws),
                            _map_word(out.u1, shift) + u1o,
                            u2o + _map_word(out.u2, shift))


def _single_entry_pos(M: Mat):
    """(i, j) 1-based if M = E_ij, else None."""
    pos = None
    for i, row in enumerate(M.values(), start=1):
        for j, e in enumerate(row, start=1):
            if not e:
                continue
            if e != 1 or pos is not None:
                return None
            pos = (i, j)
    return pos


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise VerificationError(what)


def _verify_outcome(S: ThreeDiagSeq, out) -> None:
    mats = td_matrices(S, QQ)
    corner = Mat.unit(QQ, S.n, S.idx[0], S.idx[-1])
    sandwich = eval_word(out.u1, mats) @ corner @ eval_word(out.u2, mats)
    if isinstance(out, SingleWordOutcome):
        val = eval_word(out.w, mats)
        _check(val == sandwich, "sandwich does not match the certifying word")
        _check(_single_entry_pos(val) is not None, "word value is not elementary")
        _check(is_multilinear(out.u1 + out.u2 + out.w), "words are not multilinear")
        return
    r = len(out.ws)
    _check(r >= 3 and r % 2 == 1, "staircase length must be odd and >= 3")
    vals = [eval_word(w, mats) for w in out.ws]
    chain = []
    for l, val in enumerate(vals, start=1):
        pos = _single_entry_pos(val)
        _check(pos is not None, "staircase member is not elementary")
        a, b = pos
        if l == 1:
            chain = [a, b]
        elif l % 2 == 0:
            _check(b == chain[-1], "staircase chain breaks at step %d" % l)
            chain.append(a)
        else:
            _check(a == chain[-1], "staircase chain breaks at step %d" % l)
            chain.append(b)
    _check(len(set(chain)) == len(chain), "staircase indices repeat")
    _check(sandwich == Mat.unit(QQ, S.n, chain[0], chain[-1]),
           "foundation does not match the staircase corner")
    flat = out.u1 + out.u2
    for w in out.ws:
        flat += w
    _check(is_multilinear(flat), "words are not multilinear")


def reduce_mixed(S: ThreeDiagSeq):
    """Case analysis for a sequence with at least one FWD flag; the returned
    outcome is numerically verified on td_matrices(S)."""
    if all(d == REV for d in S.delta):
        raise ValueError("all flags are REV; use reduce_all_reversed")
    out = _reduce(S)
    _verify_outcome(S, out)
    return out


@dataclass(frozen=True)
class StaircaseCert:
    """Words certifying the rank formula for one three-diagonal sequence."""

    ws: tuple
    u1: Word
    u2: Word

    @property
    def r(self) -> int:
        return len(self.ws)

    def to_json(self):
        return {"r": self.r,
                "ws": [word_text(w) for w in self.ws],
                "u1": word_text(self.u1),
                "u2": word_text(self.u2)}


def _check_degrees(S: ThreeDiagSeq, cert: StaircaseCert) -> bool:
    k = S.k
    if cert.r % 2 == 0 or not 1 <= cert.r <= k:
        return False
    if len(cert.u1) + len(cert.u2) + 1 > k + 2:
        return False
    return all(len(w) <= k for w in cert.ws)


def staircase_cert(S: ThreeDiagSeq) -> StaircaseCert:
    """Certificate words for S, satisfying the rank formula at every alpha.

    The words depend only on the flag pattern, so the certificate is built
    and verified once per pattern, on the labelling 1..k+1 in n = k+1."""
    return _cert_for_pattern(S.delta)


@lru_cache(maxsize=1024)
def _cert_for_pattern(delta: tuple) -> StaircaseCert:
    k = len(delta)
    S = ThreeDiagSeq(tuple(range(1, k + 2)), delta, k + 1)
    if all(d == REV for d in S.delta):
        u1, u2 = reduce_all_reversed(S)
        cert = StaircaseCert(((1,),), u1, u2)
        _check(len(u1) + len(u2) == S.k + 1, "all-REV words have the wrong degree")
    else:
        out = reduce_mixed(S)
        if isinstance(out, SingleWordOutcome):
            cert = StaircaseCert((out.w,), out.u1, out.u2)
        else:
            cert = StaircaseCert(out.ws, out.u1, out.u2)
        flat = cert.u1 + cert.u2
        for w in cert.ws:
            flat += w
        _check(is_multilinear(flat), "words are not multilinear")
    _check(_check_degrees(S, cert), "certificate exceeds its degree bounds")
    return cert


def cert_matrix(S: ThreeDiagSeq, cert: StaircaseCert, alpha, field: Field) -> Mat:
    """Alt(w1(S),..,wr(S)) + alpha * u1(S) E_{i1 i_{k+1}} u2(S) over field."""
    mats = td_matrices(S, field)
    corner = Mat.unit(field, S.n, S.idx[0], S.idx[-1])
    sandwich = eval_word(cert.u1, mats) @ corner @ eval_word(cert.u2, mats)
    acc = Mat.zeros(field, S.n)
    for l, w in enumerate(cert.ws, start=1):
        val = eval_word(w, mats)
        acc = acc + (val if l % 2 == 1 else -val)
    return acc + sandwich * alpha


def verify_cert(S: ThreeDiagSeq, cert: StaircaseCert, alphas, field: Field = QQ) -> bool:
    """Independent check: rank of the certificate matrix at each alpha matches
    (r-1)/2 at alpha = -1 and (r+1)/2 elsewhere, and the degree bounds hold."""
    if not _check_degrees(S, cert):
        return False
    for alpha in alphas:
        a = field.raw(alpha)
        expected = (cert.r - 1) // 2 if a == field.raw(-1) else (cert.r + 1) // 2
        if rank(cert_matrix(S, cert, a, field)) != expected:
            return False
    return True
