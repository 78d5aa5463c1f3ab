"""Three-diagonal sequences of elementary matrices and certified rank formulas.

A sequence S is described by pairwise-distinct indices i1..i{k+1} and flags
delta in {FWD, REV}^k: the l-th matrix is E_{i_l i_{l+1}} for FWD and its
transpose for REV.  For every S there is a StaircaseCert: words ws =
(w1..wr) (r odd) and u1, u2 such that for all alpha

    rank(Alt(w1(S),..,wr(S)) + alpha * u1(S) E_{i1 i_{k+1}} u2(S))
        = (r-1)/2 if alpha = -1, else (r+1)/2,

with deg(u1)+deg(u2)+1 <= k+2 and deg(w_l) <= k.  The values w1(S)..wr(S)
are a staircase E_{c1 c2}, E_{c3 c2}, E_{c3 c4}, .. on distinct indices
c1..c{r+1}, and the sandwich u1(S) E_{i1 i_{k+1}} u2(S) is its corner
E_{c1 c{r+1}}; r = 1 is a single elementary word.  The construction is a
recursion over the flag pattern, and every level returns a StaircaseCert:

* an all-REV sequence is a base case: u1 = x1 and u2 = xk..x1 collapse the
  sandwich back to the first matrix, which is w1 = x1 (that word set is
  deliberately not multilinear; its degree sum is exactly k+1, still within
  the k+2 budget);
* adjacent equal flags contract into one letter (the merged word evaluates to
  the merged elementary matrix), shortening the sequence;
* a REV prefix and/or suffix is stripped by absorbing it into u1/u2, which
  moves the corner matrix to the stripped subsequence's corner;
* what remains is strictly alternating starting and ending FWD, so k is odd
  and x1..xk is a staircase as it stands (the single word x1 at k = 1).

Contraction and stripping relabel the shorter sequence's certificate into the
letters of the longer one.  staircase_cert checks the result on the concrete
matrices, all-REV patterns included, once per flag pattern and memoizes it.
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


def _relabel(cert: StaircaseCert, phi, u1_tail: Word = (),
             u2_head: Word = ()) -> StaircaseCert:
    """cert with every letter s replaced by the word phi(s), then u1_tail
    appended to u1 and u2_head prepended to u2."""
    def lift(w: Word) -> Word:
        return tuple(x for s in w for x in phi(s))

    return StaircaseCert(tuple(lift(w) for w in cert.ws),
                         lift(cert.u1) + u1_tail, u2_head + lift(cert.u2))


def _reduce(S: ThreeDiagSeq) -> StaircaseCert:
    k = S.k
    delta = S.delta
    if all(d == REV for d in delta):
        # u1(S) E u2(S) collapses back to the first matrix
        return StaircaseCert(((1,),), (1,), tuple(range(k, 0, -1)))

    # contraction: leftmost adjacent equal pair merges into one letter
    for l in range(1, k):
        if delta[l - 1] == delta[l]:
            d = delta[l - 1]
            merged = (l, l + 1) if d == FWD else (l + 1, l)
            sub = ThreeDiagSeq(S.idx[:l] + S.idx[l + 1:],
                               delta[:l - 1] + (d,) + delta[l + 1:], S.n)

            def phi(s):
                if s < l:
                    return (s,)
                if s == l:
                    return merged
                return (s + 1,)

            return _relabel(_reduce(sub), phi)

    # strictly alternating from here on; l and t are the first and last FWD
    fwd = [s for s in range(1, k + 1) if delta[s - 1] == FWD]
    l, t = fwd[0], fwd[-1]
    if (l, t) == (1, k):
        # alternation forces odd k; x1..xk is a staircase as it stands
        return StaircaseCert(tuple((s,) for s in range(1, k + 1)), (), ())
    # absorb the REV prefix x_{l-1}..x_1 into u1 and the REV suffix
    # x_k..x_{t+1} into u2, and recurse on the part from x_l to x_t
    sub = ThreeDiagSeq(S.idx[l - 1:t + 1], delta[l - 1:t], S.n)
    return _relabel(_reduce(sub), lambda s: (s + l - 1,),
                    tuple(range(l - 1, 0, -1)), tuple(range(k, t, -1)))


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


def _check_degrees(S: ThreeDiagSeq, cert: StaircaseCert) -> bool:
    k = S.k
    if cert.r % 2 == 0 or not 1 <= cert.r <= k:
        return False
    if len(cert.u1) + len(cert.u2) + 1 > k + 2:
        return False
    return all(len(w) <= k for w in cert.ws)


def _verify(S: ThreeDiagSeq, cert: StaircaseCert) -> None:
    """Raise VerificationError unless the words evaluate on td_matrices(S)
    to a staircase whose corner is the sandwich u1(S) E u2(S), are
    multilinear (all-REV patterns excepted) and keep the degree bounds."""
    _check(_check_degrees(S, cert), "certificate exceeds its degree bounds")
    mats = td_matrices(S, QQ)
    chain = []
    for l, w in enumerate(cert.ws, start=1):
        pos = _single_entry_pos(eval_word(w, mats))
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
    corner = Mat.unit(QQ, S.n, S.idx[0], S.idx[-1])
    sandwich = eval_word(cert.u1, mats) @ corner @ eval_word(cert.u2, mats)
    _check(sandwich == Mat.unit(QQ, S.n, chain[0], chain[-1]),
           "foundation does not match the staircase corner")
    if FWD in S.delta:
        _check(is_multilinear(cert.u1 + cert.u2 + sum(cert.ws, ())),
               "words are not multilinear")


def staircase_cert(S: ThreeDiagSeq) -> StaircaseCert:
    """Certificate words for S, satisfying the rank formula at every alpha.

    The words depend only on the flag pattern, so the certificate is built
    and verified once per pattern, on the labelling 1..k+1 in n = k+1."""
    return _cert_for_pattern(S.delta)


@lru_cache(maxsize=1024)
def _cert_for_pattern(delta: tuple) -> StaircaseCert:
    k = len(delta)
    S = ThreeDiagSeq(tuple(range(1, k + 2)), delta, k + 1)
    cert = _reduce(S)
    _verify(S, cert)
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
