"""Three-diagonal sequences of elementary matrices and certified rank formulas.

A sequence S has pairwise-distinct indices i1..i{k+1} and flags delta in
{FWD, REV}^k; letter l stands for E_ab with (a, b) = S.pair(l), which is
(i_l, i_{l+1}) for FWD and reversed for REV.  For every S there is a
StaircaseCert: words ws = (w1..wr) (r odd) and u1, u2 such that for all alpha

    rank(Alt(w1(S),..,wr(S)) + alpha * u1(S) E_{i1 i_{k+1}} u2(S))
        = (r-1)/2 if alpha = -1, else (r+1)/2,

with deg(u1)+deg(u2)+1 <= k+2 and deg(w_l) <= k.  The values w1(S)..wr(S)
are a staircase E_{c1 c2}, E_{c3 c2}, E_{c3 c4}, .. on distinct indices
c1..c{r+1}, and the sandwich u1(S) E_{i1 i_{k+1}} u2(S) is its corner
E_{c1 c{r+1}}; r = 1 is a single elementary word.

E_ab E_cd is E_ad when b = c and 0 otherwise, so a word's value is an index
walk: from the identity's n diagonal cells (a, a), each letter's pair (c, d)
moves a cell (a, c) to (a, d) and drops every other.  The certificate check
and cert_matrix read the words and the sandwich this way, with no matrix
product.  The certificate comes from a recursion over the flag pattern:

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
letters of the longer one.  staircase_cert checks every result, all-REV
patterns included, once per flag pattern and memoizes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import VerificationError
from .fields import QQ, Field
from .matrices import Mat, rank
from .ncpoly import Word, is_multilinear, word_text
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

    def pair(self, l: int) -> tuple:
        """(a, b) with letter l standing for E_ab: (i_l, i_{l+1}) for FWD, else reversed."""
        if not 1 <= l <= self.k:
            raise ValueError("letter x%d out of range x1..x%d" % (l, self.k))
        a, b = self.idx[l - 1], self.idx[l]
        return (a, b) if self.delta[l - 1] == FWD else (b, a)


def td_matrices(S: ThreeDiagSeq, field: Field) -> list[Mat]:
    """The sequence matrices E_{S.pair(l)}, l = 1..k."""
    return [Mat.unit(field, S.n, *S.pair(l)) for l in range(1, S.k + 1)]


@dataclass(frozen=True)
class StaircaseCert:
    """Words certifying the rank formula for one three-diagonal sequence."""

    ws: tuple
    u1: Word
    u2: Word

    @property
    def r(self) -> int:
        return len(self.ws)

    def expected_rank(self, alpha, field: Field) -> int:
        """The certified rank at alpha: (r-1)/2 at alpha = -1, else (r+1)/2."""
        return (self.r - 1) // 2 if field.raw(alpha) == field.raw(-1) else (self.r + 1) // 2

    def to_json(self):
        return {"r": self.r, "ws": [word_text(w) for w in self.ws],
                "u1": word_text(self.u1), "u2": word_text(self.u2)}


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


def _walks(S: ThreeDiagSeq, cert: StaircaseCert):
    """The cells of w1(S)..wr(S) and of the sandwich u1(S) E_{i1 i_{k+1}}
    u2(S), each an index walk; the corner enters as a pair, never a letter."""
    def walk(pairs):
        cells = [(a, a) for a in range(1, S.n + 1)]
        for c, d in pairs:
            cells = [(a, d) for a, b in cells if b == c]
        return cells

    corner = (S.idx[0], S.idx[-1])
    return ([walk(map(S.pair, w)) for w in cert.ws],
            walk([*map(S.pair, cert.u1), corner, *map(S.pair, cert.u2)]))


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise VerificationError(what)


def _defect(S: ThreeDiagSeq, cert: StaircaseCert) -> str | None:
    """What breaks the certificate's shape for S: r odd in 1..k, the degree
    bounds or the letters x1..xk; None if nothing does."""
    k = S.k
    if (cert.r % 2 == 0 or not 1 <= cert.r <= k or any(len(w) > k for w in cert.ws)
            or len(cert.u1) + len(cert.u2) + 1 > k + 2):
        return "certificate exceeds its degree bounds"
    if any(not 1 <= s <= k for w in (cert.u1, cert.u2, *cert.ws) for s in w):
        return "certificate letter outside x1..x%d" % k


def _verify(S: ThreeDiagSeq, cert: StaircaseCert) -> None:
    """Raise VerificationError unless the certificate keeps its shape, its
    words walk to a staircase, the sandwich u1(S) E u2(S) walks to that
    staircase's corner, and the words are multilinear (all-REV excepted)."""
    _check((why := _defect(S, cert)) is None, why)
    values, sandwich = _walks(S, cert)
    chain = []
    for l, cells in enumerate(values, start=1):
        _check(len(cells) == 1, "staircase member is not elementary")
        a, b = cells[0] if l % 2 == 1 else cells[0][::-1]    # (c_l, c_{l+1})
        _check(l == 1 or a == chain[-1], "staircase chain breaks at step %d" % l)
        chain += [a, b] if l == 1 else [b]
    _check(len(set(chain)) == len(chain), "staircase indices repeat")
    _check(sandwich == [(chain[0], chain[-1])],
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
    """Alt(w1(S),..,wr(S)) + alpha * u1(S) E_{i1 i_{k+1}} u2(S) over field,
    summed cell by cell from the index walks."""
    values, sandwich = _walks(S, cert)
    rows = [[0] * S.n for _ in range(S.n)]
    for l, cells in enumerate(values, start=1):
        for a, b in cells:
            rows[a - 1][b - 1] += 1 if l % 2 == 1 else -1
    for a, b in sandwich:
        rows[a - 1][b - 1] += field.raw(alpha)
    return Mat(field, rows)


def verify_cert(S: ThreeDiagSeq, cert: StaircaseCert, alphas, field: Field = QQ) -> bool:
    """Independent check: the certificate keeps its shape, and the rank of
    the certificate matrix at each alpha is cert.expected_rank."""
    return _defect(S, cert) is None and all(
        rank(cert_matrix(S, cert, a, field)) == cert.expected_rank(a, field)
        for a in alphas)
