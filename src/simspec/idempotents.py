"""Interpolation polynomials that pick out diagonal entries.

For pairwise distinct a1..an, idempotent_poly(a, t) is the degree-< n
polynomial in x1 with value E_tt at diag(a): the Lagrange basis polynomial
through (a_s, delta_st).  entry_probe_poly(a, i, j) = H_i x2 H_j then isolates
the (i, j) entry of the second matrix: it evaluates to (A2)_ij E_ij on
(diag(a), A2).

Each entry probe is an EntryProbe, a plain NcPoly that also remembers its
(a, i, j), so a probe evaluator can compute its value as H_i(A1) A2 H_j(A1)
from one table per pair instead of expanding it into words.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

from . import kernels
from .errors import VerificationError
from .ncpoly import NcPoly


def _check_distinct(a):
    if len(set(a)) != len(a):
        raise ValueError("eigenvalues must be pairwise distinct")


# one decision needs at most n idempotents and n^2 entry probes per
# eigenvalue tuple; a larger bound only lets memory grow with throughput
@lru_cache(maxsize=256)
def _idempotent_cached(a: tuple, t: int) -> NcPoly:
    field = a[0].field
    p = field.p
    at = a[t - 1].value
    others = [s.value for s in a if s.value != at]
    # numerator prod_{s != t} (x - a_s) as ascending raw coefficients
    coeffs = [1]
    for root in others:
        coeffs = [kernels.red(lo - root * hi, p)
                  for lo, hi in zip([0] + coeffs, coeffs + [0])]
    scale = kernels.inv_scalar(kernels.red(prod(at - root for root in others), p), p)
    return NcPoly(field, 1, {(1,) * k: c * scale for k, c in enumerate(coeffs)})


def idempotent_poly(a, t: int) -> NcPoly:
    """Polynomial H in x1 with formal degree < n and H(diag(a)) = E_tt."""
    a = tuple(a)
    _check_distinct(a)
    if not 1 <= t <= len(a):
        raise ValueError("t out of range")
    poly = _idempotent_cached(a, t)
    if poly.formal_degree >= len(a):
        raise VerificationError("idempotent degree bound")
    return poly


class EntryProbe(NcPoly):
    """H_i x2 H_j as an NcPoly in two letters, tagged with (a, i, j).

    Equality, hashing and text are those of the expanded NcPoly, built on first
    use; the tag tells an evaluator which table entry to read, and the degree
    is deg H_i + 1 + deg H_j, exact as the words x1^k x2 x1^l never cancel.
    """

    __slots__ = ("eigs", "i", "j", "formal_degree", "_factors", "_expanded")

    def __init__(self, a: tuple, i: int, j: int):
        hi, hj = _idempotent_cached(a, i), _idempotent_cached(a, j)
        degree = hi.formal_degree + 1 + hj.formal_degree
        for name, val in (("field", a[0].field), ("m", 2), ("_hash", None), ("eigs", a),
                          ("i", i), ("j", j), ("formal_degree", degree),
                          ("_factors", (hi, hj)), ("_expanded", None)):
            object.__setattr__(self, name, val)

    @property
    def _terms(self) -> dict:
        if self._expanded is None:
            hi, hj = self._factors
            out = hi * NcPoly.letter(self.field, 2, m=2) * hj
            object.__setattr__(self, "_expanded", out._terms)
        return self._expanded


@lru_cache(maxsize=256)
def _entry_probe_cached(a: tuple, i: int, j: int) -> EntryProbe:
    _check_distinct(a)      # on a miss only: a hit's tuple passed it
    return EntryProbe(a, i, j)


def entry_probe_poly(a, i: int, j: int) -> EntryProbe:
    """H_i x2 H_j; evaluates to (A2)_ij E_ij on (diag(a), A2)."""
    a = tuple(a)
    n = len(a)
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("entry position out of range")
    poly = _entry_probe_cached(a, i, j)
    if poly.formal_degree > 2 * n - 1:
        raise VerificationError("entry probe degree bound")
    return poly
