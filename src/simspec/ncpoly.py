"""Formal noncommutative polynomials in letters x1..xm over an exact field.

A word is a tuple of 1-based letter indices; the empty tuple is the empty
word (the identity).  NcPoly keeps a zero-free map from words to coefficients,
so equality is structural.  NcExpr is a factored companion form, a sum of
scalar * product-of-NcPoly terms, used where full expansion would blow up; it
evaluates exactly and carries a certified degree upper bound.

Coefficients are kept as raw field values (Fractions over Q, residues over
F_p), coerced by ``Field.raw``; ``coeff`` and ``terms`` hand out
FieldElements.  NcPoly.eval runs kernels.eval_words_mod, the one word
evaluator, over both fields.

The invariant probes do not go through eval: separators.ProbeEvaluator reads
their values in each pair's verified eigenbasis, while their degrees are
still certified here, on the formal polynomials.  NcPoly.eval, NcExpr.eval
and expand serve general polynomials and the tests' reference evaluation.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .errors import FieldMismatchError
from .fields import Field, FieldElement
from .matrices import Mat
from . import kernels

Word = tuple

# operands that NcPoly arithmetic treats as scalars: raw values or elements
_SCALARS = (int, Fraction, FieldElement)

EMPTY_WORD: Word = ()


def word_text(w: Word) -> str:
    return ".".join("x%d" % k for k in w) if w else "1"


def word_from_text(text: str) -> Word:
    text = text.strip()
    if text == "1":
        return EMPTY_WORD
    parts = text.split(".")
    out = []
    for part in parts:
        part = part.strip()
        if not part.startswith("x") or (k := int(part[1:])) < 1:
            raise ValueError("bad word %r" % text)
        out.append(k)
    return tuple(out)


def is_multilinear(w: Word) -> bool:
    return len(set(w)) == len(w)


def eval_word(w: Word, mats) -> Mat:
    """Substitute letter k -> mats[k-1]; the empty word gives the identity."""
    return NcPoly.word(mats[0].field, w, m=len(mats)).eval(mats)


def _term_key(w: Word):
    return (len(w), w)


class NcPoly:
    """Nonzero-coefficient map word -> raw coefficient, with nominal arity m."""

    __slots__ = ("field", "m", "_terms", "_hash")

    def __init__(self, field: Field, m: int, terms=None):
        clean = {}
        if terms:
            for w, c in terms.items():
                c = field.raw(c)
                if c:
                    clean[tuple(w)] = c
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, val):
        raise AttributeError("NcPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(field, m=1):
        return NcPoly(field, m, {})

    @staticmethod
    def one(field, m=1):
        return NcPoly(field, m, {EMPTY_WORD: 1})

    @staticmethod
    def scalar(field, c, m=1):
        return NcPoly(field, m, {EMPTY_WORD: c})

    @staticmethod
    def letter(field, k, m=None):
        return NcPoly(field, m if m is not None else k, {(k,): 1})

    @staticmethod
    def word(field, w, m=None):
        w = tuple(w)
        arity = m if m is not None else (max(w) if w else 1)
        return NcPoly(field, arity, {w: 1})

    # -- structure ---------------------------------------------------------

    def _sorted(self):
        """(word, raw coeff) pairs sorted by (length, lexicographic)."""
        return sorted(self._terms.items(), key=lambda kv: _term_key(kv[0]))

    def terms(self):
        """(word, FieldElement coeff) pairs sorted by (length, lexicographic)."""
        return [(w, FieldElement(self.field, c)) for w, c in self._sorted()]

    def coeff(self, w: Word) -> FieldElement:
        return self.field.elem(self._terms.get(tuple(w), 0))

    @property
    def formal_degree(self) -> int:
        return max((len(w) for w in self._terms), default=0)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self):
        return len(self._terms)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if other.field is not self.field:
            raise FieldMismatchError("%r vs %r" % (self.field, other.field))

    # sums and products are left unreduced: the constructor reduces them and
    # drops the zeros

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = NcPoly.scalar(self.field, other, self.m)
        self._check(other)
        out = dict(self._terms)
        for w, c in other._terms.items():
            out[w] = out.get(w, 0) + c
        return NcPoly(self.field, max(self.m, other.m), out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return NcPoly(self.field, self.m, {w: -c for w, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            c = self.field.raw(other)
            return NcPoly(self.field, self.m,
                          {w: v * c for w, v in self._terms.items()})
        self._check(other)
        out = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = w1 + w2
                out[w] = out.get(w, 0) + c1 * c2
        return NcPoly(self.field, max(self.m, other.m), out)

    __rmul__ = __mul__      # reached only with a scalar on the left

    # -- evaluation ----------------------------------------------------------

    def eval(self, mats, n: int | None = None) -> Mat:
        """Substitute letter k -> mats[k-1]; ring homomorphism by construction."""
        mats = list(mats)
        if mats:
            if n is None:
                n = mats[0].n
            if any(M.field is not self.field for M in mats):
                raise FieldMismatchError("matrix tuple over a different field")
            if any(M.n != n for M in mats):
                raise ValueError("matrix size mismatch")
        elif n is None:
            raise ValueError("need n for an empty matrix tuple")
        bad = [k for w in self._terms for k in w if not 1 <= k <= len(mats)]
        if bad:
            raise ValueError("polynomial uses x%d, outside x1..x%d" % (bad[0], len(mats)))
        flat, offs, coeffs = [], [0], []
        for w, c in self._sorted():
            flat.extend(k - 1 for k in w)
            offs.append(len(flat))
            coeffs.append(c)
        # with no matrices every word is empty; a zero matrix gives the size
        rows = [M.values() for M in mats] or [[[0] * n] * n]
        return Mat(self.field, kernels.eval_words_mod(flat, offs, coeffs, rows,
                                                      self.field.p))

    # -- text ----------------------------------------------------------------

    def __repr__(self):
        if not self._terms:
            return "0"
        pieces = []
        for w, c in self._sorted():
            wtxt = word_text(w)
            ctxt = str(c)
            if w and ctxt == "1":
                pieces.append(wtxt)
            elif w and ctxt == "-1":
                pieces.append("-" + wtxt)
            elif w:
                pieces.append("%s*%s" % (ctxt, wtxt))
            else:
                pieces.append(ctxt)
        out = " + ".join(pieces)
        return out.replace("+ -", "- ")

    def __eq__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self.field is other.field and self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash",
                               hash((id(self.field), frozenset(self._terms.items()))))
        return self._hash


def poly_from_text(field, text: str, m: int = 2) -> NcPoly:
    """Inverse of repr: "2*x1.x2 - x1 + 1" style."""
    text = text.strip().replace("- ", "+ -")
    if text in ("", "0"):
        return NcPoly.zero(field, m)
    terms = {}
    for piece in text.split("+"):
        piece = piece.strip()
        if not piece:
            continue
        neg = piece.startswith("-")
        if neg:
            piece = piece[1:].strip()
        if "*" in piece:
            ctxt, wtxt = piece.split("*", 1)
            c = field.parse(ctxt)
            w = word_from_text(wtxt)
        elif piece.startswith("x"):
            c = field.one
            w = word_from_text(piece)
        else:
            c = field.parse(piece)
            w = EMPTY_WORD
        if neg:
            c = -c
        terms[w] = terms.get(w, field.zero) + c
    return NcPoly(field, m, terms)


def substitute(w: Word, hs) -> NcPoly:
    """Formal composition: replace letter k of w by hs[k-1] and expand."""
    hs = list(hs)
    if not hs:
        raise ValueError("need at least one substitution polynomial")
    field = hs[0].field
    m = max(h.m for h in hs)
    out = NcPoly.one(field, m)
    for k in w:
        if not 1 <= k <= len(hs):
            raise ValueError("letter x%d out of range for %d substitutions"
                             % (k, len(hs)))
        out = out * hs[k - 1]
    return out


def alt_sum(polys) -> NcPoly:
    """p1 - p2 + p3 - ..."""
    polys = list(polys)
    if not polys:
        raise ValueError("alternating sum of an empty list")
    if any(p.m != polys[0].m for p in polys):
        raise ValueError("letter counts differ")
    acc = polys[0]
    for l, p in enumerate(polys[1:], start=2):
        acc = acc + (-p if l % 2 == 0 else p)
    return acc


class NcExpr:
    """Sum of coeff * (P1 P2 ... Pk) with NcPoly factors, kept factored;
    ``terms`` holds (raw coeff, factors) pairs.

    The expanded formal degree never exceeds degree_bound, and evaluation
    multiplies evaluated factors, so certified degree claims and exact values
    survive without materializing the product.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms):
        norm = []
        for c, factors in terms:
            c = field.raw(c)
            if c:
                norm.append((c, tuple(factors)))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "terms", tuple(norm))

    def __setattr__(self, name, val):
        raise AttributeError("NcExpr is immutable")

    @property
    def degree_bound(self) -> int:
        return max((sum(f.formal_degree for f in fs) for _, fs in self.terms),
                   default=0)

    def eval(self, mats, n: int | None = None) -> Mat:
        mats = list(mats)
        if n is None:
            n = mats[0].n
        acc = Mat.zeros(self.field, n)
        memo = {}
        for c, factors in self.terms:
            term = Mat.identity(self.field, n)
            for f in factors:
                got = memo.get(id(f))
                if got is None:
                    got = f.eval(mats, n)
                    memo[id(f)] = got
                term = term @ got
            acc = acc + term * c
        return acc

    def expand(self, max_terms: int = 200_000) -> NcPoly:
        est = sum(max(1, prod(len(f) for f in fs)) for _, fs in self.terms)
        if est > max_terms:
            raise ValueError("expansion would create ~%d words" % est)
        m = max((f.m for _, fs in self.terms for f in fs), default=1)
        acc = NcPoly.zero(self.field, m)
        for c, factors in self.terms:
            term = NcPoly.one(self.field, m)
            for f in factors:
                term = term * f
            acc = acc + term * c
        return acc

    def __eq__(self, other):
        if not isinstance(other, NcExpr):
            return NotImplemented
        return self.field is other.field and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.field), self.terms))

    def __repr__(self):
        if not self.terms:
            return "0"
        pieces = []
        for c, factors in self.terms:
            ctxt = str(c)
            ftxt = "".join("(%r)" % (f,) for f in factors) or "1"
            pieces.append("%s*%s" % (ctxt, ftxt))
        return " + ".join(pieces).replace("+ -", "- ")
