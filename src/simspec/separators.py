"""Invariant probes and the rank-based orbit decision procedure.

Probes are conjugation invariants of a pair: sigma probes read characteristic
coefficients of the first matrix, zeta probes test whether a small polynomial
image vanishes, rank probes read the rank of a polynomial image.  Probes built
from P's canonical data separate P from any non-equivalent pair of the same
size, with certified degree bounds: zeta probes stay below 2n-1, rank probes
below (n+1)(2n-1).  probe_stages lists them in that order for both deciders
and the probes command, and builds each probe only when a walk reaches it.

Degrees are certified on the formal polynomials, but values are not computed
by expanding them, nor by multiplying matrices.  Every zeta and rank probe is
built from entry probes h_ij = H_i x2 H_j, and a ProbeEvaluator reads them in
the pair's eigenbasis from canonicalize's exactly checked witness g: there
g h_ij g^-1 is the single cell b_ij at (i, j) of the canonical second matrix
B, so g poly g^-1 is a sparse {cell: value} dict of scalar products of
entries of B, with no Mat per value.  A zeta probe reads vanishing as an
empty dict, a rank probe reads kernels.rank_mod of the cells' rows (both are
similarity invariants); sigma values are the elementary symmetric functions
of the eigenvalues.  The trade-off is that the rank decider reads its values
through the verified witness, not through products of the raw matrices.
An equal verdict is returned only when both pairs' canonical forms, each
with its exactly checked witness, agree as well, and every rank probe must
read its expected value on P.  The evaluator computes on raw field values
with kernels.red and inv_scalar; FieldElements appear only in sigma values
and in the reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import prod

from . import kernels
from .canonical import (
    CanonicalPair,
    MatrixPair,
    _check_comparable,
    canonicalize,
    find_conjugator,
    orbit_eq_canonical,
)
from .errors import FieldMismatchError, VerificationError
from .fields import QQ, Field, FieldElement, PrimeField
from .idempotents import EntryProbe, entry_probe_poly
from .matrices import Mat, det, rank, sigma
from .ncpoly import NcExpr, NcPoly
from .staircase import ThreeDiagSeq, staircase_cert
from .stargraph import STAR, undirected_path


def zero_indicator(M: Mat) -> int:
    """1 iff M is the zero matrix."""
    return 1 if M.is_zero() else 0


def rank_indicator(M: Mat, t: int) -> int:
    """1 iff rank(M) = t; the vector over t = 0..n determines the rank."""
    if not 0 <= t <= min(M.nrows, M.ncols):
        raise ValueError("t out of range")
    return 1 if rank(M) == t else 0


class ProbeEvaluator:
    """Probe values on one simple-spectrum pair, read in its eigenbasis.

    With canonicalize's witness g, g A1 g^-1 = diag(lam) and g A2 g^-1 = B,
    the reconstituted canonical A2.  g H_t(A1) g^-1 = diag(l_t(lam)), l_t the
    Lagrange weight of idempotent_poly(a, t), so g h_ij(P) g^-1 has entries
    l_i(lam_k) B_kl l_j(lam_l): just b_ij at (i, j) when a == lam, as in every
    decision.  cells() multiplies these sparse cells as raw scalars into
    g poly(P) g^-1; value() is the same as a Mat.
    """

    def __init__(self, P: MatrixPair, canon: CanonicalPair | None = None):
        if canon is None:
            canon = canonicalize(P).canon
        self.pair, self.eigs = P, canon.eigs
        self._p = p = P.field.p
        self._one = P.field.raw(1)
        self._lam = [lam.value for lam in self.eigs]
        self._B = canon.A2_values()
        e = [self._one] + [0] * P.n
        for lam in self._lam:
            e = [e[0]] + [kernels.red(e[k] + e[k - 1] * lam, p) for k in range(1, len(e))]
        self.sigmas = tuple(P.field.elem(x) for x in e)      # sigma(A1, t) = e_t(lam)
        self._own = {(i + 1, j + 1): {(i, j): b} if b else {}     # own-basis entry()
                     for i, row in enumerate(self._B) for j, b in enumerate(row)}

    def _weights(self, a: tuple, t: int) -> dict:
        """{k: l_t(lam_k)} without zeros, as raw values, for a foreign basis a."""
        p, at = self._p, a[t - 1].value
        inv = {s.value: kernels.inv_scalar(at - s.value, p) for s in a if s.value != at}
        w = ((k, kernels.red(prod(((lam - s) * d for s, d in inv.items()), start=self._one), p))
             for k, lam in enumerate(self._lam))
        return {k: v for k, v in w if v}

    def entry(self, a: tuple, i: int, j: int) -> dict:
        """g h_ij(P) g^-1 as {(k, l): raw entry}, for the eigenvalue basis a.
        In the pair's own basis it is b_ij at (i, j), made once: never mutate it."""
        if a == self.eigs:
            return self._own[(i, j)]
        B, p = self._B, self._p
        return {(k, l): kernels.red(x * B[k][l] * y, p)
                for k, x in self._weights(a, i).items()
                for l, y in self._weights(a, j).items() if B[k][l]}

    def cells(self, poly) -> dict:
        """g poly(P) g^-1 as {(k, l): raw entry}, reduced and without zeros,
        for an entry probe or an NcExpr of entry probes."""
        terms = poly.terms if isinstance(poly, NcExpr) else [(self._one, (poly,))]
        acc = {}
        for c, factors in terms:
            term = None
            for f in factors:
                if not isinstance(f, EntryProbe):
                    raise TypeError("probe factor is not an entry probe")
                if term is None:
                    term = self.entry(f.eigs, f.i, f.j)
                elif term:      # an empty product stays empty
                    term = _sparse_product(term, self.entry(f.eigs, f.i, f.j), self._p)
            if term is None:
                term = {(k, k): self._one for k in range(self.pair.n)}
            for pos, v in term.items():
                acc[pos] = acc.get(pos, 0) + c * v
        return {pos: r for pos, v in acc.items() if (r := kernels.red(v, self._p))}

    def value(self, poly) -> Mat:
        """g poly(P) g^-1 as a Mat."""
        return Mat(self.pair.field, _dense(self.cells(poly), self.pair.n))


def _dense(cells: dict, n: int) -> list:
    return [[cells.get((k, l), 0) for l in range(n)] for k in range(n)]


def _sparse_product(X: dict, Y: dict, p) -> dict:
    """Product of two matrices held as {(row, col): raw entry}."""
    out = {}
    for (k, l), x in X.items():
        for (m, r), y in Y.items():
            if l == m:
                out[(k, r)] = kernels.red(out.get((k, r), 0) + x * y, p)
    return out


# the one-argument InvariantProbe.evaluate canonicalizes a pair once, not
# once per call, however often a caller evaluates probes on it
@lru_cache(maxsize=1024)
def _evaluator_of(P: MatrixPair) -> ProbeEvaluator:
    return ProbeEvaluator(P)


@dataclass(frozen=True)
class InvariantProbe:
    """One invariant evaluation recipe with a certified degree bound."""

    label: str
    kind: str            # "sigma" | "zeta" | "rank"
    n: int
    t: int | None = None
    poly: object | None = None       # NcPoly or NcExpr (None for sigma)
    expected: int | None = None      # rank probes: value on the defining pair

    def __post_init__(self):
        if self.kind == "zeta" and self.degree > 2 * self.n - 1:
            raise VerificationError("zeta probe degree bound")
        if self.kind == "rank" and self.degree > (self.n + 1) * (2 * self.n - 1):
            raise VerificationError("rank probe degree bound")

    @property
    def degree(self) -> int:
        if self.kind == "sigma":
            return 1
        if isinstance(self.poly, NcExpr):
            return self.poly.degree_bound
        return self.poly.formal_degree

    def evaluate(self, P: MatrixPair, values: ProbeEvaluator | None = None):
        """The probe's value on P; pass P's evaluator to reuse its
        eigenbasis.  Without one, a sigma probe reads the characteristic
        polynomial and other probes canonicalize P.  A zeta or rank probe
        raises FieldMismatchError on a pair over another field."""
        if self.poly is not None and self.poly.field is not P.field:
            raise FieldMismatchError("probe over %r, pair over %r" % (self.poly.field, P.field))
        if values is None:
            if self.kind == "sigma":
                return sigma(P.A1, self.t)
            values = _evaluator_of(P)
        elif values.pair is not P:
            raise ValueError("the evaluator belongs to another pair")
        if self.kind == "sigma":
            return values.sigmas[self.t]
        cells = values.cells(self.poly)
        if self.kind == "zeta":
            return 0 if cells else 1
        return kernels.rank_mod(_dense(cells, P.n), values._p)

    def to_json(self):
        out = {"label": self.label, "kind": self.kind, "degree": self.degree}
        if self.t is not None:
            out["t"] = self.t
        if self.expected is not None:
            out["expected"] = self.expected
        if self.poly is not None:
            out["poly"] = repr(self.poly)
        return out


@dataclass(frozen=True)
class SeparationReport:
    equal: bool
    probe: InvariantProbe | None
    value_a: object
    value_b: object
    probes_evaluated: int

    @property
    def verdict(self) -> str:
        return "equal" if self.equal else "separated"

    def to_json(self):
        def fmt(v):
            return repr(v) if isinstance(v, FieldElement) else v
        out = {"verdict": self.verdict, "probes": self.probes_evaluated}
        if not self.equal:
            out["witness"] = {"probe": self.probe.to_json(),
                              "value_a": fmt(self.value_a),
                              "value_b": fmt(self.value_b)}
        return out


def sigma_probe(n: int, t: int) -> InvariantProbe:
    return InvariantProbe("sigma[%d]" % t, "sigma", n, t=t)


def zeta_entry_probe(a, i: int, j: int) -> InvariantProbe:
    """zeta(H_i x2 H_j): vanishing of the (i, j) entry, eigenvalue basis a."""
    n = len(a)
    return InvariantProbe("zero(%d,%d)" % (i, j), "zeta", n,
                          poly=entry_probe_poly(a, i, j))


def type_separation(P: MatrixPair, Q: MatrixPair) -> SeparationReport:
    """Separate by sigma probes, then by entry-vanishing zeta probes on the
    canonical representatives.  Full agreement forces equal types; a
    disagreeing probe is a genuine invariant witness (the pairs then lie in
    different orbits, though possibly of the same type)."""
    return _walk(P, Q, ranks=False)


def _walk(P: MatrixPair, Q: MatrixPair, ranks: bool) -> SeparationReport:
    """The probe walk of both deciders over probe_stages of P's canonical
    form, the rank stage only with ranks; each probe is built when the walk
    reaches it, and the first whose values on P and Q differ separates
    them.  Agreement at each stage must force what the next one assumes,
    and each rank probe must read its expected value on P, or
    VerificationError is raised.  canonicalize raises FieldTooSmallError for
    F_p with p < n and NotSimpleSpectrumError without simple spectrum."""
    _check_comparable(P, Q)
    CP = canonicalize(P).canon
    CQ = canonicalize(Q).canon
    vp, vq = ProbeEvaluator(P, CP), ProbeEvaluator(Q, CQ)
    sigmas, zetas, params = probe_stages(CP)

    def probes():
        yield from sigmas
        if CP.eigs != CQ.eigs:
            raise VerificationError("equal sigmas must force equal eigenvalues")
        vq.eigs = vp.eigs       # one tuple, so entry() matches probes by identity
        yield from zetas
        if CP.type_graph != CQ.type_graph:
            raise VerificationError("probe agreement must force equal types")
        if ranks:
            yield from params
            # both canonical forms carry exactly checked witnesses, so equal
            # data certifies the verdict
            if CP != CQ:
                raise VerificationError("probes agree but the canonical forms differ")

    for count, probe in enumerate(probes(), start=1):
        va, vb = probe.evaluate(P, vp), probe.evaluate(Q, vq)
        if probe.kind == "rank" and va != probe.expected:
            raise VerificationError("rank probe %s is %d on its own pair, not %d"
                                    % (probe.label, va, probe.expected))
        if va != vb:
            return SeparationReport(False, probe, va, vb, count)
    return SeparationReport(True, None, None, None, count)


def build_param_probe(C: CanonicalPair, i: int, j: int) -> InvariantProbe:
    """Rank probe pinning the free parameter at * cell (i, j) of C.

    Diagonal: rank(c*I - H_i x2 H_i) with c the stored parameter; evaluates on
    the defining pair to n-1 for c != 0 and to 0 for c = 0.  Off-diagonal: the
    unique type-forest path from v_i to v_j gives a three-diagonal sequence;
    with h_l the entry probe along the l-th path arrow and h0 = H_i x2 H_j,
    the probe is rank(c*Alt(w1(h),..,wr(h)) - u1(h) h0 u2(h)) for the
    sequence's certificate words, evaluating to (r-1)/2 for c != 0, 0 for
    c = 0.
    """
    if C.star.cell(i, j) != STAR:
        raise ValueError("(%d,%d) is not a free-parameter cell" % (i, j))
    field, n, a = C.field, C.n, C.eigs
    c = C.param(i, j).value
    if i == j:
        terms = [(c, ()), (-1, (entry_probe_poly(a, i, i),))]
        expected = n - 1 if c else 0
    else:
        path = undirected_path(C.type_graph, i, j)
        if path is None:
            raise VerificationError("a * cell always has a connecting path")
        S = ThreeDiagSeq(path.vertices, path.flags, n)
        cert = staircase_cert(S)
        hs = [entry_probe_poly(a, *S.pair(l)) for l in range(1, S.k + 1)]
        h0 = entry_probe_poly(a, i, j)
        terms = []
        for l, w in enumerate(cert.ws, start=1):
            coeff = c if l % 2 == 1 else -c
            terms.append((coeff, tuple(hs[k - 1] for k in w)))
        tail = tuple(hs[k - 1] for k in cert.u1) + (h0,) + tuple(hs[k - 1] for k in cert.u2)
        terms.append((-1, tail))
        expected = (cert.r - 1) // 2 if c else 0
    return InvariantProbe("param(%d,%d)" % (i, j), "rank", n,
                          poly=NcExpr(field, terms), expected=expected)


def probe_stages(C: CanonicalPair) -> tuple:
    """C's probe sequence as three lazy stages: n sigma probes, n(n-1) zeta
    probes, then one rank probe per * cell in lexicographic cell order."""
    n = C.n
    return ((sigma_probe(n, t) for t in range(1, n + 1)),
            (zeta_entry_probe(C.eigs, i, j)
             for i in range(1, n + 1) for j in range(1, n + 1) if i != j),
            (build_param_probe(C, i, j) for i, j in C.star.star_positions()))


def param_probes(C: CanonicalPair) -> list[InvariantProbe]:
    """One rank probe per * cell, in lexicographic cell order."""
    return list(probe_stages(C)[2])


def orbit_eq_by_ranks(P: MatrixPair, Q: MatrixPair) -> SeparationReport:
    """Decide orbit equality through invariant probes only: sigma probes,
    entry-vanishing zeta probes, then one rank probe per free parameter of P's
    canonical form, each evaluated on the input pairs in their verified
    eigenbases."""
    return _walk(P, Q, ranks=True)


# ---------------------------------------------------------------------------
# counterexample verifiers
# ---------------------------------------------------------------------------

def _sample_polys(field: Field, rng: random.Random, total: int,
                  full_degree: int, combo_degree: int) -> list[NcPoly]:
    """All two-letter words up to full_degree, then seeded random linear
    combinations of words up to combo_degree, total polynomials overall."""
    out = []
    words = [()]
    frontier = [()]
    for _ in range(combo_degree):
        frontier = [w + (k,) for w in frontier for k in (1, 2)]
        words.extend(frontier)
    for w in words:
        if len(w) <= full_degree:
            out.append(NcPoly.word(field, w, m=2))
    while len(out) < total:
        nterms = rng.randint(1, 6)
        terms = {}
        for _ in range(nterms):
            w = tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, combo_degree)))
            coeff = rng.randint(1, field.p - 1) if not field.is_rationals \
                else rng.choice([v for v in range(-9, 10) if v])
            terms[w] = coeff + terms.get(w, 0)
        poly = NcPoly(field, 2, terms)
        if not poly.is_zero():
            out.append(poly)
    return out[:total]


def verify_counterexample_single_image(p: int = 5, fp_samples: int = 10_000,
                                       q_samples: int = 1_000, seed: int = 0,
                                       run_search: bool = True) -> dict:
    """The 3x3 pairs A = (E12, E13) and B = (E12, E32) lie in different orbits
    (exhaustive GL_3(F_p) search finds no conjugator), yet every sampled
    polynomial image F(A), F(B) is conjugate, with equal rank, equal sigma
    values and equal vanishing."""
    report = {"seed": seed, "fields": {}, "ok": True}
    lanes = [(PrimeField(p), fp_samples), (QQ, q_samples)]
    for field, total in lanes:
        rng = random.Random(seed)
        E12 = Mat.unit(field, 3, 1, 2)
        E13 = Mat.unit(field, 3, 1, 3)
        E32 = Mat.unit(field, 3, 3, 2)
        A = MatrixPair(E12, E13)
        B = MatrixPair(E12, E32)
        ident = Mat.identity(field, 3)
        checked = 0
        conjugated = 0
        for F in _sample_polys(field, rng, total, full_degree=4, combo_degree=6):
            FA = F.eval(A.mats(), 3)
            FB = F.eval(B.mats(), 3)
            gamma, al, be = FA[0, 0], FA[0, 1], FA[0, 2]
            pattern_a = ident * gamma + E12 * al + E13 * be
            pattern_b = ident * gamma + E12 * al + E32 * be
            ok = (FA == pattern_a and FB == pattern_b
                  and rank(FA) == rank(FB)
                  and zero_indicator(FA) == zero_indicator(FB)
                  and all(sigma(FA, t) == sigma(FB, t) for t in (1, 2, 3)))
            if be.is_zero():
                ok = ok and FA == FB
            else:
                g = Mat(field, [[al, 1, 0], [0, al, be], [be, 0, 0]])
                ok = ok and not det(g).is_zero() and g @ FA == FB @ g
                conjugated += 1
            if not ok:
                report["ok"] = False
                report.setdefault("failures", []).append(
                    {"field": repr(field), "poly": repr(F)})
            checked += 1
        report["fields"][repr(field)] = {
            "samples": checked, "explicit_conjugations": conjugated}
    if run_search:
        field = PrimeField(p)
        A = MatrixPair(Mat.unit(field, 3, 1, 2), Mat.unit(field, 3, 1, 3))
        B = MatrixPair(Mat.unit(field, 3, 1, 2), Mat.unit(field, 3, 3, 2))
        witness, scanned = find_conjugator(A, B)
        report["search"] = {"p": p, "invertible_scanned": scanned,
                            "conjugator_found": witness is not None}
        if witness is not None:
            report["ok"] = False
    return report


def _l_shape_ok(rows) -> bool:
    # allowed nonzero positions of the invariant subalgebra (1-based):
    # (1,1) (2,1) (2,2) (2,3) (3,3) (4,1) (4,3) (4,4)
    allowed = {(1, 1), (2, 1), (2, 2), (2, 3), (3, 3), (4, 1), (4, 3), (4, 4)}
    for i in range(1, 5):
        for j in range(1, 5):
            if (i, j) not in allowed and rows[i - 1][j - 1]:
                return False
    return True


def verify_counterexample_sigma_zero(field: Field = QQ, a=(0, 1, 2, 3),
                                     alpha=1, beta=2, samples: int = 2_000,
                                     seed: int = 0) -> dict:
    """Two 4x4 pairs of one type whose free parameters differ only at (4,3)
    (alpha vs beta) lie in different orbits, yet for every sampled F the
    images F(A), F(B) agree entrywise off (4,3) and are proportional there,
    so every sigma value and every vanishing indicator coincides."""
    alpha = field.elem(alpha)
    beta = field.elem(beta)
    if alpha.is_zero() or beta.is_zero() or alpha == beta:
        raise ValueError("need distinct nonzero alpha, beta")
    A1 = Mat.diag(field, a)

    def second(c):
        return Mat(field, [[0, 0, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0], [1, 0, c, 0]])

    A = MatrixPair(A1, second(alpha))
    B = MatrixPair(A1, second(beta))
    CA = canonicalize(A).canon
    CB = canonicalize(B).canon
    report = {"seed": seed, "ok": True, "samples": 0}
    report["same_type"] = CA.type_graph == CB.type_graph
    report["star_rows"] = CA.star.text_rows()
    diff = [pos for (pos, va), (_, vb) in zip(CA.params, CB.params) if va != vb]
    report["param_difference"] = diff
    report["orbits_equal"] = orbit_eq_canonical(A, B)
    if (not report["same_type"] or diff != [(4, 3)]
            or report["orbits_equal"] or CA.param(4, 3) != alpha
            or CB.param(4, 3) != beta):
        report["ok"] = False
    rng = random.Random(seed)
    for F in _sample_polys(field, rng, samples, full_degree=5, combo_degree=6):
        FA = F.eval(A.mats(), 4)
        FB = F.eval(B.mats(), 4)
        ra, rb = FA.values(), FB.values()
        ok = _l_shape_ok(ra) and _l_shape_ok(rb)
        if ok:
            for i in range(4):
                for j in range(4):
                    if (i, j) != (3, 2) and ra[i][j] != rb[i][j]:
                        ok = False
        if ok:
            b = FA[3, 2] / alpha
            ok = FB[3, 2] == beta * b
        if ok:
            ok = (zero_indicator(FA) == zero_indicator(FB)
                  and all(sigma(FA, t) == sigma(FB, t) for t in (1, 2, 3, 4)))
        if not ok:
            report["ok"] = False
            report.setdefault("failures", []).append(repr(F))
        report["samples"] += 1
    return report
