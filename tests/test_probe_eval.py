"""Probe values read in a pair's eigenbasis against the per-pair table of
entry values H_i(A1) A2 H_j(A1), kept here as the reference oracle."""

import random

import pytest

from simspec.canonical import MatrixPair, canonicalize
from simspec.fields import QQ, FieldElement, PrimeField
from simspec.idempotents import EntryProbe, entry_probe_poly, idempotent_poly
from simspec.matrices import Mat, conjugate, inverse, rank, sigma
from simspec.ncpoly import NcExpr, NcPoly
from simspec.sampling import (
    random_invertible,
    random_matrix,
    random_simple_spectrum_pair,
)
from simspec import matrices, separators
from simspec.separators import (
    ProbeEvaluator,
    orbit_eq_by_ranks,
    param_probes,
    zero_indicator,
    zeta_entry_probe,
)

FIELDS = [QQ, PrimeField(7), PrimeField(11)]


class TableEvaluator:
    """Probe values on any pair, from one table of entry values.

    The powers A1^0..A1^(n-1) are computed once, each H_t(A1) is a linear
    combination of them, L_i = H_i(A1) A2 is formed once per i and
    h_ij(P) = L_i H_j(A1) once per (i, j); a probe reads the table values
    of its factors and multiplies them.
    """

    def __init__(self, P):
        self.pair = P
        self._powers = [Mat.identity(P.field, P.n)]
        self._H = {}     # (a, t) -> H_t(A1)
        self._L = {}     # (a, i) -> H_i(A1) A2
        self._h = {}     # (a, i, j) -> h_ij(P)

    def _idempotent(self, a, t):
        got = self._H.get((a, t))
        if got is None:
            H = idempotent_poly(a, t)
            while len(self._powers) <= H.formal_degree:
                self._powers.append(self._powers[-1] @ self.pair.A1)
            terms = [(c, self._powers[len(w)].rows) for w, c in H.terms()]
            n, zero = self.pair.n, self.pair.field.zero
            got = Mat(self.pair.field,
                      [[sum((c * M[r][s] for c, M in terms), zero) for s in range(n)]
                       for r in range(n)])
            self._H[(a, t)] = got
        return got

    def entry(self, a, i, j):
        """h_ij(P) = H_i(A1) A2 H_j(A1) for the eigenvalue basis a."""
        got = self._h.get((a, i, j))
        if got is None:
            left = self._L.get((a, i))
            if left is None:
                left = self._L[(a, i)] = self._idempotent(a, i) @ self.pair.A2
            got = self._h[(a, i, j)] = left @ self._idempotent(a, j)
        return got

    def value(self, poly):
        """poly(P) for an entry probe or an NcExpr of entry probes."""
        if isinstance(poly, EntryProbe):
            return self.entry(poly.eigs, poly.i, poly.j)
        field, n = poly.field, self.pair.n
        acc = Mat.zeros(field, n)
        for c, factors in poly.terms:
            prod = None
            for f in factors:
                prod = self.value(f) if prod is None else prod @ self.value(f)
            acc = acc + (Mat.identity(field, n) if prod is None else prod) * c
        return acc


def _probes(C):
    n = C.n
    zetas = [zeta_entry_probe(C.eigs, i, j)
             for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    return zetas + param_probes(C)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_table_values_match_direct_evaluation(field):
    """The oracle itself: table values equal direct evaluation."""
    rng = random.Random(20240917)
    for n in range(2, 6):
        P = random_simple_spectrum_pair(field, n, rng)
        C = canonicalize(P).canon
        other = MatrixPair(random_matrix(field, n, rng), random_matrix(field, n, rng))
        for R in (P, C.reconstituted(), other):
            values = TableEvaluator(R)
            for probe in _probes(C):
                got = values.value(probe.poly)
                assert got == probe.poly.eval(R.mats(), n), probe.label
                # word-by-word evaluation of the expansion is the slow
                # reference: about 5 s per pair over Q at n = 5, so Q stops at 4
                if probe.kind == "rank" and (n <= 4 or not field.is_rationals):
                    assert got == probe.poly.expand().eval(R.mats(), n), probe.label


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_eigenbasis_values_match_table_oracle(field):
    """value() is g poly(P) g^-1 for canonicalize's witness g, so rank and
    vanishing equal the table's, on raw, reconstituted and conjugated pairs
    and on a pair whose eigenvalues are not the probes' basis."""
    rng = random.Random(20240918)
    for n in range(2, 6):
        P = random_simple_spectrum_pair(field, n, rng)
        C = canonicalize(P).canon
        conj = MatrixPair(*conjugate(random_invertible(field, n, rng), P.mats()))
        other = random_simple_spectrum_pair(field, n, rng)
        while canonicalize(other).canon.eigs == C.eigs:
            other = random_simple_spectrum_pair(field, n, rng)
        probes = _probes(C)
        for R in (P, C.reconstituted(), conj, other):
            res = canonicalize(R)
            values = ProbeEvaluator(R, res.canon)
            table = TableEvaluator(R)
            g, ginv = res.g, inverse(res.g)
            for t in range(1, n + 1):
                assert values.sigmas[t] == sigma(R.A1, t)
            for probe in probes:
                got, want = values.value(probe.poly), table.value(probe.poly)
                assert got == g @ want @ ginv, probe.label
                if probe.kind == "zeta":
                    assert zero_indicator(got) == zero_indicator(want), probe.label
                    assert probe.evaluate(R, values) == zero_indicator(want)
                else:
                    assert rank(got) == rank(want), probe.label
                    assert probe.evaluate(R, values) == rank(want)
            # the one-argument form canonicalizes R itself
            assert [pr.evaluate(R) for pr in probes] == \
                [pr.evaluate(R, values) for pr in probes]


def test_entry_values_in_the_probes_basis_are_single_entries():
    rng = random.Random(6)
    P = random_simple_spectrum_pair(QQ, 4, rng)
    C = canonicalize(P).canon
    B = C.reconstituted().A2
    values = ProbeEvaluator(P, C)
    for i in range(1, 5):
        for j in range(1, 5):
            b = B[i - 1, j - 1]
            want = {} if b.is_zero() else {(i - 1, j - 1): b.value}
            assert values.entry(C.eigs, i, j) == want


def test_entry_table_reads_each_entry_once():
    rng = random.Random(3)
    P = random_simple_spectrum_pair(QQ, 3, rng)
    a = canonicalize(P).canon.eigs
    values = TableEvaluator(P)
    first = values.entry(a, 1, 2)
    assert values.entry(a, 1, 2) is first
    want = idempotent_poly(a, 1).eval([P.A1]) @ P.A2 @ idempotent_poly(a, 2).eval([P.A1])
    assert first == want


def test_entry_probe_is_a_plain_polynomial():
    a = tuple(QQ.elem(v) for v in (0, 1, 3))
    probe = entry_probe_poly(a, 2, 3)
    assert isinstance(probe, EntryProbe) and (probe.eigs, probe.i, probe.j) == (a, 2, 3)
    x2 = NcPoly.letter(QQ, 2, m=2)
    plain = idempotent_poly(a, 2) * x2 * idempotent_poly(a, 3)
    assert type(plain) is NcPoly
    assert probe == plain and hash(probe) == hash(plain)
    assert repr(probe) == repr(plain)
    # arithmetic on an entry probe gives plain polynomials, which carry no tag
    assert type(probe * x2) is NcPoly


def test_evaluator_refuses_untagged_factors():
    rng = random.Random(5)
    P = random_simple_spectrum_pair(QQ, 3, rng)
    a = canonicalize(P).canon.eigs
    values = ProbeEvaluator(P)
    plain = entry_probe_poly(a, 1, 2) * NcPoly.one(QQ, m=2)
    with pytest.raises(TypeError):
        values.value(plain)
    with pytest.raises(TypeError):
        values.value(NcExpr(QQ, [(QQ.elem(1), (plain,))]))


def test_evaluator_belongs_to_its_pair():
    rng = random.Random(4)
    P = random_simple_spectrum_pair(QQ, 3, rng)
    Q = random_simple_spectrum_pair(QQ, 3, rng)
    probe = zeta_entry_probe(canonicalize(P).canon.eigs, 1, 2)
    with pytest.raises(ValueError):
        probe.evaluate(Q, ProbeEvaluator(P))


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=repr)
def test_rank_decision_matmul_budget(monkeypatch, field):
    """Outside its two canonicalize calls, an n = 5 equal decision does no
    matmul and computes no characteristic polynomial.  It makes FieldElements
    only for the data it reports (eigenvalues, parameters, sigma values): 64
    on this pair, under a ceiling of 454 over Q and 379 over F_7.  Probe
    values are sparse cells and the evaluators read the canonical second
    matrices as raw rows, so it builds no Mat per value and none per
    evaluator: only, over Q, 8 on the first build of a staircase
    certificate."""
    rng = random.Random(11)
    n = 5
    P = random_simple_spectrum_pair(field, n, rng)
    g = random_invertible(field, n, rng)
    Q = MatrixPair(*conjugate(g, P.mats()))
    C = canonicalize(P).canon
    stars = len(C.star.star_positions())
    inside = []
    outside = {"matmul": 0, "charpoly": 0, "canonicalize": 0}
    matmul, charpoly = Mat.__matmul__, matrices.charpoly
    canon = separators.canonicalize

    def counted_canon(pair):
        outside["canonicalize"] += 1
        inside.append(1)
        try:
            return canon(pair)
        finally:
            inside.pop()

    def counted_matmul(self, other):
        if not inside:
            outside["matmul"] += 1
        return matmul(self, other)

    def counted_charpoly(M):
        if not inside:
            outside["charpoly"] += 1
        return charpoly(M)

    mats = [0]
    mat_init = Mat.__init__

    def counted_mat(self, field, rows):
        if not inside:
            mats[0] += 1
        mat_init(self, field, rows)

    elements = [0]
    element_init = FieldElement.__init__

    def counted_element(self, field, value):
        elements[0] += 1
        element_init(self, field, value)

    monkeypatch.setattr(separators, "canonicalize", counted_canon)
    monkeypatch.setattr(Mat, "__matmul__", counted_matmul)
    monkeypatch.setattr(matrices, "charpoly", counted_charpoly)
    monkeypatch.setattr(FieldElement, "__init__", counted_element)
    monkeypatch.setattr(Mat, "__init__", counted_mat)
    rep = orbit_eq_by_ranks(P, Q)
    assert rep.equal
    assert rep.probes_evaluated == n * n + stars
    assert outside == {"matmul": 0, "charpoly": 0, "canonicalize": 2}
    assert elements[0] <= (454 if field.is_rationals else 379)
    assert mats[0] <= 8
    # in the pair's own basis an entry is one dict, handed out again
    values = ProbeEvaluator(P, C)
    assert all(values.entry(C.eigs, i, j) is values.entry(C.eigs, i, j)
               for i in range(1, n + 1) for j in range(1, n + 1))
