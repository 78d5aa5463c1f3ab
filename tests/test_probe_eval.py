"""Probe values from the per-pair entry table against direct evaluation."""

import random

import pytest

from simspec.canonical import MatrixPair, canonicalize
from simspec.fields import QQ, PrimeField
from simspec.idempotents import EntryProbe, entry_probe_poly, idempotent_poly
from simspec.matrices import Mat, conjugate
from simspec.ncpoly import NcExpr, NcPoly
from simspec.sampling import (
    random_invertible,
    random_matrix,
    random_simple_spectrum_pair,
)
from simspec.separators import (
    ProbeEvaluator,
    orbit_eq_by_ranks,
    param_probes,
    zeta_entry_probe,
)

FIELDS = [QQ, PrimeField(7), PrimeField(11)]


def _probes(C):
    n = C.n
    zetas = [zeta_entry_probe(C.eigs, i, j)
             for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    return zetas + param_probes(C)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_table_values_match_direct_evaluation(field):
    rng = random.Random(20240917)
    for n in range(2, 6):
        P = random_simple_spectrum_pair(field, n, rng)
        C = canonicalize(P).canon
        other = MatrixPair(random_matrix(field, n, rng), random_matrix(field, n, rng))
        for R in (P, C.reconstituted(), other):
            values = ProbeEvaluator(R)
            for probe in _probes(C):
                got = values.value(probe.poly)
                assert got == probe.poly.eval(R.mats(), n), probe.label
                # word-by-word evaluation of the expansion is the slow
                # reference: about 5 s per pair over Q at n = 5, so Q stops at 4
                if probe.kind == "rank" and (n <= 4 or not field.is_rationals):
                    assert got == probe.poly.expand().eval(R.mats(), n), probe.label
                assert probe.evaluate(R, values) == probe.evaluate(R)


def test_entry_table_reads_each_entry_once():
    rng = random.Random(3)
    P = random_simple_spectrum_pair(QQ, 3, rng)
    a = canonicalize(P).canon.eigs
    values = ProbeEvaluator(P)
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
    """An n = 5 equal decision needs at most 400 matmuls."""
    rng = random.Random(11)
    n = 5
    P = random_simple_spectrum_pair(field, n, rng)
    g = random_invertible(field, n, rng)
    Q = MatrixPair(*conjugate(g, P.mats()))
    stars = len(canonicalize(P).canon.star.star_positions())
    calls = []
    matmul = Mat.__matmul__

    def counted(self, other):
        calls.append(1)
        return matmul(self, other)

    monkeypatch.setattr(Mat, "__matmul__", counted)
    rep = orbit_eq_by_ranks(P, Q)
    assert rep.equal
    assert rep.probes_evaluated == n * n + stars
    assert len(calls) <= 400
