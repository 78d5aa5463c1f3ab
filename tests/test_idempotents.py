import random
from fractions import Fraction

import pytest

from simspec.canonical import MatrixPair
from simspec.fields import QQ, PrimeField
from simspec.idempotents import EntryProbe, entry_probe_poly, idempotent_poly
from simspec.matrices import Mat, conjugate, inverse
from simspec.ncpoly import NcPoly
from simspec.sampling import random_invertible, random_matrix, random_simple_spectrum_pair
from simspec.separators import orbit_eq_by_ranks


# independent construction: solve the n x n power-basis system B y = e_t with
# B_ij = a_i^(n-j), then H = sum_j y_j x^(n-j)
def _idempotent_via_linear_solve(a, t):
    field = a[0].field
    n = len(a)
    B = Mat(field, [[_pow(a[i], n - 1 - j) for j in range(n)]
                    for i in range(n)])
    e = Mat(field, [[field.one if i == t - 1 else field.zero] for i in range(n)])
    y = inverse(B) @ e
    terms = {(1,) * (n - 1 - j): y[j, 0] for j in range(n)}
    return NcPoly(field, 1, terms)


def _pow(x, k):
    out = x.field.one
    for _ in range(k):
        out = out * x
    return out


def _sample_eigs(field, n, rng):
    pool = list(range(-8, 9)) if field.is_rationals else list(range(field.p))
    return tuple(field.elem(v) for v in rng.sample(pool, n))


def test_two_point_formula():
    a = (QQ.elem(Fraction(3)), QQ.elem(Fraction(7)))
    h1 = idempotent_poly(a, 1)
    d = a[0] - a[1]
    expected = NcPoly(QQ, 1, {(1,): d.inverse(), (): -(a[1] / d)})
    assert h1 == expected
    h2 = idempotent_poly(a, 2)
    expected2 = NcPoly(QQ, 1, {(1,): -(d.inverse()), (): a[0] / d})
    assert h2 == expected2


def test_specialized_values():
    a = (QQ.zero, QQ.one)
    assert idempotent_poly(a, 1) == NcPoly(QQ, 1, {(1,): QQ.elem(-1), (): QQ.one})
    assert idempotent_poly(a, 1).eval([Mat.diag(QQ, [0, 1])]) == Mat.unit(QQ, 2, 1, 1)

    a = (QQ.zero, QQ.one, QQ.elem(2))
    h = idempotent_poly(a, 1)
    want = NcPoly(QQ, 1, {(1, 1): QQ.elem(Fraction(1, 2)),
                          (1,): QQ.elem(Fraction(-3, 2)), (): QQ.one})
    assert h == want
    assert h.eval([Mat.diag(QQ, [0, 1, 2])]) == Mat.unit(QQ, 3, 1, 1)


def test_matches_linear_solve_oracle(rng, field):
    for _ in range(10):
        n = rng.choice([2, 3, 4, 5])
        if not field.is_rationals and field.p < n:
            continue
        a = _sample_eigs(field, n, rng)
        for t in range(1, n + 1):
            assert idempotent_poly(a, t) == _idempotent_via_linear_solve(a, t)


def test_exactness_random(rng):
    for field in (QQ, PrimeField(7), PrimeField(11)):
        for n in range(2, 7):
            if not field.is_rationals and field.p < n:
                continue
            a = _sample_eigs(field, n, rng)
            D = Mat.diag(field, a)
            for t in range(1, n + 1):
                h = idempotent_poly(a, t)
                assert h.formal_degree <= n - 1
                assert h.eval([D]) == Mat.unit(field, n, t, t)


def test_partition_identities(rng, field):
    n = 4
    a = _sample_eigs(field, n, rng)
    D = Mat.diag(field, a)
    vals = [idempotent_poly(a, t).eval([D]) for t in range(1, n + 1)]
    total = vals[0]
    for v in vals[1:]:
        total = total + v
    assert total == Mat.identity(field, n)
    for s in range(n):
        for t in range(n):
            prod = vals[s] @ vals[t]
            assert prod == (vals[t] if s == t else Mat.zeros(field, n))


def test_entry_probe_identity(rng, field):
    for _ in range(10):
        n = rng.choice([2, 3, 4])
        if not field.is_rationals and field.p < n:
            continue
        a = _sample_eigs(field, n, rng)
        M = random_matrix(field, n, rng)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                probe = entry_probe_poly(a, i, j)
                assert probe.formal_degree <= 2 * n - 1
                want = Mat.unit(field, n, i, j) * M[i - 1, j - 1]
                assert probe.eval([Mat.diag(field, a), M]) == want


def test_entry_probe_examples(rng):
    a = (QQ.elem(-1), QQ.elem(4))
    E21 = Mat.unit(QQ, 2, 2, 1)
    assert entry_probe_poly(a, 2, 1).eval([Mat.diag(QQ, a), E21]) == E21
    assert entry_probe_poly(a, 1, 2).eval([Mat.diag(QQ, a), E21]).is_zero()
    a4 = tuple(QQ.elem(v) for v in (0, 1, 2, 3))
    for i in range(1, 5):
        for j in range(1, 5):
            assert entry_probe_poly(a4, i, j).formal_degree <= 7


def test_rejects_repeated_eigenvalues():
    with pytest.raises(ValueError):
        idempotent_poly((QQ.one, QQ.one), 1)
    with pytest.raises(ValueError):
        entry_probe_poly((QQ.zero, QQ.zero), 1, 2)


def test_lazy_entry_probe_matches_eager_product(rng, field):
    """An entry probe expands its terms only when asked; whichever question
    comes first (equality, hash, text, terms, eval), the answer is that of the
    product H_i x2 H_j, and the certified degree is the product's."""
    x2 = NcPoly.letter(field, 2, m=2)
    for n in range(2, 6):
        a = _sample_eigs(field, n, rng)
        A = [Mat.diag(field, a), random_matrix(field, n, rng)]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                eager = idempotent_poly(a, i) * x2 * idempotent_poly(a, j)
                assert EntryProbe(a, i, j).formal_degree == eager.formal_degree == 2 * n - 1
                assert EntryProbe(a, i, j) == eager and eager == EntryProbe(a, i, j)
                assert hash(EntryProbe(a, i, j)) == hash(eager)
                assert repr(EntryProbe(a, i, j)) == repr(eager)
                assert EntryProbe(a, i, j).terms() == eager.terms()
                assert EntryProbe(a, i, j).eval(A) == eager.eval(A)
                assert entry_probe_poly(a, i, j) == eager


@pytest.mark.parametrize("field", [QQ, PrimeField(11)], ids=["Q", "F11"])
def test_entry_probe_degree_is_its_expansions(rng, field):
    """The degree an entry probe states without expanding, 2n - 1, is the
    degree of its expanded terms, for every (i, j)."""
    for n in range(2, 6):
        a = _sample_eigs(field, n, rng)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                probe = EntryProbe(a, i, j)
                assert probe.formal_degree == NcPoly.formal_degree.fget(probe) == 2 * n - 1


def test_equal_decision_expands_no_entry_probe(monkeypatch, field):
    """An equal n = 5 rank decision evaluates every probe but only reads the
    entry probes' tags and degrees: none is expanded into words."""
    expanded = []
    terms = EntryProbe._terms

    def counted(self):
        expanded.append((self.i, self.j))
        return terms.fget(self)

    monkeypatch.setattr(EntryProbe, "_terms", property(counted))
    rng = random.Random(5)
    P = random_simple_spectrum_pair(field, 5, rng)
    Q = MatrixPair(*conjugate(random_invertible(field, 5, rng), P.mats()))
    rep = orbit_eq_by_ranks(P, Q)
    assert rep.equal and rep.probes_evaluated > 25
    assert expanded == []
