import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from simspec.fields import QQ, PrimeField
from simspec.idempotents import entry_probe_poly
from simspec.matrices import Mat, conjugate, rank
from simspec.canonical import MatrixPair, canonicalize, orbit_eq_canonical
from simspec.ncpoly import NcPoly, alt_sum
from simspec.sampling import (
    random_invertible,
    random_matrix,
    random_simple_spectrum_pair,
)
from simspec import separators
from simspec.errors import FieldMismatchError, VerificationError
from simspec.separators import (
    ProbeEvaluator,
    build_param_probe,
    orbit_eq_by_ranks,
    param_probes,
    rank_indicator,
    sigma_probe,
    type_separation,
    verify_counterexample_sigma_zero,
    verify_counterexample_single_image,
    zero_indicator,
    zeta_entry_probe,
)
from simspec.stargraph import enumerate_forests, star_from_forest


def test_indicators(rng):
    assert zero_indicator(Mat.zeros(QQ, 3)) == 1
    assert zero_indicator(Mat.unit(QQ, 3, 1, 2)) == 0
    assert rank_indicator(Mat.identity(QQ, 3), 3) == 1
    assert rank_indicator(Mat.unit(QQ, 2, 1, 2), 1) == 1
    assert rank_indicator(Mat.unit(QQ, 2, 1, 2), 0) == 0
    with pytest.raises(ValueError):
        rank_indicator(Mat.identity(QQ, 2), 5)
    for _ in range(20):
        M = random_matrix(PrimeField(5), 3, rng)
        N = random_matrix(PrimeField(5), 3, rng)
        vec_m = [rank_indicator(M, t) for t in range(4)]
        vec_n = [rank_indicator(N, t) for t in range(4)]
        assert (vec_m == vec_n) == (rank(M) == rank(N))
        assert rank_indicator(M, 0) == zero_indicator(M)


def test_type_separation_trivial_and_witnesses():
    P = MatrixPair(Mat.diag(QQ, [0, 1]), Mat.unit(QQ, 2, 2, 1))
    assert type_separation(P, P).equal

    Q = MatrixPair(Mat.diag(QQ, [0, 1]), Mat.zeros(QQ, 2))
    rep = type_separation(P, Q)
    assert not rep.equal
    assert rep.probe.label == "zero(2,1)"
    assert (rep.value_a, rep.value_b) == (0, 1)

    R = MatrixPair(Mat.diag(QQ, [0, 2]), Mat.zeros(QQ, 2))
    rep = type_separation(Q, R)
    assert not rep.equal and rep.probe.kind == "sigma"


def _pairs_for_type(field, graph, values):
    star = star_from_forest(graph)
    n = graph.n
    eigs = [field.elem(v) for v in range(n)]
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            sym = star.cell(i, j)
            if sym == "1":
                row.append(field.one)
            elif sym == "0":
                row.append(field.zero)
            else:
                row.append(field.elem(values.get((i, j), 0)))
        rows.append(row)
    return MatrixPair(Mat.diag(field, eigs), Mat(field, rows))


def test_distinct_types_always_separated_n3():
    """Every pair of distinct 3-vertex types is separated by the probe set,
    for both all-zero and all-one parameter fillings."""
    F5 = PrimeField(5)
    graphs = enumerate_forests(3)
    for fill in (0, 1):
        reps = []
        for G in graphs:
            values = {pos: fill for pos in star_from_forest(G).star_positions()}
            reps.append((G, _pairs_for_type(F5, G, values)))
        for (G1, P), (G2, Q) in itertools.combinations(reps, 2):
            rep = type_separation(P, Q)
            assert not rep.equal, (G1, G2)
            assert rep.probe.kind == "zeta"


def test_distinct_types_separated_n4_sampled(rng):
    # the full 201x200/2 cross at n=4 runs minutes; a seeded sample of type
    # pairs with {0,1} parameter fillings and random fillings covers the claim
    F5 = PrimeField(5)
    graphs = enumerate_forests(4)
    for _ in range(150):
        G1, G2 = rng.sample(graphs, 2)
        fillings = [
            ({pos: rng.choice((0, 1)) for pos in star_from_forest(G1).star_positions()},
             {pos: rng.choice((0, 1)) for pos in star_from_forest(G2).star_positions()}),
            ({pos: rng.randint(0, 4) for pos in star_from_forest(G1).star_positions()},
             {pos: rng.randint(0, 4) for pos in star_from_forest(G2).star_positions()}),
        ]
        for v1, v2 in fillings:
            P = _pairs_for_type(F5, G1, v1)
            Q = _pairs_for_type(F5, G2, v2)
            rep = type_separation(P, Q)
            assert not rep.equal


def test_equal_types_vs_equal_orbits():
    # diagonal parameters are invisible to the off-diagonal zeta probes, so
    # type agreement must not be read as orbit agreement
    P = MatrixPair(Mat.diag(QQ, [0, 1]), Mat(QQ, [[1, 0], [0, 0]]))
    Q = MatrixPair(Mat.diag(QQ, [0, 1]), Mat.zeros(QQ, 2))
    assert type_separation(P, Q).equal
    assert canonicalize(P).canon.type_graph == canonicalize(Q).canon.type_graph
    assert not orbit_eq_by_ranks(P, Q).equal
    # off-diagonal parameter vanishing IS visible to the zeta probes, which
    # may therefore separate two pairs of one type: witness values must
    # genuinely differ and the verdict speaks about orbits, not types
    P = MatrixPair(Mat.diag(QQ, [0, 1]), Mat(QQ, [[0, 1], [3, 0]]))
    Q = MatrixPair(Mat.diag(QQ, [0, 1]), Mat(QQ, [[0, 1], [0, 0]]))
    rep = type_separation(P, Q)
    assert not rep.equal and rep.value_a != rep.value_b
    assert canonicalize(P).canon.type_graph == canonicalize(Q).canon.type_graph


def test_param_probe_diagonal():
    P = MatrixPair(Mat.diag(QQ, [0, 1]), Mat(QQ, [[3, 0], [0, 0]]))
    C = canonicalize(P).canon
    probe = build_param_probe(C, 1, 1)
    # nonzero diagonal parameter: rank(c*I - H1 x2 H1) = n - 1 on the pair
    assert probe.expected == 1
    assert probe.evaluate(P) == 1
    zero_probe = build_param_probe(C, 2, 2)
    assert zero_probe.expected == 0
    assert zero_probe.evaluate(P) == 0
    with pytest.raises(ValueError):
        build_param_probe(C, 1, 2)  # not a * cell for this type


def test_param_probe_worked_example_structure():
    """The probes for the 4x4 worked type reproduce the displayed formulas:
    expanding the factored probe equals the hand-built polynomial."""
    a = tuple(QQ.elem(v) for v in (0, 1, 2, 3))
    vals = {(3, 1): Fraction(2), (3, 2): Fraction(-1), (4, 2): Fraction(5),
            (4, 3): Fraction(7), (1, 1): Fraction(1), (2, 2): Fraction(2),
            (3, 3): Fraction(3), (4, 4): Fraction(4)}
    from simspec.stargraph import Digraph
    P = _pairs_for_type(QQ, Digraph(4, [(4, 1), (2, 1), (2, 3)]), vals)
    C = canonicalize(P).canon

    def H(l, s):
        return entry_probe_poly(a, l, s)

    c = {pos: QQ.elem(v) for pos, v in vals.items()}
    displayed = {
        (3, 1): H(2, 1) * c[(3, 1)] - H(2, 3) * H(3, 1),
        (3, 2): H(2, 3) * c[(3, 2)] - H(2, 3) * H(3, 2) * H(2, 3),
        (4, 2): H(4, 1) * c[(4, 2)] - H(4, 2) * H(2, 1),
        (4, 3): alt_sum([H(4, 1), H(2, 1), H(2, 3)]) * c[(4, 3)] - H(4, 3),
    }
    expected_rank = {(3, 1): 0, (3, 2): 0, (4, 2): 0, (4, 3): 1}
    for pos, want_poly in displayed.items():
        probe = build_param_probe(C, *pos)
        assert probe.poly.expand() == want_poly
        assert probe.expected == expected_rank[pos]
        assert probe.evaluate(P) == expected_rank[pos]
    for i in range(1, 5):
        probe = build_param_probe(C, i, i)
        want = NcPoly.scalar(QQ, c[(i, i)], m=2) - H(i, i)
        assert probe.poly.expand() == want
        assert probe.evaluate(P) == (3 if not c[(i, i)].is_zero() else 0)


def test_param_probe_expected_rank_property(rng, field):
    for _ in range(15):
        n = rng.choice([2, 3, 4])
        if not field.is_rationals and field.p < n:
            continue
        P = random_simple_spectrum_pair(field, n, rng, height=4)
        C = canonicalize(P).canon
        R = C.reconstituted()
        for probe in param_probes(C):
            assert probe.evaluate(R) == probe.expected
            assert probe.evaluate(P) == probe.expected  # invariance
            assert probe.degree <= (n + 1) * (2 * n - 1)


def test_probe_abstract_invariance(rng):
    F7 = PrimeField(7)
    for _ in range(10):
        n = rng.choice([2, 3])
        P = random_simple_spectrum_pair(F7, n, rng)
        g = random_invertible(F7, n, rng)
        Q = MatrixPair(*conjugate(g, P.mats()))
        C = canonicalize(P).canon
        for probe in param_probes(C):
            assert probe.evaluate(P) == probe.evaluate(Q)


def test_orbit_eq_by_ranks_examples(rng):
    F7 = PrimeField(7)
    P = random_simple_spectrum_pair(F7, 3, rng)
    g = random_invertible(F7, 3, rng)
    assert orbit_eq_by_ranks(P, MatrixPair(*conjugate(g, P.mats()))).equal

    # worked counterexample pairs: separated by the (4,3) parameter probe
    a = [QQ.elem(v) for v in (0, 1, 2, 3)]
    mk = lambda v: MatrixPair(Mat.diag(QQ, a), Mat(QQ, [
        [0, 0, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0], [1, 0, v, 0]]))
    rep = orbit_eq_by_ranks(mk(1), mk(2))
    assert not rep.equal
    assert rep.probe.label == "param(4,3)"
    assert rep.value_a == 1 and rep.value_b == 2

    # diagonal parameter difference
    P = MatrixPair(Mat.diag(QQ, [0, 1]), Mat(QQ, [[1, 0], [0, 0]]))
    Q = MatrixPair(Mat.diag(QQ, [0, 1]), Mat(QQ, [[5, 0], [0, 0]]))
    rep = orbit_eq_by_ranks(P, Q)
    assert not rep.equal and rep.probe.label == "param(1,1)"
    assert (rep.value_a, rep.value_b) == (1, 2)


def test_orbit_eq_by_ranks_matches_canonical(rng):
    F7 = PrimeField(7)
    for _ in range(1000):
        n = rng.choice([2, 3, 4])
        P = random_simple_spectrum_pair(F7, n, rng)
        if rng.random() < 0.4:
            g = random_invertible(F7, n, rng)
            Q = MatrixPair(*conjugate(g, P.mats()))
        elif rng.random() < 0.5:
            # same canonical data except one parameter
            C = canonicalize(P).canon
            pos = rng.choice([p for p, _ in C.params])
            bumped = tuple((p, v + F7.one if p == pos else v) for p, v in C.params)
            Q = CanonicalPairPatch(C, bumped).reconstituted()
        else:
            Q = random_simple_spectrum_pair(F7, n, rng)
        assert orbit_eq_by_ranks(P, Q).equal == orbit_eq_canonical(P, Q)


def CanonicalPairPatch(C, new_params):
    from simspec.canonical import CanonicalPair
    return CanonicalPair(C.n, C.field, C.eigs, C.type_graph, C.star, new_params)


def test_rank_decider_on_exhaustive_canonical_family(rng):
    """Canonical pairs with {0,1} parameters at n = 3 over F5 (512 of them,
    eigenvalues fixed) are pairwise distinct orbits; the rank decider must
    say Equal exactly on the diagonal.  Verdicts are assembled stage by stage
    (sigma trivially equal, then the zeta vector, then the left argument's
    parameter probes) with the same probe evaluations the API performs."""
    F5 = PrimeField(5)
    family = []
    for G in enumerate_forests(3):
        star = star_from_forest(G)
        cells = star.star_positions()
        for bits in itertools.product((0, 1), repeat=len(cells)):
            family.append(_pairs_for_type(F5, G, dict(zip(cells, bits))))
    assert len(family) == sum(
        2 ** len(star_from_forest(G).star_positions()) for G in enumerate_forests(3))
    assert len(family) == 512
    canons = [canonicalize(P).canon for P in family]
    assert len(set(canons)) == len(canons)

    a = canons[0].eigs
    zprobes = [zeta_entry_probe(a, i, j)
               for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
    groups = {}
    for idx, P in enumerate(family):
        groups.setdefault(tuple(pr.evaluate(P) for pr in zprobes), []).append(idx)
    in_group = 0
    for members in groups.values():
        for i in members:
            probes = param_probes(canons[i])
            own = tuple(pr.evaluate(family[i]) for pr in probes)
            for j in members:
                got = own == tuple(pr.evaluate(family[j]) for pr in probes)
                assert got == (i == j)
                in_group += 1
    # pairs in different zeta groups are separated at stage 2, matching the
    # fact that all 488 canonical pairs sit in 488 distinct orbits
    assert in_group == sum(len(m) ** 2 for m in groups.values())

    # spot checks through the full APIs, brute force included
    for _ in range(30):
        i, j = rng.randrange(512), rng.randrange(512)
        assert orbit_eq_by_ranks(family[i], family[j]).equal == (i == j)
        assert orbit_eq_canonical(family[i], family[j]) == (i == j)
    from simspec.canonical import orbit_eq_brute
    i, j = rng.randrange(512), rng.randrange(511)
    assert orbit_eq_brute(family[i], family[i])
    assert not orbit_eq_brute(family[j], family[j + 1])


def test_orbit_eq_by_ranks_rationals(rng):
    for _ in range(10):
        P = random_simple_spectrum_pair(QQ, 3, rng, height=3)
        g = random_invertible(QQ, 3, rng, height=2)
        Q = MatrixPair(*conjugate(g, P.mats()))
        assert orbit_eq_by_ranks(P, Q).equal
        R = random_simple_spectrum_pair(QQ, 3, rng, height=3)
        assert orbit_eq_by_ranks(P, R).equal == orbit_eq_canonical(P, R)


def test_report_json_shape():
    P = MatrixPair(Mat.diag(QQ, [0, 1]), Mat.unit(QQ, 2, 2, 1))
    Q = MatrixPair(Mat.diag(QQ, [0, 1]), Mat.zeros(QQ, 2))
    rep = orbit_eq_by_ranks(P, Q)
    js = rep.to_json()
    assert js["verdict"] == "separated"
    assert js["witness"]["probe"]["kind"] == "zeta"
    assert js["probes"] == rep.probes_evaluated


def test_single_image_explicit_conjugator():
    # F = x1 + x2 on the 3x3 pairs: both images have unit coefficients, and
    # the displayed conjugator with alpha = beta = 1 carries F(A) to F(B)
    FA = Mat.unit(QQ, 3, 1, 2) + Mat.unit(QQ, 3, 1, 3)
    FB = Mat.unit(QQ, 3, 1, 2) + Mat.unit(QQ, 3, 3, 2)
    g = Mat(QQ, [[1, 1, 0], [0, 1, 1], [1, 0, 0]])
    assert conjugate(g, FA) == FB


def test_counterexample_single_image_quick():
    rep = verify_counterexample_single_image(fp_samples=200, q_samples=80,
                                             run_search=False)
    assert rep["ok"]
    assert rep["fields"]["F5"]["samples"] == 200
    assert rep["fields"]["QQ"]["samples"] == 80


def test_counterexample_single_image_search_small_field():
    rep = verify_counterexample_single_image(p=3, fp_samples=60, q_samples=30)
    assert rep["ok"]
    assert rep["search"]["invertible_scanned"] == 11232
    assert not rep["search"]["conjugator_found"]


def test_counterexample_sigma_zero_quick():
    rep = verify_counterexample_sigma_zero(samples=150)
    assert rep["ok"]
    assert rep["same_type"] and rep["param_difference"] == [(4, 3)]
    assert not rep["orbits_equal"]
    assert rep["star_rows"] == ["*000", "1*10", "***0", "1***"]
    with pytest.raises(ValueError):
        verify_counterexample_sigma_zero(alpha=1, beta=1)


def test_equal_verdict_requires_equal_canonical_forms(monkeypatch):
    """An equal verdict is reported only when both canonical forms agree: with
    parameter probes that cannot see the parameters, a pair differing in one
    parameter reads equal on every probe, and the decision refuses it."""
    A1 = Mat.diag(QQ, [0, 1])
    P = MatrixPair(A1, Mat(QQ, [[5, 1], [1, 0]]))
    Q = MatrixPair(A1, Mat(QQ, [[6, 1], [1, 0]]))
    assert not orbit_eq_by_ranks(P, Q).equal
    monkeypatch.setattr(separators, "build_param_probe",
                        lambda C, i, j: sigma_probe(C.n, 1))
    with pytest.raises(VerificationError):
        orbit_eq_by_ranks(P, Q)


def test_probe_on_a_pair_over_another_field_raises():
    """A zeta or rank probe refuses a pair over another field, with or
    without the pair's evaluator; a pair of another size over its own field
    is read like poly.eval."""
    rng = random.Random(3)
    F7 = PrimeField(7)
    P = random_simple_spectrum_pair(F7, 3, rng)
    C = canonicalize(P).canon
    probes = [zeta_entry_probe(C.eigs, 1, 2), zeta_entry_probe(C.eigs, 2, 1)] + param_probes(C)
    assert {probe.kind for probe in probes} == {"zeta", "rank"}
    for field in (PrimeField(11), QQ):
        R = random_simple_spectrum_pair(field, 3, rng)
        for probe in probes:
            with pytest.raises(FieldMismatchError):
                probe.evaluate(R)
            with pytest.raises(FieldMismatchError):
                probe.evaluate(R, ProbeEvaluator(R))
        sigma_probe(3, 2).evaluate(R)
    R = random_simple_spectrum_pair(F7, 4, rng)
    for probe in probes:
        M = probe.poly.eval(R.mats(), 4)
        assert probe.evaluate(R) == (zero_indicator(M) if probe.kind == "zeta" else rank(M))


# Each rank probe must read its expected value on its own pair, the
# separating probe included.  The script gives every rank probe an
# off-by-one expected value and runs under python -O, where assert
# statements are dropped: an equal and a rank-separated decision must both
# raise, and the CLI must exit 3 with nothing on stdout.
_BREAK_EXPECTED = """
import dataclasses
import sys
assert sys.flags.optimize == 1
import simspec.separators as separators
from simspec.canonical import MatrixPair
from simspec.cli import main
from simspec.errors import VerificationError
from simspec.fields import QQ
from simspec.matrices import Mat
real = separators.build_param_probe
def off_by_one(C, i, j):
    probe = real(C, i, j)
    return dataclasses.replace(probe, expected=probe.expected + 1)
separators.build_param_probe = off_by_one
A1 = Mat.diag(QQ, [0, 1])
P = MatrixPair(A1, Mat(QQ, [[5, 1], [1, 0]]))
for A2 in ([[5, 1], [1, 0]], [[6, 1], [1, 0]]):
    try:
        separators.orbit_eq_by_ranks(P, MatrixPair(A1, Mat(QQ, A2)))
    except VerificationError as exc:
        print("raised:", exc)
sys.exit(main(["orbit-eq", sys.argv[1], sys.argv[1], "--method", "rank"]))
"""


def test_wrong_expected_rank_raises_under_python_O(tmp_path):
    import simspec
    from simspec.serialize import dumps, pair_to_json

    P = MatrixPair(Mat.diag(QQ, [0, 1]), Mat(QQ, [[5, 1], [1, 0]]))
    path = tmp_path / "p.json"
    path.write_text(dumps(pair_to_json(P)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(simspec.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", _BREAK_EXPECTED, str(path)],
                          capture_output=True, text=True, env=env)
    assert proc.stdout.count("raised: rank probe param(") == 2, proc.stderr
    assert proc.returncode == 3, proc.stderr
    assert "internal verification failure" in proc.stderr
    assert proc.stdout.count("\n") == 2      # nothing on stdout from the CLI
