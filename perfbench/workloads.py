"""Inputs, operations and answer checks of the four workloads.

Every input is made here from a seeded ``random.Random``; simspec only ever
sees the finished matrices.  Every answer is checked against the benchmark's
own arithmetic (``exact``) or against what the construction of the input
implies, never against a stored copy of an earlier output.

A workload yields *rounds*: fixed lists of operations whose kinds and sizes
are the same in every round, so that each run attempts whole rounds of the
same mix whatever its seed or length.
"""

from collections import namedtuple
from fractions import Fraction

import exact

GL3_F5_ORDER = (5 ** 3 - 1) * (5 ** 3 - 5) * (5 ** 3 - 25)  # 1,488,000


# one public call: ``kind`` labels its place in the round, ``args`` are the
# simspec pairs passed in, ``spec`` holds what the checker needs
Op = namedtuple("Op", "kind args spec")


# -- input making --------------------------------------------------------------

def _scalar(rng, p, height):
    if p:
        return rng.randrange(p)
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def random_matrix(rng, n, p, height=9):
    return [[_scalar(rng, p, height) for _ in range(n)] for _ in range(n)]


def random_invertible(rng, n, p):
    """A conjugator.  Over Q it is unimodular, a shuffled product of 2n
    elementary row operations with multipliers +-1, so conjugating keeps the
    denominators of the input and its heights close to the chosen ones."""
    if p:
        while True:
            h = random_matrix(rng, n, p)
            if exact.det(h, p) != 0:
                return h
    h = exact.diag([Fraction(1)] * n, None)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        h[i] = [a + c * b for a, b in zip(h[i], h[j])]
    rng.shuffle(h)
    return h


def eigen_values(rng, n, p):
    vals = sorted(rng.sample(range(p) if p else range(-2 * n, 2 * n + 1), n))
    return vals if p else [Fraction(v) for v in vals]


def nonzero(rng, p, height):
    while True:
        x = _scalar(rng, p, height)
        if x != 0:
            return x


# -- checks --------------------------------------------------------------------

def _canon_answer(res):
    C = res.canon
    return {
        "eigs": [e.value for e in C.eigs],
        "arrows": sorted(C.type_graph.arrows),
        "star": list(C.star.text_rows()),
        "params": [(pos, v.value) for pos, v in C.params],
        "g": [[e.value for e in row] for row in res.g.rows],
    }


def _canon_data(ans):
    return (tuple(ans["eigs"]), tuple(ans["arrows"]), tuple(ans["star"]),
            tuple(ans["params"]))


def check_canonical(spec, ans):
    """None if ``ans`` is a correct canonical form of the pair, else why not."""
    p, n = spec["p"], spec["n"]
    if ans["eigs"] != spec["eigs"]:
        return "eigenvalues differ from the sorted values A1 was built from"
    arrows = [tuple(a) for a in ans["arrows"]]
    if len(exact.greedy_forest(n, lambda i, j: (i, j) in arrows)) != len(arrows):
        return "type graph is not a forest"
    if tuple(ans["star"]) != exact.star_pattern(n, arrows):
        return "star pattern is not the canonical pattern of the type forest"
    stars = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
             if ans["star"][i - 1][j - 1] == "*"]
    params = dict((tuple(pos), v) for pos, v in ans["params"])
    if sorted(params) != stars:
        return "parameters do not sit exactly at the * cells"
    C2 = [[{"1": 1, "0": 0}.get(ans["star"][i][j], None) for j in range(n)]
          for i in range(n)]
    for (i, j), v in params.items():
        C2[i - 1][j - 1] = v
    support = exact.greedy_forest(n, lambda i, j: C2[i - 1][j - 1] != 0)
    if sorted(support) != sorted(arrows):
        return "canonical A2 does not reproduce its type forest"
    g = ans["g"]
    if exact.det(g, p) == 0:
        return "witness is singular"
    A1, A2 = spec["pair"]
    if exact.matmul(g, A1, p) != exact.matmul(exact.diag(ans["eigs"], p), g, p):
        return "g A1 != diag(eigs) g"
    if exact.matmul(g, A2, p) != exact.matmul(C2, g, p):
        return "g A2 != C2 g"
    # the first correct answer of a group is the reference for its conjugates
    ref = spec["group"].setdefault("ref", _canon_data(ans))
    if ref != _canon_data(ans):
        return "a conjugate of the input has other canonical data"
    return None


def check_decision(spec, ans):
    if ans["equal"] != spec["equal"]:
        return "verdict %s, built to be %s" % (ans["equal"], spec["equal"])
    if spec["equal"]:
        if ans["probes"] != spec["probes"]:
            return "%d probes evaluated on an equal pair, expected %d" % (
                ans["probes"], spec["probes"])
    elif ans["probe_kind"] != spec["probe_kind"]:
        return "separated by a %s probe, expected %s" % (
            ans["probe_kind"], spec["probe_kind"])
    return None


def check_conjugator(spec, ans):
    p = spec["p"]
    if ans["count"] != GL3_F5_ORDER:
        return "scanned %d invertible matrices, |GL_3(F_5)| = %d" % (
            ans["count"], GL3_F5_ORDER)
    g = ans["g"]
    if not spec["equal"]:
        return None if g is None else "conjugator returned for unequal pairs"
    if g is None:
        return "no conjugator found for conjugate pairs"
    (P1, P2), (Q1, Q2) = spec["pairs"]
    if exact.det(g, p) == 0:
        return "witness is singular"
    if exact.matmul(g, P1, p) != exact.matmul(Q1, g, p) or \
            exact.matmul(g, P2, p) != exact.matmul(Q2, g, p):
        return "g P != Q g"
    return None


def _perturb(g, p):
    bad = [list(row) for row in g]
    bad[0][0] = (bad[0][0] + 1) % p
    return bad


# -- workloads -----------------------------------------------------------------

class CanonFp:
    """canonicalize on the traffic of acceptance criterion 1: for p = 7 and
    p = 11 and n = 2..5, a random pair followed by five conjugates of it,
    which must all give the pair's canonical data."""

    name = "canon-fp"
    sizes = [(p, n) for p in (7, 11) for n in (2, 3, 4, 5)]
    conjugates = 5

    def __init__(self, api):
        self.api = api

    def round(self, rng):
        ops = []
        for p, n in self.sizes:
            field = self.api.PrimeField(p)
            eigs = eigen_values(rng, n, p)
            g = random_invertible(rng, n, p)
            A1 = exact.conjugate(g, [exact.diag(eigs, p)], p)[0]
            A2 = random_matrix(rng, n, p)
            group = {}
            pairs = [(A1, A2)] + [
                tuple(exact.conjugate(random_invertible(rng, n, p), [A1, A2], p))
                for _ in range(self.conjugates)]
            for X1, X2 in pairs:
                P = self.api.MatrixPair(self.api.Mat(field, X1),
                                        self.api.Mat(field, X2))
                ops.append(Op("n%d-F%d" % (n, p), (P,),
                              {"p": p, "n": n, "eigs": eigs,
                               "pair": (X1, X2), "group": group}))
        return ops

    def warmup(self, rng):
        return self.round(rng)

    def call(self, op):
        return self.api.canonicalize(*op.args)

    def answer(self, op, res):
        return _canon_answer(res)

    def check(self, op, ans):
        return check_canonical(op.spec, ans)

    def wrong_answers(self, op, ans):
        swapped = dict(ans, eigs=[ans["eigs"][1], ans["eigs"][0]] + ans["eigs"][2:])
        return {"swapped eigenvalues": swapped,
                "perturbed witness": dict(ans, g=_perturb(ans["g"], op.spec["p"]))}


def related_pairs(rng, p, n, height, kind):
    """Two pairs conjugated by their own random h from eigenbasis pairs
    (diag(a), A2) and (diag(a), B2), where B2 is A2 with ``kind`` applied:

    * equal: B2 = A2, so the pairs are conjugate and every probe is evaluated;
    * param-diag: the last diagonal entry changed, a torus invariant on the
      last * cell, so the types agree and the last rank probe separates;
    * param-cycle: A2_12 scaled, which changes the cycle product A2_12 A2_21,
      so the types agree and an early rank probe separates;
    * type: A2_12, the first arrow of the type forest, set to 0, so the
      support and the type change and a zeta probe separates.

    A2_12 and A2_21 are nonzero, so (1, 2) is always the first arrow.
    """
    eigs = eigen_values(rng, n, p)
    D = exact.diag(eigs, p)
    A2 = random_matrix(rng, n, p, height)
    A2[0][1] = nonzero(rng, p, height)
    A2[1][0] = nonzero(rng, p, height)
    B2 = [list(row) for row in A2]
    spec = {"equal": kind == "equal", "probe_kind": None}
    if kind == "equal":
        arrows = exact.greedy_forest(n, lambda a, b: A2[a - 1][b - 1] != 0)
        # n sigma probes, n(n-1) zeta probes, one rank probe per * cell
        spec["probes"] = n * n + "".join(exact.star_pattern(n, arrows)).count("*")
    elif kind == "param-diag":
        spec["probe_kind"] = "rank"
        B2[-1][-1] = exact.red(B2[-1][-1] + nonzero(rng, p, height), p)
    elif kind == "param-cycle":
        spec["probe_kind"] = "rank"
        B2[0][1] = exact.red(B2[0][1] * (rng.randrange(2, p) if p else 2), p)
    else:
        spec["probe_kind"] = "zeta"
        B2[0][1] = 0 if p else Fraction(0)
    P = exact.conjugate(random_invertible(rng, n, p), [D, A2], p)
    Q = exact.conjugate(random_invertible(rng, n, p), [D, B2], p)
    return P, Q, spec


class _PairWorkload:
    """Operations on two related pairs; ``cases`` lists (p, n, height, kind),
    p None for Q, height bounding numerators and denominators over Q."""

    def __init__(self, api):
        self.api = api

    def op(self, rng, p, n, height, kind):
        P, Q, spec = related_pairs(rng, p, n, height, kind)
        spec.update(p=p, pairs=(P, Q))
        field = self.api.PrimeField(p) if p else self.api.QQ
        args = tuple(self.api.MatrixPair(self.api.Mat(field, X1),
                                         self.api.Mat(field, X2))
                     for X1, X2 in (P, Q))
        return Op("%s-n%d-%s" % (kind, n, "F%d" % p if p else "Q%d" % height),
                  args, spec)

    def round(self, rng, cases=None):
        return [self.op(rng, *case) for case in cases or self.cases]


class _Decide(_PairWorkload):
    """orbit_eq_by_ranks on equal, param-changed and type-changed pairs."""

    def call(self, op):
        return self.api.orbit_eq_by_ranks(*op.args)

    def answer(self, op, res):
        return {"equal": res.equal, "probes": res.probes_evaluated,
                "probe_kind": None if res.probe is None else res.probe.kind}

    def check(self, op, ans):
        return check_decision(op.spec, ans)

    def wrong_answers(self, op, ans):
        return {"flipped verdict": dict(ans, equal=not ans["equal"])}


class DecideFp(_Decide):
    name = "decide-fp"
    cases = [(p, n, 0, kind) for p in (7, 11) for n in (3, 4, 5)
             for kind in ("equal", "param-diag" if p == 7 else "param-cycle", "type")]

    def warmup(self, rng):
        return self.round(rng, [c for c in self.cases if c[1] == 3])


class DecideQ(_Decide):
    name = "decide-q"
    # equal, param and type a third each at every n; heights 9 and 999 alternate
    cases = [(None, 2, 9, "equal"), (None, 2, 999, "param-diag"), (None, 2, 9, "type"),
             (None, 3, 999, "equal"), (None, 3, 9, "param-cycle"), (None, 3, 999, "type"),
             (None, 4, 9, "equal"), (None, 4, 999, "param-diag"), (None, 4, 9, "type")]

    def warmup(self, rng):
        return self.round(rng, self.cases[:3])


class BruteFp(_PairWorkload):
    """find_conjugator over GL_3(F_5), the exhaustive vectorized search, on one
    conjugate pair and one unequal pair per torus invariant that the decide
    workloads change: a diagonal entry, a cycle product and the support."""

    name = "brute-fp"
    cases = [(5, 3, 0, kind) for kind in ("equal", "param-diag", "param-cycle", "type")]

    def warmup(self, rng):
        # the same vectorized kernel on the 3^9 candidates of GL_3(F_3)
        return self.round(rng, [(3, 3, 0, "equal")])

    def call(self, op):
        return self.api.find_conjugator(*op.args)

    def answer(self, op, res):
        g, count = res
        return {"count": count,
                "g": None if g is None else [[e.value for e in row] for row in g.rows]}

    def check(self, op, ans):
        return check_conjugator(op.spec, ans)

    def wrong_answers(self, op, ans):
        out = {"invertible count off by one": dict(ans, count=ans["count"] + 1)}
        if ans["g"] is not None:
            out["perturbed witness"] = dict(ans, g=_perturb(ans["g"], op.spec["p"]))
        return out


WORKLOADS = {w.name: w for w in (CanonFp, DecideFp, DecideQ, BruteFp)}
