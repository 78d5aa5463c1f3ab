"""Command-line surface.

Subcommands: canonicalize, orbit-eq, type-eq, forests, staircase, verify,
probes.  All output is JSON on stdout.  Exit codes: 0 success/equal,
1 separated/unequal, 2 input error, 3 internal verification failure.

SIMSPEC_FIELD supplies the field for pair files that omit one ("Q" or "F7").
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys

from .canonical import (
    MatrixPair,
    canonicalize,
    orbit_eq_brute,
    orbit_eq_canonical,
)
from .errors import InputFormatError, ResourceGuardError, SimspecError, VerificationError
from .fields import QQ, PrimeField, parse_field
from .matrices import conjugate, order_gl, rank
from .sampling import random_invertible, random_simple_spectrum_pair
from .separators import (
    orbit_eq_by_ranks,
    probe_stages,
    type_separation,
    verify_counterexample_sigma_zero,
    verify_counterexample_single_image,
)
from .serialize import canon_result_to_json, dumps, pair_from_json
from .staircase import ThreeDiagSeq, cert_matrix, staircase_cert, verify_cert
from .stargraph import FWD, REV, enumerate_forests, star_from_forest
from . import serialize

EXIT_OK = 0
EXIT_SEPARATED = 1
EXIT_INPUT = 2
EXIT_DEFECT = 3


def _default_field():
    spec = os.environ.get("SIMSPEC_FIELD", "").strip()
    if not spec:
        return None
    return parse_field(spec)


def _load_pair(path: str) -> MatrixPair:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputFormatError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError("%s:%d:%d: %s" % (path, exc.lineno, exc.colno, exc.msg)) from exc
    return pair_from_json(obj, default_field=_default_field())


def _emit(obj) -> None:
    print(dumps(obj))


def _positive(text: str) -> int:
    """argparse type of --n and --trials: an int >= 1."""
    if (value := int(text)) < 1:
        raise argparse.ArgumentTypeError("%s is not >= 1" % text)
    return value


# verify --suite staircase makes 2^(K+2) - 4 certificate checks, every
# pattern up to length K over two fields; K = 12 (16,380 checks) takes about
# 11 s on one core, and each K more multiplies that by about 2.5
MAX_STAIRCASE_SUITE_K = 12
# staircase --k K takes exact ranks of (K+1) x (K+1) certificate matrices;
# the slowest patterns at K = 255 take 2 to 3 s over Q, growing as K^3
MAX_STAIRCASE_K = 255


def _at_most(limit: int):
    """argparse type of a bounded --k: an int from 1 to limit."""
    def bounded_int(text: str) -> int:
        if (value := _positive(text)) > limit:
            raise argparse.ArgumentTypeError("%s is above %d" % (text, limit))
        return value
    return bounded_int


def _prime(text: str) -> int:
    """argparse type of --p: a modulus that PrimeField accepts."""
    try:
        return PrimeField(int(text)).p
    except (ValueError, ResourceGuardError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _brute_feasible(n: int, p: int, max_order: int) -> bool:
    """Whether a suite or method list that includes the brute oracle runs it."""
    return n <= 3 and order_gl(n, p) <= max_order


def _cmd_canonicalize(args) -> int:
    res = canonicalize(_load_pair(args.pair))
    _emit(canon_result_to_json(res))
    return EXIT_OK


def _cmd_orbit_eq(args) -> int:
    P = _load_pair(args.a)
    Q = _load_pair(args.b)
    if args.method == "brute" and P.field.is_rationals:
        raise InputFormatError("brute-force search needs a finite field")
    out = {"method": args.method}
    verdicts = {}
    if args.method in ("canonical", "all"):
        verdicts["canonical"] = orbit_eq_canonical(P, Q)
    if args.method in ("rank", "all"):
        rep = orbit_eq_by_ranks(P, Q)
        verdicts["rank"] = rep.equal
        out["rank_report"] = rep.to_json()
    if args.method == "brute" or (args.method == "all" and not P.field.is_rationals
                                  and _brute_feasible(P.n, P.field.p, args.max_gl_order)):
        verdicts["brute"] = orbit_eq_brute(P, Q, max_order=args.max_gl_order)
    out["verdicts"] = verdicts
    values = set(verdicts.values())
    out["equal"] = values == {True}
    _emit(out)
    if len(values) > 1:
        print("method disagreement: %r" % (verdicts,), file=sys.stderr)
        return EXIT_DEFECT
    return EXIT_OK if out["equal"] else EXIT_SEPARATED


def _cmd_type_eq(args) -> int:
    rep = type_separation(_load_pair(args.a), _load_pair(args.b))
    _emit(rep.to_json())
    return EXIT_OK if rep.equal else EXIT_SEPARATED


def _cmd_forests(args) -> int:
    forests = enumerate_forests(args.n)
    out = {"n": args.n, "count": len(forests), "forests": []}
    for G in forests:
        item = serialize.digraph_to_json(G)
        if args.stars:
            item["star"] = star_from_forest(G).text_rows()
        out["forests"].append(item)
    _emit(out)
    return EXIT_OK


def _cmd_staircase(args) -> int:
    flags = []
    for ch in args.delta.upper():
        if ch not in (FWD, REV):
            raise InputFormatError("delta must be a string over {F, R}")
        flags.append(ch)
    if len(flags) != args.k:
        raise InputFormatError("delta length %d != k = %d" % (len(flags), args.k))
    field = parse_field(args.field) if args.field else (_default_field() or QQ)
    S = ThreeDiagSeq(tuple(range(1, args.k + 2)), tuple(flags), args.k + 1)
    cert = staircase_cert(S)
    alphas = [field.parse(tok) for tok in args.alpha.split(",")] if args.alpha \
        else [field.elem(v) for v in (-1, 0, 1, 2)]
    table = []
    for a in alphas:
        expected = cert.expected_rank(a, field)
        actual = rank(cert_matrix(S, cert, a, field))
        table.append({"alpha": serialize.scalar_to_json(a),
                      "expected_rank": expected, "rank": actual,
                      "ok": expected == actual})
    out = {"k": args.k, "delta": "".join(flags), "certificate": cert.to_json(),
           "field": "Q" if field.is_rationals else "F%d" % field.p,
           "table": table, "ok": all(row["ok"] for row in table)}
    _emit(out)
    return EXIT_OK if out["ok"] else EXIT_DEFECT


def _cmd_probes(args) -> int:
    P = _load_pair(args.pair)
    res = canonicalize(P)
    C = res.canon
    out = {"n": C.n, "type_arrows": [list(a) for a in C.type_graph.sorted_arrows()],
           "star": C.star.text_rows(),
           "probes": [p.to_json() for stage in probe_stages(C) for p in stage]}
    _emit(out)
    return EXIT_OK


def _verify_staircase(args) -> dict:
    field_p = PrimeField(args.p)
    total = failures = 0
    for k in range(1, args.k + 1):
        for delta in itertools.product((FWD, REV), repeat=k):
            S = ThreeDiagSeq(tuple(range(1, k + 2)), delta, k + 1)
            cert = staircase_cert(S)
            for field in (QQ, field_p):
                total += 1
                if not verify_cert(S, cert, [field.elem(v) for v in (-1, 0, 1, 2)], field):
                    failures += 1
    return {"suite": "staircase", "max_k": args.k, "fields": ["Q", "F%d" % args.p],
            "checks": total, "failures": failures, "ok": failures == 0}


def _verify_counterexamples(args) -> dict:
    scale = 20 if args.quick else 1
    first = verify_counterexample_single_image(
        p=5, fp_samples=max(50, 10_000 // scale),
        q_samples=max(20, 1_000 // scale), seed=args.seed,
        run_search=not args.quick)
    second = verify_counterexample_sigma_zero(
        samples=max(50, 2_000 // scale), seed=args.seed)
    return {"suite": "counterexamples",
            "single_image": first, "sigma_zero": second,
            "ok": first["ok"] and second["ok"]}


def _verify_oracle(args) -> dict:
    field = PrimeField(args.p)
    rng = random.Random(args.seed)
    brute_feasible = _brute_feasible(args.n, args.p, args.max_gl_order)
    agree = 0
    for _ in range(args.trials):
        P = random_simple_spectrum_pair(field, args.n, rng)
        if rng.random() < 0.5:
            g = random_invertible(field, args.n, rng)
            Q = MatrixPair(*conjugate(g, P.mats()))
        else:
            Q = random_simple_spectrum_pair(field, args.n, rng)
        want = orbit_eq_canonical(P, Q)
        verdicts = [orbit_eq_by_ranks(P, Q).equal]
        if brute_feasible:
            verdicts.append(orbit_eq_brute(P, Q, max_order=args.max_gl_order))
        if all(v == want for v in verdicts):
            agree += 1
    return {"suite": "oracle", "n": args.n, "p": args.p, "trials": args.trials,
            "seed": args.seed, "brute_included": brute_feasible,
            "agreements": agree, "ok": agree == args.trials}


def _cmd_verify(args) -> int:
    if args.suite == "staircase":
        out = _verify_staircase(args)
    elif args.suite == "counterexamples":
        out = _verify_counterexamples(args)
    else:
        out = _verify_oracle(args)
    _emit(out)
    return EXIT_OK if out["ok"] else EXIT_DEFECT


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="simspec",
        description="Exact canonical forms and separating rank invariants "
                    "for matrix pairs with simple first spectrum.")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("canonicalize", help="canonical pair and witness for a pair file")
    c.add_argument("pair")
    c.set_defaults(func=_cmd_canonicalize)

    c = sub.add_parser("orbit-eq", help="decide orbit equality of two pairs")
    c.add_argument("a")
    c.add_argument("b")
    c.add_argument("--method", choices=["canonical", "rank", "brute", "all"],
                   default="canonical")
    c.add_argument("--max-gl-order", type=int, default=20_000_000)
    c.set_defaults(func=_cmd_orbit_eq)

    c = sub.add_parser("type-eq", help="separate types via sigma and zeta probes")
    c.add_argument("a")
    c.add_argument("b")
    c.set_defaults(func=_cmd_type_eq)

    c = sub.add_parser("forests", help="enumerate directed forests")
    c.add_argument("--n", type=_positive, required=True, help="1 to 5")
    c.add_argument("--stars", action="store_true")
    c.set_defaults(func=_cmd_forests)

    c = sub.add_parser("staircase", help="certificate and rank table for a flag pattern")
    c.add_argument("--k", type=_at_most(MAX_STAIRCASE_K), required=True,
                   help="1 to %d" % MAX_STAIRCASE_K)
    c.add_argument("--delta", required=True, help="string over {F,R} of length k")
    c.add_argument("--alpha", help="comma-separated scalars")
    c.add_argument("--field", help='"Q" or "F<p>"')
    c.set_defaults(func=_cmd_staircase)

    c = sub.add_parser("verify", help="run a verification suite")
    c.add_argument("--suite", choices=["staircase", "counterexamples", "oracle"],
                   required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--p", type=_prime, default=7)
    c.add_argument("--n", type=_positive, default=3)
    c.add_argument("--k", type=_at_most(MAX_STAIRCASE_SUITE_K), default=5,
                   help="1 to %d" % MAX_STAIRCASE_SUITE_K)
    c.add_argument("--trials", type=_positive, default=50)
    c.add_argument("--quick", action="store_true")
    c.add_argument("--max-gl-order", type=int, default=20_000_000)
    c.set_defaults(func=_cmd_verify)

    c = sub.add_parser("probes", help="probe set for a pair's type")
    c.add_argument("pair")
    c.set_defaults(func=_cmd_probes)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except (AssertionError, VerificationError) as exc:
        print("internal verification failure: %s" % exc, file=sys.stderr)
        return EXIT_DEFECT
    except SimspecError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
