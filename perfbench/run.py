#!/usr/bin/env python3
"""simspec benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload canon-fp --seed 1 --seconds 20 --trace 0

Run it from the repository root; it benchmarks the simspec under ./src.
Workloads: canon-fp, decide-fp, decide-q, brute-fp (see perfbench/README.md).

--trace 0 runs the workload in SEGMENTS fresh worker processes one after
another, each timing whole rounds until the segments together have spent
--seconds inside the timed calls.  It reports ops_per_s, op_p50_ms,
op_p90_ms, peak_rss_mb and setup_s, the median over the segments of the time
from spawning a worker to its first timed operation.

--trace 1 runs a fixed number of rounds once untraced and once with spans
around every public function of each simspec module, and reports the
per-layer metrics named in BENCHMARK.json.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The same object, and the span dump of a traced run, are written
under perfbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SEGMENTS = 5
# rounds of a traced run, each pass taking 3 to 10 s untraced
TRACE_ROUNDS = {"canon-fp": 45, "decide-fp": 5, "decide-q": 2, "brute-fp": 3}
IMPORT_SAMPLES = 5


def deadline_s(seconds):
    """Wall time a run may take: set-ups and answer checks add time in
    proportion to the timed seconds (1.7 s per timed second on canon-fp), so
    allow three times them, and 110 s more for the fixed parts; 170 s at
    --seconds 20."""
    return 110 + 3 * seconds


class BenchError(Exception):
    pass


def worker_env():
    # one thread per process, and set/dict order fixed so traced counts repeat
    return dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
                OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


def spawn(cmd, deadline):
    """Run cmd to its end; returns (spawn time, stdout)."""
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=worker_env(),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("%s timed out" % " ".join(cmd[1:3])) from exc
    if proc.returncode != 0:
        raise BenchError("%s exited %d:\n%s" % (" ".join(cmd), proc.returncode,
                                                proc.stderr[-4000:]))
    return t_spawn, proc.stdout


def run_worker(args, deadline, segment, seconds=None, rounds=None, trace_out=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", os.getcwd(),
           "--workload", args.workload, "--seed", str(args.seed),
           "--segment", str(segment)]
    cmd += ["--seconds", repr(seconds)] if rounds is None else ["--rounds", str(rounds)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    t_spawn, stdout = spawn(cmd, deadline)
    res = json.loads(stdout.strip().splitlines()[-1])
    res["setup_s"] = res["t_first"] - t_spawn
    return res


def verdict(results):
    """correct speaks of the operations that did not fail; failed counts the rest."""
    problems = [p for r in results for p in r["problems"]]
    problems += ["segment %d: no wrong answer was fed to its checker" % k
                 for k, r in enumerate(results) if not r["wrong_answers_rejected"]]
    for p in problems:
        print("problem: " + p, file=sys.stderr)
    for f in [f for r in results for f in r["failures"]]:
        print("failure: " + f, file=sys.stderr)
    return {"correct": not problems,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results)}


def end_to_end(args, deadline):
    segs, spent = [], 0.0
    for k in range(SEGMENTS):
        target = args.seconds * (k + 1) / SEGMENTS - spent
        segs.append(run_worker(args, deadline, k, seconds=max(target, 1e-3)))
        spent += sum(segs[-1]["lat_ns"]) / 1e9
    lat = sorted(x for s in segs for x in s["lat_ns"])
    if len(lat) < 2:
        raise BenchError("fewer than two timed operations")
    setups = [s["setup_s"] for s in segs]
    metrics = {
        "ops_per_s": len(lat) / spent,
        "op_p50_ms": statistics.median(lat) / 1e6,
        "op_p90_ms": statistics.quantiles(lat, n=10)[-1] / 1e6,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(s["rss_kb"] for s in segs) / 1024,
    }
    print("%s seed %d: %d ops in %d rounds, %.2f s timed over %d segments, "
          "lane %s; setups %s s" % (
              args.workload, args.seed, len(lat), sum(s["rounds"] for s in segs),
              spent, SEGMENTS, segs[0]["lane"], " ".join("%.3f" % x for x in setups)))
    return segs, metrics


def import_ms(deadline):
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            "import simspec.cli; print((time.perf_counter() - t) * 1e3)")
    samples = [float(spawn([sys.executable, "-c", code], deadline)[1])
               for _ in range(IMPORT_SAMPLES)]
    return statistics.median(samples)


def per_layer(args, deadline, names, outdir):
    rounds = TRACE_ROUNDS[args.workload]
    plain = run_worker(args, deadline, 0, rounds=rounds)
    spans = os.path.join(outdir, "spans-%s-seed%d.json" % (args.workload, args.seed))
    traced = run_worker(args, deadline, 0, rounds=rounds, trace_out=spans)
    ops = len(traced["lat_ns"])
    layers, counts = traced["layers"], traced["counts"]

    def ratio(a, b):
        return a / b if b else 0.0

    special = {
        "fields.FieldElement.new.calls_per_op":
            counts["fields.FieldElement.new"] / ops,
        "kernels.eval_words_mod.letters_per_op":
            counts.get("kernels.eval_words_mod.letters", 0) / ops,
        "kernels.conjugator_search_mod.invertible_ratio":
            ratio(counts.get("kernels.conjugator_search_mod.invertible", 0),
                  counts.get("kernels.conjugator_search_mod.candidates", 0)),
        "idempotents.entry_probe.cache_hit_ratio":
            ratio(traced["cache_hits"], traced["cache_hits"] + traced["cache_misses"]),
        "separators.probes_evaluated_per_op": traced["probes"] / ops,
        "cli.import_ms": import_ms(deadline),
        "trace.traced_ops_per_s": ops / (sum(traced["lat_ns"]) / 1e9),
        "trace.untraced_ops_per_s": len(plain["lat_ns"]) / (sum(plain["lat_ns"]) / 1e9),
    }
    metrics = {}
    for name in names:
        layer, _, stat = name.rpartition(".")
        calls, self_ns = layers.get(layer, (0, 0))
        if name in special:
            metrics[name] = special[name]
        elif stat == "calls_per_op":
            metrics[name] = calls / ops
        elif stat == "self_ms_per_op":
            metrics[name] = self_ns / 1e6 / ops
        else:
            raise BenchError("no rule computes per-layer metric %s" % name)
    print("%s seed %d traced: %d ops in %d rounds; traced %.2f ops/s vs untraced "
          "%.2f ops/s; spans in %s" % (
              args.workload, args.seed, ops, rounds,
              special["trace.traced_ops_per_s"], special["trace.untraced_ops_per_s"],
              os.path.relpath(spans)))
    return [plain, traced], metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + deadline_s(args.seconds)

    if not os.path.isfile(os.path.join("src", "simspec", "__init__.py")):
        print("no src/simspec here: run from the root of a simspec checkout",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        print("unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    try:
        if args.trace:
            results, values = per_layer(args, deadline, [m["name"] for m in declared],
                                        outdir)
        else:
            results, values = end_to_end(args, deadline)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    if set(values) != {m["name"] for m in declared}:
        print("metrics %s differ from BENCHMARK.json" % sorted(values), file=sys.stderr)
        return 1
    out = verdict(results)
    out["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                      for m in declared}
    line = json.dumps(out)
    with open(os.path.join(outdir, "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
