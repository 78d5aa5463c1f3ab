"""One fresh benchmark process: import simspec, make inputs, warm up, then time
whole rounds of one workload's operations, check every answer, and print one
JSON line of raw results for run.py.

    python3 perfbench/worker.py --root . --workload decide-fp --seed 1 \
        --segment 0 (--seconds 5 | --rounds 6) [--trace-out spans.json]

--seconds stops after the first whole round that brings the time spent in
the timed calls to that many seconds; --rounds runs exactly that many rounds.
"""

import argparse
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def import_simspec(root):
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import simspec
    if not os.path.abspath(simspec.__file__).startswith(src + os.sep):
        raise SystemExit("simspec imported from %s, not from %s"
                         % (simspec.__file__, src))
    return simspec


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--segment", type=int, required=True)
    length = ap.add_mutually_exclusive_group(required=True)
    length.add_argument("--seconds", type=float)
    length.add_argument("--rounds", type=int)
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    simspec = import_simspec(args.root)
    tracer = None
    if args.trace_out:
        import tracing
        tracer = tracing.Tracer()
        tracer.install(simspec)
    wl = workloads.WORKLOADS[args.workload](simspec)
    tag = "%s:%d:%d" % (wl.name, args.seed, args.segment)

    # warm-up calls run outside any operation span, so a tracer ignores them
    for op in wl.warmup(random.Random(tag + ":warmup")):
        try:
            wl.call(op)
        except Exception:  # counted where it matters, in the timed rounds
            pass
    call = wl.call if tracer is None else tracer.wrap("bench.op", wl.call, root=True)
    cache = simspec.idempotents._entry_probe_cached
    cache_before = cache.cache_info()

    clock = time.perf_counter_ns
    lat_ns, problems, failures = [], [], []
    attempted = failed = probes = 0
    ops = wl.round(random.Random(tag + ":0"))
    t_first = time.perf_counter()
    last, rounds = {}, 0
    while True:
        for op in ops:
            attempted += 1
            t0 = clock()
            try:
                res = call(op)
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                failures.append("%s failed: %r" % (op.kind, exc))
                continue
            lat_ns.append(clock() - t0)
            ans = wl.answer(op, res)
            why = wl.check(op, ans)
            if why:
                problems.append("%s: %s" % (op.kind, why))
            probes += ans.get("probes", 0)
            last[op.kind] = (op, ans)
        rounds += 1
        if args.rounds is not None:
            if rounds >= args.rounds:
                break
        elif sum(lat_ns) >= args.seconds * 1e9:
            break
        ops = wl.round(random.Random("%s:%d" % (tag, rounds)))
    cache_after = cache.cache_info()

    # each checker must reject deliberately wrong answers to real operations
    rejected = 0
    for op, ans in last.values():
        for label, bad in wl.wrong_answers(op, ans).items():
            if wl.check(op, bad) is None:
                problems.append("checker accepted a %s (%s)" % (label, op.kind))
            else:
                rejected += 1

    out = {
        "t_first": t_first,
        "lat_ns": lat_ns,
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "problems": problems[:20],
        "failures": failures[:20],
        "wrong_answers_rejected": rejected,
        "probes": probes,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "lane": "numba" if simspec.kernels.USE_NUMBA else "numpy",
        "cache_hits": cache_after.hits - cache_before.hits,
        "cache_misses": cache_after.misses - cache_before.misses,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_totals()
        out["counts"] = dict(tracer.counts)
        tracer.dump(args.trace_out)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
