#!/usr/bin/env python3
"""Multi-run modes of bench/perf/run.sh (see bench/perf/README.md).

  ledger.py all       --bin B --root R [--seed N] [--seconds S] -- BENCH_ARGS
  ledger.py traced    --bin B --root R [--seed N] [--seconds S] -- BENCH_ARGS
  ledger.py calibrate --bin B --root R [--runs N] [--seconds S] -- BENCH_ARGS

`all` runs every workload once. `traced` runs each workload untraced, then
traced, and prints the layer table with the tracing overhead on every
end-to-end metric. `calibrate` runs each workload --runs times with a new
seed each time, alternating the workload order between rounds; it writes
each metric's median and quartiles to bench/perf/baseline.json and sets
each end-to-end bound in BENCHMARK.json to max(5%, 3 x the widest
interquartile spread / median over the workloads), capped at 25%, with
quartiles taken as statistics.quantiles(values, n=4).
"""
import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys

WORKLOADS = ["query-topk", "ingest-arrivals", "offline-encode", "train-epoch"]


def bench_run(args, workload, seed, trace):
    cmd = [args.bin, "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(trace)] + args.bench
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").splitlines()
    print("\n".join(lines[:-1]), flush=True)
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit(f"ledger: {workload} seed {seed} failed (exit {proc.returncode})")
    return result


def results_file(args, workload, seed, traced):
    results_dir = args.bench[args.bench.index("--results_dir") + 1]
    name = f"{workload}-seed{seed}{'-traced' if traced else ''}.json"
    with open(os.path.join(results_dir, name)) as f:
        return json.load(f)


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median if median else 0.0


def cmd_all(args):
    for workload in WORKLOADS:
        bench_run(args, workload, args.seed, 0)


def cmd_traced(args):
    for workload in WORKLOADS:
        bench_run(args, workload, args.seed, 0)
        bench_run(args, workload, args.seed, 1)
        plain = results_file(args, workload, args.seed, False)
        traced = results_file(args, workload, args.seed, True)
        print(f"\n== {workload}: layers (seed {args.seed}) ==")
        for name, layer in traced["layers"].items():
            print(f"  {name:34s} {layer['value']:14.6g} {layer['unit']:6s} "
                  f"moves {layer['moves']}")
        print("  tracing overhead on the end-to-end metrics:")
        for name, metric in plain["end_to_end"].items():
            base = metric["value"]
            with_tracing = traced["end_to_end"][name]["value"]
            change = (with_tracing - base) / base if base else 0.0
            print(f"  {name:34s} untraced {base:12.6g}  traced "
                  f"{with_tracing:12.6g}  ({change:+.1%})")
        if workload == "ingest-arrivals":
            parts = (traced["layers"]["ingest.local_ms.p50"]["value"] +
                     traced["layers"]["serve.reload_ms.p50"]["value"])
            whole = plain["named"]["arrival_to_queryable_ms.p50"]["value"]
            print(f"  ingest.local_ms.p50 + serve.reload_ms.p50 = {parts:.3f} ms"
                  f" vs arrival_to_queryable_ms.p50 {whole:.3f} ms "
                  f"({(parts - whole) / whole:+.1%})")


def cmd_calibrate(args):
    values = {w: {} for w in WORKLOADS}
    for r in range(args.runs):
        seed = 1 + r
        order = WORKLOADS if r % 2 == 0 else list(reversed(WORKLOADS))
        for workload in order:
            result = bench_run(args, workload, seed, 0)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])

    baseline = {"commit": args.bench[args.bench.index("--commit") + 1],
                "host": {"nproc": os.cpu_count(), "machine": platform.machine()},
                "seconds": args.seconds, "runs": args.runs,
                "seeds": list(range(1, args.runs + 1)), "workloads": {}}
    print(f"\n== calibration: {args.runs} runs per workload ==")
    widest = {}
    for workload in WORKLOADS:
        baseline["workloads"][workload] = {}
        for name, vals in values[workload].items():
            q1, median, q3, rel = spread(vals)
            half_a, half_b = vals[0::2], vals[1::2]
            agree = abs(statistics.median(half_a) - statistics.median(half_b))
            baseline["workloads"][workload][name] = {
                "median": median, "p25": q1, "p75": q3, "spread": rel,
                "values": vals}
            widest[name] = max(widest.get(name, 0.0), rel)
            print(f"  {workload:16s} {name:12s} median {median:12.6g} "
                  f"p25 {q1:12.6g} p75 {q3:12.6g} spread {rel:6.1%} "
                  f"halves differ {agree / median if median else 0:6.1%}")
    bounds = {}
    for name, rel in widest.items():
        # setup_s is not spread-gated; it keeps the widest bound.
        bounds[name] = 0.25 if name == "setup_s" else min(
            0.25, max(0.05, math.ceil(300 * rel) / 100))
    baseline["bounds"] = bounds
    with open(os.path.join(args.root, "bench", "perf", "baseline.json"), "w") as f:
        json.dump(baseline, f, indent=2)
        f.write("\n")
    # Rewrite only the bound values, keeping BENCHMARK.json's layout.
    bench_path = os.path.join(args.root, "BENCHMARK.json")
    with open(bench_path) as f:
        text = f.read()
    for name, bound in bounds.items():
        text = re.sub(r'("name": "%s",[^}]*"bound": )[0-9.]+' % re.escape(name),
                      lambda m: m.group(1) + f"{bound:g}", text)
    with open(bench_path, "w") as f:
        f.write(text)
    print("  bounds:", ", ".join(f"{k} {v:.2f}" for k, v in bounds.items()))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["all", "traced", "calibrate"])
    parser.add_argument("--bin", required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="measured phase (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--runs", type=int, default=10)
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    args.bench = argv[split + 1:]
    if args.seconds is None:
        with open(os.path.join(args.root, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    {"all": cmd_all, "traced": cmd_traced, "calibrate": cmd_calibrate}[args.mode](args)


if __name__ == "__main__":
    main()
