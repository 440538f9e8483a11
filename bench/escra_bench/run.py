#!/usr/bin/env python3
"""Build and run escra_bench, the repository's benchmark.

One run (the form BENCHMARK.json's command takes):
    python3 bench/escra_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
Every workload, both kinds of run, results to a file:
    python3 bench/escra_bench/run.py [--seed N] [--seconds S | --reps N]
                                     [--runs K] [--quick] [--out FILE]
                                     [--trace-out PREFIX]
Compare two such files, run at the same seeds (choosing-metrics rule:
medians, quartiles, pair win rate, and a verdict per workload and metric):
    python3 bench/escra_bench/run.py --compare PARENT.json CHANGE.json

The binary is built from source into .bench_build/ at the repository root
(skip that with --bin PATH). See README.md for workloads and metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ["firehose", "control_storm", "paper_grid", "write_mix"]
# End-to-end metrics measured on the host; every other end-to-end metric is
# modeled (simulated time, deterministic per seed) and compared exactly.
MEASURED = {"sim_speed", "setup_s", "peak_rss_mib"}
# Per-layer metrics that are counts of deterministic work, compared exactly.
COUNT_UNITS = {"count", "B"}
# BENCHMARK.json's bounds on the modeled metrics cover their spread across
# seeds, which runs not paired by seed see. --compare pairs both sides at the
# same seeds, where a modeled metric has no noise at all: any movement fails
# it, and one whose median got worse by more than this share is labelled a
# regression.
MODELED_BOUND = 0.02


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the binary; returns its path."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(PACKAGE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "escra_bench",
                  "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build failed:", " ".join(cmd))
            sys.exit(1)
    return BUILD / "escra_bench"


def run_once(binary, workload, seed, trace, args, trace_out=None):
    """Runs one workload; echoes its report; returns the result object."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    cmd += ["--reps", str(args.reps)] if args.reps else \
        ["--seconds", str(args.seconds)]
    if args.quick:
        cmd.append("--quick")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    # The binary exits 1 after a failed check, but still prints its result.
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        log(f"run.py: {workload} (trace {trace}) exited {proc.returncode} "
            "without a result")
        sys.exit(1)
    return json.loads(lines[-1]), lines


def missing_metrics(spec, result, trace):
    wanted = spec["per_layer" if trace else "end_to_end"]
    return [m["name"] for m in wanted if m["name"] not in result["metrics"]]


def single(args, spec):
    binary = Path(args.bin) if args.bin else build()
    result, lines = run_once(binary, args.workload, args.seed, args.trace,
                             args, args.trace_out)
    missing = missing_metrics(spec, result, args.trace)
    if missing:
        log("run.py: metrics missing from the result:", ", ".join(missing))
        sys.exit(1)
    print(lines[-1], flush=True)
    if not result["correct"]:
        log(f"run.py: {args.workload} failed its correctness checks")
        sys.exit(1)


def suite(args, spec):
    """Every workload, bare and traced, --runs times; optional smoke checks."""
    binary = Path(args.bin) if args.bin else build()
    runs, problems, dominant = [], [], {}
    for k in range(args.runs):
        seed = args.seed + k
        for workload in WORKLOADS:
            for trace in (0, 1):
                trace_out = None
                if trace and args.trace_out:
                    trace_out = f"{args.trace_out}-{workload}-{seed}.json"
                result, lines = run_once(binary, workload, seed, trace, args,
                                         trace_out)
                runs.append({"workload": workload, "seed": seed,
                             "trace": trace, "result": result})
                for line in lines:
                    if line.startswith("  dominant layer:"):
                        dominant[workload] = line.split(":", 1)[1].strip()
                where = f"{workload} seed {seed} trace {trace}"
                if not result["correct"]:
                    problems.append(f"{where}: not correct")
                if result["failed"]:
                    problems.append(f"{where}: {result['failed']} items failed")
                missing = missing_metrics(spec, result, trace)
                if missing:
                    problems.append(f"{where}: missing {', '.join(missing)}")
    summarize(runs, spec, dominant)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"benchmark": "escra_bench", "runs": runs}, f, indent=1)
        print(f"\nwrote {args.out}")
    for p in problems:
        print("FAIL:", p)
    if problems:
        sys.exit(1)
    print("\nescra_bench: all workloads correct, no failed items, every "
          "BENCHMARK.json metric printed")


def medians(runs, workload, trace, name):
    vals = [r["result"]["metrics"][name]["value"] for r in runs
            if r["workload"] == workload and r["trace"] == trace
            and name in r["result"]["metrics"]]
    return statistics.median(vals) if vals else float("nan")


def summarize(runs, spec, dominant):
    print("\n== end to end (median over runs) ==")
    names = [m["name"] for m in spec["end_to_end"]]
    widths = [max(len(n) + 2, 12) for n in names]
    print(f"{'workload':<14}" + "".join(f"{n:>{k}}" for n, k in
                                        zip(names, widths)))
    for w in WORKLOADS:
        print(f"{w:<14}" + "".join(f"{medians(runs, w, 0, n):>{k}.6g}"
                                   for n, k in zip(names, widths)))
    print("\n== attachment cost (observer/bare - 1, checker/observer - 1, "
          "spans/observer - 1) ==")
    cols = ["obs.overhead_frac", "check.overhead_frac", "spans.overhead_frac",
            "obs.trace_evicted"]
    print(f"{'workload':<14}" + "".join(f"{c:>21}" for c in cols) +
          "  dominant layer")
    for w in WORKLOADS:
        print(f"{w:<14}" + "".join(f"{medians(runs, w, 1, c):>21.4g}"
                                   for c in cols) +
              f"  {dominant.get(w, '-')}")


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def verdict(metric, parent, change, kind):
    """Returns (pair win rate, verdict, whether it fails the comparison).

    Host-measured metrics get improved, no worse, regressed or unresolved
    against BENCHMARK.json's bound. Modeled end-to-end metrics and per-layer
    counts are deterministic per seed and compared exactly, pair by pair.
    """
    sign = 1.0 if metric["better"] == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_rate = wins / len(pairs)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse_by = -sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    moved = (f"median {abs(100 * worse_by):.2f}% "
             f"{'worse' if worse_by > 0 else 'better'}")
    modeled = kind == "e2e" and metric["name"] not in MEASURED
    if modeled or (kind == "layer" and metric["unit"] in COUNT_UNITS):
        if parent == change:
            return win_rate, "identical", False
        if not modeled:
            return win_rate, f"changed ({moved})", False
        # The decision stream changed: that fails, and needs an explanation.
        if worse_by > MODELED_BOUND:
            return win_rate, f"regressed ({moved})", True
        if wins == len(pairs):
            return win_rate, f"improved, decision stream moved ({moved})", True
        return win_rate, f"changed, decision stream moved ({moved})", True
    q1, _, q3 = quartiles(parent)
    if win_rate >= 0.9 and sign * (c_med - p_med) > (q3 - q1):
        return win_rate, "improved", False
    bound = metric.get("bound")
    if bound is None:
        return win_rate, "-", False
    spread = (q3 - q1) / abs(p_med) if p_med else 0.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return win_rate, "unresolved", False
    if worse_by > bound:
        return win_rate, f"regressed ({moved})", True
    return win_rate, "no worse", False


def compare(args, spec):
    with open(args.compare[0]) as f:
        parent = json.load(f)["runs"]
    with open(args.compare[1]) as f:
        change = json.load(f)["runs"]
    failed = []
    for w in WORKLOADS:
        print(f"\n== {w} ==")
        print(f"{'metric':<32}{'parent median [q1, q3]':>38}"
              f"{'change median [q1, q3]':>38}{'wins':>7}  verdict")
        for kind, trace, metrics in (("e2e", 0, spec["end_to_end"]),
                                     ("layer", 1, spec["per_layer"])):
            def by_seed(runs):
                return {r["seed"]: r["result"]["metrics"] for r in runs
                        if r["workload"] == w and r["trace"] == trace}
            p_runs, c_runs = by_seed(parent), by_seed(change)
            if not p_runs or not c_runs:
                continue
            if p_runs.keys() != c_runs.keys():
                log(f"run.py: {w}: the two files were run at different seeds "
                    f"({sorted(p_runs)} vs {sorted(c_runs)}); pairs need the "
                    "same seeds")
                sys.exit(2)
            seeds = sorted(p_runs)
            for m in metrics:
                name = m["name"]
                if any(name not in p_runs[s] or name not in c_runs[s]
                       for s in seeds):
                    continue
                p = [p_runs[s][name]["value"] for s in seeds]
                c = [c_runs[s][name]["value"] for s in seeds]
                rate, v, fails = verdict(m, p, c, kind)
                if fails:
                    failed.append(f"{w} {name}: {v}")
                pq, cq = quartiles(p), quartiles(c)
                print(f"{name:<32}"
                      f"{f'{pq[1]:.5g} [{pq[0]:.4g}, {pq[2]:.4g}]':>38}"
                      f"{f'{cq[1]:.5g} [{cq[0]:.4g}, {cq[2]:.4g}]':>38}"
                      f"{rate:>7.2f}  {v}")
    print()
    for f in failed:
        print("FAIL:", f)
    sys.exit(1 if failed else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--reps", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("--bin")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = ap.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.quick and not args.reps:
        args.reps = 2
    if args.compare:
        compare(args, spec)
    elif args.workload:
        single(args, spec)
    else:
        suite(args, spec)


if __name__ == "__main__":
    main()
