#!/usr/bin/env python3
"""Serve-path benchmark: builds the benchmark and `h2p` from source, runs
one workload (or all of them), checks correctness, and prints every
metric with its unit, sample count, median and quartiles. The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/run.py --workload steady --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the repository root. ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json, ``--trace 1`` its per-layer metrics; ``all``
runs both for every workload. ``--seconds`` defaults to BENCHMARK.json's
``run_seconds``. See perfbench/README.md for what each workload and
metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(BENCH_DIR, "Cargo.toml")
WORKLOADS = ["steady", "saturation", "overload", "chaos"]
# Host stamp rule: below this many hardware threads the planner cannot fan
# out as designed, so host-time numbers are advisory.
ADVISORY_BELOW_THREADS = 4
# Prefix of the line holding each host-time metric's quartiles over the
# run's repetitions, as JSON; noise.py reads it.
REPETITIONS_PREFIX = "   repetitions: "
# Keys of `h2p serve --json` compared against the benchmark's own report.
CLI_KEYS = ["complete", "timed_out", "degraded", "rejected", "shed",
            "p50_ms", "p99_ms", "served_per_sec", "dispatches", "violations"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(os.getcwd(), "target")


def build():
    """Builds the benchmark and the `h2p` CLI; returns both binaries."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "h2p"],
    ):
        try:
            done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=840)
        except subprocess.TimeoutExpired:
            fail(f"build timed out: {' '.join(cmd)}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "h2p-perfbench"), os.path.join(release, "h2p")


def run_json(cmd, what):
    """Runs `cmd`, returns (exit code, parsed JSON of its last stdout line)."""
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail(f"{what} timed out")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{what} printed nothing (exit {done.returncode})")
    try:
        return done.returncode, json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{what} printed no JSON (exit {done.returncode})")


def cli_crosscheck(h2p, rep):
    """Runs `h2p serve` on the same configuration; returns mismatches."""
    cmd = [h2p, "serve", "--qps", repr(rep["qps"]), "--seed", str(rep["seed"]),
           "--requests", str(rep["requests"]), "--window", str(rep["window"]),
           "--max-batch", str(rep["max_batch"]), "--json"]
    if rep["chaos"]:
        cmd.append("--chaos")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        return ["h2p serve timed out"]
    if done.returncode != 0:
        return [f"h2p serve exited {done.returncode}: {done.stderr.strip()[:300]}"]
    point = json.loads(done.stdout.splitlines()[0])
    ours = rep["cli_view"]
    return [f"h2p serve {k}={point.get(k)!r}, benchmark {ours.get(k)!r}"
            for k in CLI_KEYS if point.get(k) != ours.get(k)]


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def git_revision():
    """The checkout's revision, read from .git without leaving it."""
    head = os.path.join(".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as f:
            return f.read().strip()
    packed = os.path.join(".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as f:
            for line in f:
                if line.strip().endswith(ref[5:]):
                    return line.split()[0]
    return "unknown"


def host_stamp(rep):
    host = rep["host"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "available_parallelism": host["available_parallelism"],
        "planner_threads": host["planner_threads"],
        "profile": host["profile"],
        "revision": git_revision(),
        "advisory": host["available_parallelism"] < ADVISORY_BELOW_THREADS,
    }


def run_workload(bench, h2p, spec, workload, seed, seconds, trace):
    """One workload, one mode. Returns (correct, attempted, failed, metrics)."""
    code, rep = run_json([bench, "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         f"benchmark ({workload})")
    errors = list(rep["errors"])
    if code != 0 and not errors:
        errors.append(f"benchmark exited {code}")
    errors += cli_crosscheck(h2p, rep)

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, rows, dispersion = {}, [], {}
    for m in wanted:
        name = m["name"]
        if name in rep["samples"]:
            xs = rep["samples"][name]
            q1, med, q3 = quartiles(xs)
            rows.append((name, m["unit"], len(xs), med, q1, q3))
            dispersion[name] = {"n": len(xs), "q1": q1, "median": med, "q3": q3}
        elif name in rep["values"]:
            med = rep["values"][name]
            rows.append((name, m["unit"], rep["reps"], med, med, med))
        else:
            errors.append(f"benchmark did not report {name}")
            continue
        metrics[name] = {"value": med, "unit": m["unit"]}

    stamp = host_stamp(rep)
    mode = "traced replay" if trace else "untraced Server::run"
    print(f"== {workload} ({mode}): {rep['qps']} qps open loop, {rep['requests']} requests, "
          f"seed {seed}, window {rep['window']}, max_batch {rep['max_batch']}, "
          f"{rep['soc']}, chaos {str(rep['chaos']).lower()}, {rep['reps']} repetitions")
    print(f"   host: {json.dumps(stamp)}")
    print("   generator lag: 0 ms by construction (arrivals are precomputed on the virtual clock)")
    print(f"   {'metric':40s} {'unit':7s} {'n':>4s} {'median':>14s} {'q1':>14s} {'q3':>14s}")
    for name, unit, n, med, q1, q3 in rows:
        print(f"   {name:40s} {unit:7s} {n:4d} {med:14.6g} {q1:14.6g} {q3:14.6g}")
    print(f"{REPETITIONS_PREFIX}{json.dumps(dispersion)}")
    v, s = rep["values"], rep["samples"]
    if trace:
        print(f"   traced wall {statistics.median(s['traced_wall_ms']):.3f} ms, untraced "
              f"{statistics.median(s['untraced_wall_ms']):.3f} ms (medians)")
    else:
        q1, med, q3 = quartiles(s["req_per_wall_s"])
        print(f"   wall clock (not gated): req_per_wall_s median {med:.6g} [{q1:.6g}, {q3:.6g}] "
              f"over {len(s['req_per_wall_s'])} repetitions; reference workload median "
              f"{statistics.median(s['reference_ms']):.4g} ms; Server::new median "
              f"{statistics.median(s['setup_wall_s']) * 1e3:.4g} ms")
        print(f"   virtual: latency_p50_ms {v['latency_p50_ms']:.6g} over "
              f"{int(v['latency_samples'])} served requests, reject_rate "
              f"{v['reject_rate']:.6g}, admitted_miss_rate {v['admitted_miss_rate']:.6g}, "
              f"horizon {v['horizon_s']:.6g} s; per_req_cost_ratio compares {rep['requests']} "
              f"with {rep['prefix']} requests (length ratio "
              f"{rep['requests'] / rep['prefix']:g})")
    for e in errors:
        print(f"   FAILED: {e}")
    attempted = rep["attempted"]
    return not errors, attempted, (attempted if errors else 0), metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.isfile("BENCHMARK.json") or not os.path.isdir("crates"):
        fail("run from the repository root (BENCHMARK.json and crates/ are needed)")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    bench, h2p = build()

    if args.workload != "all":
        correct, attempted, failed, metrics = run_workload(
            bench, h2p, spec, args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        sys.exit(0 if correct else 1)

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        for trace in (0, 1):
            correct, attempted, failed, metrics = run_workload(
                bench, h2p, spec, w, args.seed, args.seconds, trace)
            result["correct"] &= correct
            result["attempted"] += attempted
            result["failed"] += failed
            result["metrics"].setdefault(w, {}).update(metrics)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
