#!/usr/bin/env python3
"""Noise record for the serve-path benchmark.

Runs `perfbench/run.py` once per seed on every workload (untraced) and
writes, per workload and end-to-end metric, the per-seed values, their
median and quartiles, the spread (interquartile distance over the
median) and a verdict: "resolved" when the spread is within the metric's
bound in BENCHMARK.json, "unresolved" otherwise. The spread across seeds
mixes host noise with the seeds' different streams, so each host-time
metric also gets its same-seed spread: the interquartile distance over
the median of its repetitions within one run, per seed. The host stamp
of the runs goes beside it.

    python3 perfbench/noise.py --seeds 1-10 --out perfbench/noise.json
    python3 perfbench/noise.py --compare first.json second.json

`--compare` checks two records of the same code against each other: it
fails if any median of the second is worse than the first's by more than
the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HOST_PREFIX = "   host: "
REPETITIONS_PREFIX = "   repetitions: "


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def measure(args, spec):
    record = {"seconds": args.seconds, "seeds": seed_list(args.seeds), "host": None,
              "workloads": {}}
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for w in [w["name"] for w in spec["workloads"]]:
        values, same_seed = {}, {}
        for seed in record["seeds"]:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if done.returncode != 0 or not result.get("correct"):
                sys.stderr.write(done.stdout + done.stderr)
                sys.exit(f"noise: {w} seed {seed} failed")
            for line in lines:
                if line.startswith(HOST_PREFIX):
                    record["host"] = json.loads(line[len(HOST_PREFIX):])
                elif line.startswith(REPETITIONS_PREFIX):
                    for name, d in json.loads(line[len(REPETITIONS_PREFIX):]).items():
                        same_seed.setdefault(name, []).append((d["q3"] - d["q1"]) / d["median"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: ok", file=sys.stderr)
        rows = {}
        for name, xs in values.items():
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q3 - q1) / med
            bound = bounds[name]["bound"]
            rows[name] = {"unit": bounds[name]["unit"], "values": xs, "median": med,
                          "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                          "verdict": "resolved" if spread <= bound else "unresolved"}
            if name in same_seed:
                rows[name]["same_seed_spread"] = same_seed[name]
        record["workloads"][w] = rows
    return record


def compare(first, second, spec):
    better = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    worst_ok = True
    for w, rows in first["workloads"].items():
        for name, a in rows.items():
            b = second["workloads"][w][name]
            direction, bound = better[name]
            change = (b["median"] - a["median"]) / a["median"]
            worse = change if direction == "lower" else -change
            ok = worse <= bound
            worst_ok &= ok
            print(f"{w:11s} {name:24s} {a['median']:14.6g} -> {b['median']:14.6g} "
                  f"worse by {worse:+.4f} (bound {bound}) spread {a['spread']:.4f}/"
                  f"{b['spread']:.4f} {'ok' if ok else 'REGRESSED'}")
    return worst_ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.compare:
        records = []
        for path in args.compare:
            with open(path) as f:
                records.append(json.load(f))
        sys.exit(0 if compare(records[0], records[1], spec) else 1)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    record = measure(args, spec)
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    for w, rows in record["workloads"].items():
        for name, r in rows.items():
            same = r.get("same_seed_spread")
            same = f" same-seed {statistics.median(same):.4f}" if same else ""
            print(f"{w:11s} {name:24s} median {r['median']:14.6g} spread {r['spread']:.4f}"
                  f"{same} bound {r['bound']} {r['verdict']}", file=sys.stderr)


if __name__ == "__main__":
    main()
