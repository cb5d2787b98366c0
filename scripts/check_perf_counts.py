#!/usr/bin/env python3
"""Check the benchmark's deterministic counts against BENCH_perf.json.

    python3 scripts/check_perf_counts.py            # check, exit 1 on a difference
    python3 scripts/check_perf_counts.py --write    # re-record BENCH_perf.json

Runs `python3 perfbench/run.py --trace 1 --seconds 1` for each gated workload
of BENCHMARK.json at each seed of perfbench/seeds.json (about 15 s in all once
perfbench is built) and compares every `count` metric plus the deterministic
ratios hslb_over_dlb, service.hit_rate and controller.accept_ratio with the
committed record. A change that moves a count re-records the file with
--write, so the move shows in review as a diff of BENCH_perf.json.
"""
import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
SEEDS = json.load(open(os.path.join(ROOT, "perfbench", "seeds.json")))
RECORD = os.path.join(ROOT, "BENCH_perf.json")
EXACT = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"} | {
    "hslb_over_dlb", "service.hit_rate", "controller.accept_ratio"}


def run(workload, seed):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", "1"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        sys.exit("FAIL: %s seed %d: perfbench exited %d" % (workload, seed, p.returncode))
    metrics = json.loads(lines[-1])["metrics"]
    return {k: metrics[k]["value"] for k in sorted(EXACT)}


def git(*args):
    p = subprocess.run(["git"] + list(args), cwd=ROOT, capture_output=True, text=True)
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="re-record BENCH_perf.json")
    args = ap.parse_args()

    runs = {}
    for w in [w["name"] for w in SPEC["workloads"]]:
        for seed in (SEEDS["default"], SEEDS["held_out"]):
            runs["%s/seed%d" % (w, seed)] = run(w, seed)

    if args.write:
        record = {
            "command": "python3 perfbench/run.py --trace 1 --seconds 1",
            "commit": git("rev-parse", "HEAD"),
            "host": {"machine": platform.machine(), "system": platform.system(),
                     "release": platform.release(), "cpus": os.cpu_count(),
                     "python": platform.python_version()},
            "runs": runs,
        }
        with open(RECORD, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
        print("wrote %s (%d runs)" % (RECORD, len(runs)))
        return

    want = json.load(open(RECORD))["runs"]
    bad = 0
    for key in sorted(set(want) | set(runs)):
        got, ref = runs.get(key, {}), want.get(key, {})
        for name in sorted(set(got) | set(ref)):
            if got.get(name) != ref.get(name):
                print("DIFF %s %s: recorded %s, now %s" % (key, name, ref.get(name),
                                                            got.get(name)))
                bad += 1
    if bad:
        sys.exit("FAIL: %d count(s) differ from BENCH_perf.json" % bad)
    print("ok   %d runs, every count equal to BENCH_perf.json" % len(runs))


if __name__ == "__main__":
    main()
