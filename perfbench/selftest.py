#!/usr/bin/env python3
"""Toy-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload (those in BENCHMARK.json plus lp_scale, which is run by
hand) at toy sizes through perfbench/run.py and checks that
  1. every metric BENCHMARK.json names prints, in the text report and in the
     JSON line, with its unit;
  2. two traced runs with one seed give identical counts, and another seed
     changes them;
  3. a planted wrong answer (LP objective off by 1e-6, an allocation over
     its node budget) is counted as a failed op and fails the command.
Exits 1 on the first broken check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["lp_scale"]
# Per-layer metrics that must repeat exactly for one seed.
EXACT = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"} | {
    "hslb_over_dlb", "service.hit_rate", "controller.accept_ratio"}


def run(workload, seed, trace, plant=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--toy"]
    if plant:
        cmd += ["--plant", plant]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines[:-1], json.loads(lines[-1])


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def check_names(workload, trace, text, result):
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in declared}:
        fail("%s trace %d: metric names %s" % (workload, trace, sorted(got)))
    for m in declared:
        if got[m["name"]]["unit"] != m["unit"]:
            fail("%s: %s has unit %s" % (workload, m["name"], got[m["name"]]["unit"]))
        row = [l.split() for l in text if l.split()[:1] == [m["name"]]]
        if not row or row[0][2] != m["unit"]:
            fail("%s: %s does not print with its unit" % (workload, m["name"]))


def main():
    for w in WORKLOADS:
        rc, text, e2e = run(w, 1, 0)
        if rc != 0 or e2e["failed"] or not e2e["correct"]:
            fail("%s: clean toy run failed" % w)
        check_names(w, 0, text, e2e)
        _, text, a = run(w, 1, 1)
        check_names(w, 1, text, a)
        _, _, b = run(w, 1, 1)
        _, _, c = run(w, 2, 1)
        same = {k: a["metrics"][k]["value"] for k in EXACT}
        if same != {k: b["metrics"][k]["value"] for k in EXACT}:
            fail("%s: counts differ between two runs of seed 1" % w)
        if same == {k: c["metrics"][k]["value"] for k in EXACT}:
            fail("%s: seed 2 draws the same counts as seed 1" % w)
        print("ok   %s: names and units, same-seed counts, seed sensitivity" % w)

    for w, plant in [("lp_scale", "lp-objective"), ("pipeline_mix", "over-budget"),
                     ("service_stream", "over-budget")]:
        rc, _, r = run(w, 1, 0, plant)
        if rc == 0 or r["failed"] == 0 or r["correct"]:
            fail("%s: planted %s went unnoticed" % (w, plant))
        print("ok   %s: planted %s fails %d of %d ops" % (w, plant, r["failed"],
                                                        r["attempted"]))
    print("self-test passed")


if __name__ == "__main__":
    main()
