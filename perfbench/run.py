#!/usr/bin/env python3
"""Build the HSLB benchmark program from this checkout and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It configures and builds perfbench/
(which compiles ../src in Release mode) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; later runs only re-check the build. Then it
runs hslb_perfbench, whose stdout ends with one JSON result line. With
--trace 1 the Chrome trace-event JSON of the traced run is written to
<build dir>/traces/<workload>-seed<N>.json.

Exit code: hslb_perfbench's (1 when an output check failed), or 1 when the
build fails, e.g. outside a full checkout.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["pipeline_mix", "adaptive_straggler", "service_stream", "lp_scale"]


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out):
    """Configure once, then (re)build hslb_perfbench; returns its path."""
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):  # not configured yet
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "hslb_perfbench", "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.stderr.write("perfbench: build failed (%s)\n" % " ".join(cmd))
                sys.exit(1)
    return os.path.join(out, "hslb_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--toy", action="store_true",
                    help="tiny instances and prefixes (self-test)")
    ap.add_argument("--plant", choices=["lp-objective", "over-budget"],
                    help="plant a wrong answer the checks must catch (self-test)")
    args = ap.parse_args()

    out = build_dir()
    exe = build(out)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.toy:
        cmd.append("--toy")
    if args.plant:
        cmd += ["--plant", args.plant]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
