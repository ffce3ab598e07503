#!/usr/bin/env python3
"""End-to-end, layer-by-layer benchmark of the low-communication convolution
library (see perfbench/README.md).

    python3 perfbench/run.py --workload conv-flat --seed 1 --seconds 15 --trace 0

Run from the repository root. Builds perfbench/ (the library sources under
src/ plus the lc_e2e program) into $CARGO_TARGET_DIR, or .bench_build when
that is unset, then runs one workload:

* --trace 0: the end-to-end metrics, tracing off. The measurement window is
  split over several fresh processes (3, or 5 for service-mix, each
  measuring its share of --seconds) and every metric is the median over
  them, so one process's memory layout or thread placement cannot set the
  figure. setup_s is the median of all their cold starts plus those of
  extra start-only processes.
* --trace 1: a separate traced run that reports the per-layer metrics and
  writes its spans to <build dir>/trace-<workload>.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is non-zero, with no record
printed, when the benchmark cannot build or run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("conv-flat", "conv-grouped", "massif", "service-mix")
RUN_BUDGET_S = 170.0  # a run (after the build) ends within 180 s
# Measurement processes per end-to-end run. The service's peak RSS depends
# on allocator retention, which differs from process to process, and its
# processes start in milliseconds, so it gets more of them.
PROCESSES = {"service-mix": 5}
DEFAULT_PROCESSES = 3
SETUP_BUDGET_S = 3.0  # extra cold-start-only processes stop after this...
SETUP_MAX = 7         # ...or at this many cold-start samples in all


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def clean_env():
    # The library reads LC_* switches (wire codec, planner mode, real path,
    # telemetry) from the environment; the benchmark fixes every one of them
    # in its own inputs.
    return {k: v for k, v in os.environ.items() if not k.startswith("LC_")}


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources not found: run from a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "lc_e2e",
                    "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "lc_e2e")


def run_binary(args, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("time budget exhausted")
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=timeout, env=clean_env())
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("no record from lc_e2e")
    return json.loads(lines[-1])


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test problem sizes (not for measurement)")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    deadline = time.monotonic() + RUN_BUDGET_S
    base = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--out", build_dir] + (["--tiny"] if args.tiny else [])

    if args.trace == 1:
        rec = run_binary(base + ["--seconds", repr(args.seconds), "--trace", "1"],
                         deadline)
        records = [rec]
        metrics = rec["metrics"]
        setup = []
    else:
        processes = PROCESSES.get(args.workload, DEFAULT_PROCESSES)
        window = repr(args.seconds / processes)
        records = [run_binary(base + ["--seconds", window, "--trace", "0"], deadline)
                   for _ in range(processes)]
        metrics = {
            name: {"value": statistics.median(r["metrics"][name]["value"]
                                              for r in records),
                   "unit": m["unit"]}
            for name, m in records[0]["metrics"].items()}
        # Cheap cold starts get more samples from start-only processes.
        setup = [r["metrics"]["setup_s"]["value"] for r in records]
        t0 = time.monotonic()
        while len(setup) < SETUP_MAX and time.monotonic() - t0 < SETUP_BUDGET_S:
            rec = run_binary(base + ["--seconds", window, "--setup-only"], deadline)
            setup.append(rec["metrics"]["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setup)

    expected = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        raise RuntimeError(f"emitted metrics {sorted(got.items())} differ from "
                           f"BENCHMARK.json {sorted(expected.items())}")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    for r in records:
        for failure in r["failures"]:
            log(f"check failed: {failure}")

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"processes={len(records)} attempted={attempted} failed={failed}"
          + (f" setup samples={len(setup)}" if setup else ""))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
