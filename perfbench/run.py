#!/usr/bin/env python3
"""End-to-end host-time benchmark for the RedPlane simulator.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sync_write|nat_churn|fuzz_audited \\
        --seed N --seconds S --trace 0|1

Builds the benchmark (perfbench/CMakeLists.txt, Release) into
.bench_build/perfbench, runs one workload for S seconds in its own process,
prints every metric by name with its unit, and ends with one JSON line:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list, from a run that also writes
.bench_build/perfbench/out/<workload>.profile.json (render it with
`rpreport --profile=FILE`) and <workload>.layers.json.  Every run writes its
full result, digest included, to .bench_build/perfbench/out/<workload>.result.json.

perfbench/baseline.json records why each workload was chosen, each metric's
clock, the layer-to-metric predictions and a first baseline.  --size shrinks
a batch for perfbench/selftest.py.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = BUILD_DIR / "out"
BINARY = BUILD_DIR / "perfbench"
# Sources outside perfbench/ the build compiles; without them it cannot run.
REQUIRED_SOURCES = ["src/CMakeLists.txt", "bench/harness.cc",
                    "tools/campaign/runner.cc", "tools/campaign/schedule.cc"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns False on failure."""
    missing = [p for p in REQUIRED_SOURCES if not (ROOT / p).is_file()]
    if missing:
        log("perfbench: missing simulator sources: " + ", ".join(missing))
        return False
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in \
            cache.read_text(errors="replace"):
        # A build tree configured from another checkout cannot be reused.
        shutil.rmtree(BUILD_DIR)
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return BINARY.is_file()


def run_workload(workload, seed, seconds, trace, size=0):
    """Runs the benchmark binary; returns its parsed result object."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", str(OUT_DIR)]
    if size:
        cmd += ["--size", str(size)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"perfbench exited {proc.returncode} with no output")
    result = json.loads(lines[-1])
    if proc.returncode != 0 and result.get("correct", False):
        raise RuntimeError(f"perfbench exited {proc.returncode}")
    return result


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def select_metrics(spec, result, trace):
    """Maps the run's metrics onto the spec's list for this mode.

    Every metric must be reported, and every end-to-end metric nonzero.  The
    binary reports an explicit 0 for a per-layer metric of a layer the
    workload does not exercise (the NAT's write RTT, ECMP inside the opaque
    campaign runner).
    """
    wanted = spec["per_layer" if trace else "end_to_end"]
    out = {}
    for m in wanted:
        if m["name"] not in result["metrics"]:
            raise RuntimeError(f"metric {m['name']} was not measured")
        out[m["name"]] = {"value": result["metrics"][m["name"]],
                          "unit": m["unit"]}
    if not trace:
        zero = [n for n, v in out.items() if v["value"] <= 0]
        if zero:
            raise RuntimeError("end-to-end metrics read zero: " + ", ".join(zero))
    return out


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["sync_write", "nat_churn", "fuzz_audited"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not build():
        return 3
    spec = load_spec()
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace == 1, args.size)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {args.workload}: {e}")
        return 1
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"{args.workload}.result.json", "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    status = {"correct": bool(result["correct"]),
              "attempted": int(result["attempted"]),
              "failed": int(result["failed"]), "metrics": {}}
    if not result["correct"]:
        log(f"perfbench: {args.workload} failed its checks: {result['error']}")
        print(json.dumps(status))
        return 1
    try:
        status["metrics"] = select_metrics(spec, result, args.trace == 1)
    except RuntimeError as e:
        log(f"perfbench: {args.workload}: {e}")
        return 1

    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {args.workload} seed {args.seed}: "
          f"{result['batches']} batches of {result['packets']} packets"
          + (f", {result['traced_batches']} traced" if args.trace else "")
          + f"; digest {result['digest']}")
    for name, value in sorted(result["metrics"].items()):
        print(f"  {name:36s} {value:>16.6g} {units.get(name, '')}")
    print(json.dumps(status))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
