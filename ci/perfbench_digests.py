#!/usr/bin/env python3
"""Checks that each perfbench workload still computes its committed digest.

Usage, from the root of a checkout:

    python3 ci/perfbench_digests.py

For every workload in perfbench/baseline.json, runs one full batch at seed 7
(`python3 perfbench/run.py --workload W --seed 7 --seconds 0.01`), reads the
digest from .bench_build/perfbench/out/W.result.json and compares it with
the workload's `digest_seed_7` in perfbench/baseline.json.  The digest folds
every delivered packet and the run's virtual-time results, so a change that
claims to leave behaviour alone must leave all three digests alone.

Reads baseline.json and never writes it.  Exits 1 on any mismatch or failed
run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "perfbench" / "baseline.json"
OUT_DIR = ROOT / ".bench_build" / "perfbench" / "out"


def committed_digests():
    """Maps each workload to its committed seed-7 digest."""
    data = json.loads(BASELINE.read_text())
    return {w: data["baseline"][w]["digest_seed_7"] for w in data["workloads"]}


def main():
    failures = 0
    for workload, want in committed_digests().items():
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "0.01"]
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        result = OUT_DIR / f"{workload}.result.json"
        if run.returncode != 0 or not result.is_file():
            print(f"{workload}: run failed (exit {run.returncode})")
            failures += 1
            continue
        got = json.loads(result.read_text()).get("digest")
        verdict = "ok" if got == want else "MISMATCH"
        print(f"{workload}: digest {got}, baseline {want}: {verdict}")
        failures += got != want
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
