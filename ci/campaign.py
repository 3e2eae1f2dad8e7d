#!/usr/bin/env python3
"""Fault-campaign CI driver: run the audited failure campaign and gate on it.

Every gate runs the campaign binary on a batch of schedules: schedule JSON
files under tests/schedules/ (--schedule, repeated) or schedules drawn by
the seeded fuzzer (--fuzz).  The binary judges the batch and its exit code
is the verdict.

 1. Clean failover scenarios — the four failure scenarios (switch crash,
    link flap, lease-boundary crash, store failover), each committed for
    five seeds as tests/schedules/<scenario>_s<seed>.json, replay with the
    auditor armed and must finish with zero invariant violations and zero
    linearizability failures.  Each batch's report.json/report.md lands
    in --out-dir for upload; a run that fails also leaves its causal
    slices, recovery timeline (<label>_s<seed>.recovery.json) and fleet
    time-series (.fleet.csv) there.  A passing run writes no per-run
    file: it replays bit-identically from its schedule.

 2. Oracle self-test — the four <scenario>_s42 schedules re-run once per
    protocol mutation (--mutate=lease/seq/chain).  Each mutation must be
    *caught* somewhere in the batch: a silent mutated batch means the
    monitors have gone blind, and the job fails even though nothing
    "broke".

 3. Recovery forensics — the binary fails any unmutated replay (gates 1,
    4 and 6) with a recovery episode that did not complete or whose phase
    durations do not sum to the measured downtime (DESIGN.md section 13).

Gates 1 and 2 run twice: once per-packet and once with replication
batching on (--batching=16), so the monitors are proven to see through
batch envelopes — clean batched runs stay silent and mutated batched runs
are still caught.

 4. Consistency-mode spectrum (DESIGN.md section 14) — gate 1 re-runs under
    --consistency=replicated (local reads within a staleness bound) and
    --consistency=mergeable (zero-RTT multi-writer CRDT counts), each
    judged by its own monitors and offline oracles.  The mutation
    self-test then checks the mode-aware mapping on the _s42 schedules:
    --mutate=stale must trip bounded_staleness under replicated but is
    *legal* (auditor silent) under mergeable; --mutate=merge must trip
    merge_convergence under mergeable and is a no-op under single-owner.
    The campaign binary encodes the expectations; a wrong outcome either
    way fails the job.

 5. Adversarial fuzz (--fuzz N, DESIGN.md section 15) — N randomized
    fault+load schedules drawn by the seeded generator, split across the
    three consistency modes.  Any violation on an unmutated schedule fails
    the job; the binary ddmin-minimizes the schedule first, so the
    artifact that lands in --out-dir (minimized_<seed>.schedule.json) is a
    replayable repro, not a 10-event haystack.  A per-class mutation
    self-test then proves each scenario class still reaches its oracle:
    gray schedules must trip chain_commit under --mutate=chain, churn
    schedules single_owner under --mutate=lease, flash schedules
    seq_monotonic under --mutate=seq, capacity schedules single_owner
    under --mutate=lease.

 6. Committed schedules — every schedule under tests/schedules/ (the
    failover scenarios and one minimized repro per fuzz-found-and-fixed
    bug class) replays clean in all three modes, and again with
    --batching=16 in single-owner mode.  Each (schedule, mode, batching)
    case runs once: the scenarios' cases belong to gates 1 and 4, so gate 6
    replays them only where --skip-modes skipped gate 4.

Gates 1, 4 and 6 replay committed schedules unmutated, so each of their
runs must also reproduce its trace_hash in golden_replays.csv, the table
next to the schedules that tests/fuzz_campaign_test.cc checks too.  A
differing or missing hash fails the gate and names the (schedule, mode,
batching) case.

Usage:
  ci/campaign.py --campaign build/tools/campaign --out-dir campaign-out
                 [--packets 40] [--fuzz N] [--fuzz-seed BASE]
                 [--schedules-dir tests/schedules] [--skip-selftest]
                 [--skip-batching] [--skip-modes]
"""

import argparse
import pathlib
import re
import subprocess
import sys

# Campaign binary exit codes (tools/campaign/main.cc).
EXIT_CLEAN_OR_DETECTED = 0
EXIT_MUTATION_SILENT = 2

MUTATIONS = ["lease", "seq", "chain"]

# The failover scenarios committed as tests/schedules/<scenario>_s<seed>.json.
SCENARIOS = ["switch_crash", "link_flap", "lease_race", "store_failover"]

# (mutation, mode, expectation label) — the binary itself decides pass/fail
# from its mode-aware mapping; the label is for the failure message only.
MODE_MUTATIONS = [
    ("stale", "replicated", "bounded_staleness must fire"),
    ("stale", "mergeable", "legal: auditor must stay silent"),
    ("merge", "mergeable", "merge_convergence must fire"),
    ("merge", "single", "legal: auditor must stay silent"),
]

# (fuzz class, mutation, monitor) — each scenario class must demonstrably
# reach its oracle when the matching protocol bug is seeded (gate 5).
FUZZ_CLASS_MUTATIONS = [
    ("gray", "chain", "chain_commit"),
    ("churn", "lease", "single_owner"),
    ("flash", "seq", "seq_monotonic"),
    ("capacity", "lease", "single_owner"),
]


# One replayed run's progress line (tools/campaign/main.cc).
REPLAY_LINE = re.compile(r"replay_(\S+) seed=\d+ events=\d+ "
                         r"consistency=(\w+)(?: batching=on)? \.\.\. .*"
                         r"trace_hash=(\d+)$", re.MULTILINE)


def schedule_args(paths):
    return [f"--schedule={p}" for p in paths]


def run(campaign, out_dir, extra, label):
    """Runs the campaign binary, echoing its output; returns the exit code
    and the output."""
    cmd = [campaign, f"--out-dir={out_dir}"] + extra
    print(f"\n=== {label}: {' '.join(cmd)}", flush=True)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    print(proc.stdout, end="", flush=True)
    return proc.returncode, proc.stdout


def load_golden(path):
    """(schedule, mode, batching_us) -> trace_hash from golden_replays.csv."""
    golden = {}
    for line in path.read_text().splitlines():
        if line and not line.startswith("#"):
            schedule, mode, batching_us, trace_hash = line.split(",")[:4]
            golden[(schedule, mode, int(batching_us))] = trace_hash
    return golden


def hash_mismatches(output, schedules, batching_us, golden):
    """Every replayed case of `output` whose trace_hash is not its golden
    one, plus a note when the output does not show one run per schedule."""
    bad = []
    found = REPLAY_LINE.findall(output)
    for stem, mode, got in found:
        want = golden.get((stem, mode, batching_us))
        if got != want:
            bad.append(f"{stem} consistency={mode} batching={batching_us}: "
                       f"trace_hash {got} != golden {want}")
    if len(found) != len(schedules):
        bad.append(f"expected {len(schedules)} replay lines, parsed "
                   f"{len(found)}")
    return bad


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--campaign", required=True,
                    help="path to the built tools/campaign binary")
    ap.add_argument("--out-dir", required=True,
                    help="report + causal-slice artifact directory")
    ap.add_argument("--packets", type=int, default=40,
                    help="base traffic per flow of the drawn fuzz schedules")
    ap.add_argument("--fuzz", type=int, default=0,
                    help="number of randomized fault+load schedules to run "
                         "(split across the three consistency modes; 0 = "
                         "skip the fuzz gates)")
    ap.add_argument("--fuzz-seed", type=int, default=1000,
                    help="base seed for the fuzz schedule generator")
    ap.add_argument("--schedules-dir",
                    default=str(pathlib.Path(__file__).resolve().parent.parent
                                / "tests" / "schedules"),
                    help="committed schedules: failover scenarios and "
                         "minimized repros")
    ap.add_argument("--skip-selftest", action="store_true",
                    help="skip the mutation oracle self-test runs")
    ap.add_argument("--skip-batching", action="store_true",
                    help="skip the batching-enabled (--batching=16) passes")
    ap.add_argument("--skip-modes", action="store_true",
                    help="skip the replicated/mergeable consistency passes")
    args = ap.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    failures = []

    batch_axes = [0] if args.skip_batching else [0, 16]  # batching, µs

    schedules_dir = pathlib.Path(args.schedules_dir)
    golden = load_golden(schedules_dir / "golden_replays.csv")
    scenarios = sorted(p for sc in SCENARIOS
                       for p in schedules_dir.glob(f"{sc}_s*.json"))
    selftest = schedule_args(schedules_dir / f"{sc}_s42.json"
                             for sc in SCENARIOS)
    if not scenarios:
        failures.append(f"no scenario schedules under {schedules_dir}")

    for batching_us in batch_axes:
        batch_args = [f"--batching={batching_us}"] if batching_us else []
        suffix = "-batched" if batching_us else ""
        axis = "batching on" if batching_us else "per-packet"

        # Gate 1: clean scenarios, auditor armed, must be silent.
        rc, output = run(args.campaign, out / f"clean{suffix}",
                         schedule_args(scenarios) + batch_args,
                         f"clean scenarios ({len(scenarios)} schedules, "
                         f"{axis})")
        if rc != EXIT_CLEAN_OR_DETECTED:
            failures.append(
                f"clean scenarios ({axis}) exited {rc}: violations or a "
                f"failed recovery gate (see {out / f'clean{suffix}'})")
        failures += [f"clean scenarios ({axis}): {m}" for m in
                     hash_mismatches(output, scenarios, batching_us, golden)]

        # Gate 2: each seeded protocol mutation must trip its monitor.
        if not args.skip_selftest:
            for mut in MUTATIONS:
                rc, _ = run(args.campaign, out / f"mutate-{mut}{suffix}",
                            selftest + [f"--mutate={mut}"] + batch_args,
                            f"oracle self-test (mutate={mut}, {axis})")
                if rc == EXIT_MUTATION_SILENT:
                    failures.append(
                        f"mutate={mut} ({axis}): auditor stayed silent — "
                        f"the monitors did not catch a seeded protocol bug")
                elif rc != EXIT_CLEAN_OR_DETECTED:
                    failures.append(
                        f"mutate={mut} ({axis}): campaign exited {rc}")

    # Gate 4: the consistency-mode spectrum, per-packet.
    if not args.skip_modes:
        for mode in ["replicated", "mergeable"]:
            rc, output = run(
                args.campaign, out / f"clean-{mode}",
                schedule_args(scenarios) + [f"--consistency={mode}"],
                f"clean scenarios (consistency={mode})")
            if rc != EXIT_CLEAN_OR_DETECTED:
                failures.append(
                    f"clean scenarios (consistency={mode}) exited {rc}: "
                    f"violations or oracle failures under the weaker mode "
                    f"(see {out / f'clean-{mode}'})")
            failures += [f"clean scenarios (consistency={mode}): {m}"
                         for m in hash_mismatches(output, scenarios, 0,
                                                  golden)]
        if not args.skip_selftest:
            for mut, mode, expectation in MODE_MUTATIONS:
                rc, _ = run(args.campaign, out / f"mutate-{mut}-{mode}",
                            selftest + [f"--mutate={mut}",
                                        f"--consistency={mode}"],
                            f"mode-aware oracle self-test "
                            f"(mutate={mut}, consistency={mode})")
                if rc == EXIT_MUTATION_SILENT:
                    failures.append(
                        f"mutate={mut} consistency={mode}: expected monitor "
                        f"stayed silent ({expectation})")
                elif rc != EXIT_CLEAN_OR_DETECTED:
                    failures.append(
                        f"mutate={mut} consistency={mode}: campaign exited "
                        f"{rc} ({expectation})")

    # Gate 5: randomized fault+load fuzzing, budget split across the modes.
    if args.fuzz > 0:
        per_mode = max(1, args.fuzz // 3)
        for i, mode in enumerate(["single", "replicated", "mergeable"]):
            rc, _ = run(args.campaign, out / f"fuzz-{mode}",
                        [f"--fuzz={per_mode}", "--fuzz-class=mixed",
                         f"--fuzz-seed={args.fuzz_seed + 10000 * i}",
                         f"--packets={args.packets}",
                         f"--consistency={mode}"],
                        f"adversarial fuzz ({per_mode} schedules, "
                        f"consistency={mode})")
            if rc != EXIT_CLEAN_OR_DETECTED:
                failures.append(
                    f"fuzz (consistency={mode}) exited {rc}: a randomized "
                    f"schedule violated an invariant — minimized repro under "
                    f"{out / f'fuzz-{mode}'}")
        # Each scenario class must still reach its oracle when the matching
        # protocol bug is seeded — otherwise the fuzzer is shaking a tree
        # the monitors cannot see.
        if not args.skip_selftest:
            for cls, mut, monitor in FUZZ_CLASS_MUTATIONS:
                rc, _ = run(args.campaign, out / f"fuzz-{cls}-{mut}",
                            ["--fuzz=2", f"--fuzz-class={cls}",
                             f"--fuzz-seed={args.fuzz_seed}",
                             f"--packets={args.packets}", f"--mutate={mut}"],
                            f"fuzz-class oracle self-test "
                            f"({cls} + mutate={mut})")
                if rc == EXIT_MUTATION_SILENT:
                    failures.append(
                        f"fuzz class {cls} + mutate={mut}: {monitor} stayed "
                        f"silent — the class no longer reaches its oracle")
                elif rc != EXIT_CLEAN_OR_DETECTED:
                    failures.append(
                        f"fuzz class {cls} + mutate={mut}: campaign exited {rc}")

    # Gate 6: every committed schedule replays clean, in every mode.  The
    # schedule file does not pin a consistency mode, and some fuzz-found
    # bugs only manifest under a weaker mode (e.g. the tail-crash commit
    # evidence gap needs replicated-mode buffered reads), so each batch is
    # replayed under all three, plus batched single-owner.  Gates 1 and 4
    # already replayed the scenario schedules in single-owner (per-packet
    # and batched), replicated and mergeable mode, so a pass here adds them
    # only when --skip-modes skipped the matching gate-4 run.
    repros = sorted(p for p in schedules_dir.glob("*.json")
                    if p not in scenarios)
    passes = [("single", 0, False),
              ("replicated", 0, args.skip_modes),
              ("mergeable", 0, args.skip_modes)]
    if not args.skip_batching:
        passes.append(("single", 16, False))
    for mode, batching_us, with_scenarios in passes:
        batch_args = [f"--batching={batching_us}"] if batching_us else []
        tag = mode + ("-batched" if batch_args else "")
        committed = repros + (scenarios if with_scenarios else [])
        if not committed:
            continue
        rc, output = run(args.campaign, out / f"committed-{tag}",
                         schedule_args(committed) + [f"--consistency={mode}"]
                         + batch_args,
                         f"committed schedules ({len(committed)} schedules, "
                         f"{tag})")
        if rc != EXIT_CLEAN_OR_DETECTED:
            failures.append(
                f"committed schedules ({tag}) exited {rc}: a failover "
                f"scenario or a previously fixed fuzz-found bug regressed "
                f"(see {out / f'committed-{tag}'})")
        failures += [f"committed schedules ({tag}): {m}" for m in
                     hash_mismatches(output, committed, batching_us, golden)]

    if failures:
        print("\nFAULT CAMPAIGN FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nfault campaign OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
