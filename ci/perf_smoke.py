#!/usr/bin/env python3
"""Perf smoke test: run bench_micro and fail on regression.

Two kinds of checks:

 1. Machine-independent invariants of the zero-copy core, the online
    auditor, and the timing-wheel retransmit path — these must hold on any
    hardware:
      * steady-state event dispatch performs zero heap allocations,
      * zero-copy hop forwarding beats the deep-copy/re-encode path by at
        least 2x (the PR's acceptance bar),
      * an armed-but-silent auditor adds at most 5% to the hop-forward and
        chain-hop paths (plus a small absolute epsilon to absorb timer
        granularity on sub-10ns benches), and an armed profiler at most
        5% + 3 ns,
      * the per-tick retransmit check is O(due entries), not O(table):
        BM_MirrorDueScan per-item cost at 1M parked flows stays within 10%
        of the 10k-flow cost, and beats the whole-table-walk before-twin
        (BM_MirrorFullScan) by at least 50x at 1M flows,
      * the resolved consistency spec does not tax the default mode: the
        single-owner sequencing core branching on the spec stays within 2%
        of the hard-wired twin, plus a small absolute epsilon for timer
        granularity on the ~10 ns region.
    The single-owner pair and the two chain-hop pairs are A/B benchmarks
    (BM_SingleOwnerSequencingAB, BM_ChainHopAuditorAB,
    BM_ChainHopProfilerAB): each runs its two twins in alternating short
    rounds of one benchmark and reports the median per-round ratio to its
    budget.  The hop-forward group and the flatness gate re-measure their
    benchmarks in a bench_micro run of their own (random interleaving, 40
    repetitions of 0.05 s) and compare those medians.
 2. Absolute regression against the recorded baselines (BENCH_PR2.json,
    BENCH_PR7.json, BENCH_PR9.json; --baseline is repeatable): each
    benchmark must stay within --tolerance (default 25%) of its baseline
    time.  Skipped with --no-absolute on hardware that does not match the
    baseline machine.

When a regression fires, --profile (a profile JSON written by a bench run's
--profile-out, or by rpreport) turns the failure from "something got slower"
into "THIS subsystem got slower": the script prints per-subsystem wall-clock
self-time attribution, and — when --profile-baseline gives a profile from the
last good run — the share diff, sorted by who grew the most.

Usage:
  ci/perf_smoke.py --bench build/bench/bench_micro [--baseline BENCH_PR2.json]
                   [--baseline BENCH_PR7.json] [--tolerance 0.25]
                   [--no-absolute] [--table-out perf-report/timer_table.md]
                   [--profile run/profile.json]
                   [--profile-baseline good/profile.json]

--table-out writes a markdown before/after table for the timing-wheel
retransmit path (whole-table walk vs due-slot pop at 10k and 1M flows, plus
the wheel primitives) — CI uploads it as an artifact.
"""

import argparse
import json
import re
import subprocess
import sys


def subsystem_self_ns(profile_path):
    """Per-subsystem self-time from a profiler JSON ({"sites": [...]}).

    The subsystem is the site-name prefix before the first '.', the same
    rollup key rpreport uses.
    """
    with open(profile_path) as f:
        doc = json.load(f)
    rollup = {}
    for site in doc.get("sites", []):
        subsystem = site.get("name", "?").split(".", 1)[0]
        rollup[subsystem] = rollup.get(subsystem, 0.0) + site.get("self_ns", 0)
    return rollup


def print_attribution(profile_path, baseline_path):
    try:
        current = subsystem_self_ns(profile_path)
    except (OSError, json.JSONDecodeError, AttributeError) as e:
        print(f"  (could not read profile {profile_path}: {e})")
        return
    total = sum(current.values()) or 1.0
    baseline = {}
    if baseline_path:
        try:
            baseline = subsystem_self_ns(baseline_path)
        except (OSError, json.JSONDecodeError, AttributeError) as e:
            print(f"  (could not read baseline profile {baseline_path}: {e})")
    base_total = sum(baseline.values()) or 1.0

    print("\nPer-subsystem wall-clock attribution"
          + (" (share vs baseline):" if baseline else ":"))
    rows = []
    for subsystem in sorted(set(current) | set(baseline)):
        share = current.get(subsystem, 0.0) / total
        if baseline:
            base_share = baseline.get(subsystem, 0.0) / base_total
            rows.append((share - base_share, subsystem, share, base_share))
        else:
            rows.append((share, subsystem, share, None))
    rows.sort(reverse=True)
    for delta, subsystem, share, base_share in rows:
        if base_share is None:
            print(f"  {subsystem:12s} {share * 100:6.1f}%")
        else:
            print(f"  {subsystem:12s} {share * 100:6.1f}%  "
                  f"(was {base_share * 100:5.1f}%, "
                  f"{'+' if delta >= 0 else ''}{delta * 100:.1f} pts)")
    if rows and base_share is not None:
        top = rows[0]
        if top[0] > 0.01:
            print(f"  => largest growth: {top[1]} "
                  f"(+{top[0] * 100:.1f} pts of total self time)")


def run_bench(bench_path, extra_args=(), min_time=0.2, repetitions=3):
    """Runs bench_micro; returns per-benchmark median real time (ns) and
    the median counters."""
    out = subprocess.run(
        [
            bench_path,
            "--benchmark_format=json",
            f"--benchmark_min_time={min_time}",
            f"--benchmark_repetitions={repetitions}",
            "--benchmark_report_aggregates_only=true",
            *extra_args,
        ],
        check=True,
        capture_output=True,
        text=True,
    )
    results = {}
    counters = {}
    for b in json.loads(out.stdout)["benchmarks"]:
        if b.get("aggregate_name") != "median":
            continue
        name = b["run_name"]
        results[name] = b["real_time"]
        for key in ("heap_allocs_per_dispatch", "items_per_second",
                    "base_ns", "twin_ns", "budget_ratio"):
            if key in b:
                counters.setdefault(name, {})[key] = b[key]
    return results, counters


def remeasure(bench_path, names):
    """Medians of the benchmarks in `names`, from a run of their own.

    A relative gate compares benchmarks against each other, so they must
    see the same machine.  On a shared host a core's speed shifts for
    seconds at a time (the chain hop runs at about 27 or about 46 ns), and
    the full run measures the two sides of a gate seconds apart, three
    repetitions each: that alone moved the chain-hop auditor pair and the
    due-scan pair past their budgets on unchanged code.  Here the group
    runs alone, 40 short repetitions of each in random order, so a slow
    spell of the host falls on every benchmark of the group alike, and the
    medians are compared.
    """
    pattern = "^(" + "|".join(re.escape(n) for n in names) + ")$"
    return run_bench(
        bench_path,
        extra_args=(f"--benchmark_filter={pattern}",
                    "--benchmark_enable_random_interleaving=true"),
        min_time=0.05, repetitions=40)


def write_timer_table(path, results, counters):
    """Markdown before/after table for the retransmit-check refactor."""

    def fmt(name):
        ns = results.get(name)
        return f"{ns:,.1f} ns" if ns is not None else "n/a"

    lines = [
        "# Retransmit check: whole-table walk vs per-entry wheel timers",
        "",
        "Per-tick cost of finding due retransmissions.  'Before' walks every",
        "mirror entry comparing its last-send time (the retired"
        " ScanRetransmits",
        "design, kept as the BM_MirrorFullScan before-twin); 'after' pops the",
        "earliest due timing-wheel slot while the parked majority never gets",
        "touched.",
        "",
        "| Flows | Before: full walk | After: due-slot pop | Ratio |",
        "|---|---|---|---|",
    ]
    for flows, arg in [("10k", "10240"), ("1M", "1048576")]:
        before = results.get(f"BM_MirrorFullScan/{arg}")
        after = results.get(f"BM_MirrorDueScan/{arg}")
        ratio = (f"{before / after:,.0f}x"
                 if before is not None and after is not None else "n/a")
        lines.append(f"| {flows} | {fmt(f'BM_MirrorFullScan/{arg}')} "
                     f"| {fmt(f'BM_MirrorDueScan/{arg}')} | {ratio} |")
    rate_10k = counters.get("BM_MirrorDueScan/10240", {}).get(
        "items_per_second")
    rate_1m = counters.get("BM_MirrorDueScan/1048576", {}).get(
        "items_per_second")
    if rate_10k and rate_1m:
        lines += [
            "",
            f"Due-scan throughput: {rate_10k / 1e6:.1f} M items/s at 10k "
            f"flows vs {rate_1m / 1e6:.1f} M items/s at 1M flows "
            f"({abs(rate_10k / rate_1m - 1) * 100:.1f}% apart — the check "
            "is flat in table size).",
        ]
    lines += [
        "",
        "## Wheel and table primitives",
        "",
        "| Benchmark | Time |",
        "|---|---|",
    ]
    for name in ["BM_TimerWheelSchedule", "BM_TimerWheelAdvance",
                 "BM_TimerWheelCancel", "BM_FlowTableLookup/10240",
                 "BM_FlowTableLookup/1048576"]:
        lines.append(f"| {name} | {fmt(name)} |")
    lines.append("")
    with open(path, "w") as f:
        f.write("\n".join(lines))
    print(f"wrote before/after table to {path}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", required=True)
    ap.add_argument("--baseline", action="append", default=None,
                    help="baseline JSON with a reference_ns map; repeatable "
                         "(default: BENCH_PR2.json and BENCH_PR7.json)")
    ap.add_argument("--tolerance", type=float, default=0.25)
    ap.add_argument("--no-absolute", action="store_true")
    ap.add_argument("--table-out", default=None,
                    help="write the timing-wheel before/after markdown "
                         "table here")
    ap.add_argument("--profile", default=None,
                    help="profile JSON from this run; on failure, prints "
                         "per-subsystem attribution")
    ap.add_argument("--profile-baseline", default=None,
                    help="profile JSON from the last good run; prints the "
                         "attribution diff to name the regressing subsystem")
    args = ap.parse_args()

    results, counters = run_bench(args.bench)
    failures = []

    # --- Invariant checks (machine-independent) ---
    allocs = counters.get("BM_EventDispatchSteadyState", {}).get(
        "heap_allocs_per_dispatch"
    )
    if allocs is None:
        failures.append("BM_EventDispatchSteadyState did not report "
                        "heap_allocs_per_dispatch")
    elif allocs != 0:
        failures.append(
            f"steady-state event dispatch allocates ({allocs}/dispatch)")

    for fast, slow, label in [
        ("BM_LinkHopForward", "BM_LinkHopForwardDeepCopy", "hop-forward"),
        ("BM_ChainHopForwardZeroCopy", "BM_ChainHopReencode", "chain-hop"),
    ]:
        if fast not in results or slow not in results:
            failures.append(f"missing benchmark pair for {label}")
            continue
        if results[fast] * 2 > results[slow]:
            failures.append(
                f"{label}: zero-copy path ({results[fast]:.1f} ns) is not "
                f">=2x faster than copy path ({results[slow]:.1f} ns)")

    # Batch envelope invariants: the envelope is framing, not serialization.
    # Wrapping a sub-message into a batch (BM_BatchEncode, per item) must be
    # cheaper than encoding a message from scratch (BM_ProtocolEncode) — if
    # it is not, EncodeBatchEnvelope has started re-serializing its subs.
    batch_benches = ["BM_BatchEncode/4", "BM_BatchEncode/16",
                     "BM_BatchChainHop/4", "BM_BatchChainHop/16"]
    missing = [b for b in batch_benches if b not in results]
    if missing:
        failures.append(f"missing batch benchmarks: {', '.join(missing)}")
    elif "BM_ProtocolEncode" in results:
        per_sub = results["BM_BatchEncode/16"] / 16
        if per_sub >= results["BM_ProtocolEncode"]:
            failures.append(
                f"batch encode per sub-message ({per_sub:.1f} ns) costs as "
                f"much as a full message encode "
                f"({results['BM_ProtocolEncode']:.1f} ns) — the envelope is "
                f"re-serializing")

    # Armed-but-silent auditor overhead on the hop paths: the tap guard is
    # one global load + predictable branch, so the armed bench must stay
    # within 5% of its unarmed twin.  The +0.5 ns epsilon absorbs timer
    # granularity: on a ~5 ns bench a single tick of run-to-run noise is
    # already >5%, and we are guarding the guard, not the scheduler.
    #
    # Armed-profiler overhead on the same hop paths: a sampled ProfSite at
    # stride 256 amortizes its clock reads to well under a nanosecond per
    # entry, leaving a constant ~2 ns armed-not-sampled cost (one global
    # load, the stride-countdown decrement, two branches) that does not
    # scale with region size.  The +3 ns epsilon absorbs that constant on
    # these nanosecond-scale microbench regions; the 5% relative term is
    # what binds on real instrumented regions (switch/store process paths
    # are hundreds of ns, where 5% >> the constant).
    #
    # The hop-forward path and its two armed twins are re-measured together
    # in a run of their own (remeasure); the chain-hop pairs are A/B
    # benchmarks, gated with the single-owner pair below.
    base, auditor, profiler, label = (
        "BM_LinkHopForward", "BM_LinkHopForwardAuditorArmed",
        "BM_LinkHopForwardProfilerArmed", "hop-forward")
    names = [base, auditor, profiler]
    group, _ = remeasure(args.bench, names)
    if any(n not in group for n in names):
        failures.append(f"missing or failed re-measurement of the {label} "
                        f"group")
    else:
        if group[auditor] > group[base] * 1.05 + 0.5:
            failures.append(
                f"{label}: auditor-armed path ({group[auditor]:.1f} ns) "
                f"exceeds 5% overhead budget over unarmed "
                f"({group[base]:.1f} ns)")
        if group[profiler] > group[base] * 1.05 + 3.0:
            failures.append(
                f"{label} profiler: profiler-armed path "
                f"({group[profiler]:.1f} ns) exceeds 5% + 3 ns overhead "
                f"budget over unarmed ({group[base]:.1f} ns)")

    # Timing-wheel retransmit-check invariants (the PR 7 acceptance bar).
    # Flatness: the per-item due-scan cost must not depend on how many
    # non-due entries sit in the table — 1M parked flows vs 10k within 10%,
    # from a re-measurement of the pair on its own (remeasure).
    due_names = [f"BM_MirrorDueScan/{arg}" for arg in ("10240", "1048576")]
    _, due_counters = remeasure(args.bench, due_names)
    due_rates = {}
    for arg in ("10240", "1048576"):
        rate = due_counters.get(f"BM_MirrorDueScan/{arg}", {}).get(
            "items_per_second")
        if rate is None:
            failures.append(
                f"BM_MirrorDueScan/{arg} did not report items_per_second")
        else:
            due_rates[arg] = rate
    if len(due_rates) == 2:
        ratio = due_rates["10240"] / due_rates["1048576"]
        if abs(ratio - 1.0) > 0.10:
            failures.append(
                f"retransmit check is not flat in table size: "
                f"{due_rates['10240'] / 1e6:.1f} M items/s at 10k flows vs "
                f"{due_rates['1048576'] / 1e6:.1f} M items/s at 1M "
                f"({abs(ratio - 1) * 100:.0f}% apart, budget 10%)")
    # A/B pairs: each benchmark runs its base and its twin over the same
    # items in alternating short rounds (base first on even rounds, twin
    # first on odd), so a slow spell of the host falls on both alike, and
    # reports the median over rounds of twin / (base * (1 + slack) + eps).
    #  * Consistency spec (DESIGN.md §14): branching on the resolved
    #    StateTraits must be free in the default mode — the spec twin stays
    #    within 2% + 0.5 ns of the hard-wired one.
    #  * Chain hop: the armed-but-silent auditor within 5% + 0.5 ns and the
    #    armed profiler within 5% + 3 ns of the unarmed hop (the epsilons
    #    as for the hop-forward group above).
    for bench, label, twin, budget in [
        ("BM_SingleOwnerSequencingAB", "single-owner A/B", "spec path",
         "2% + 0.5 ns"),
        ("BM_ChainHopAuditorAB", "chain-hop A/B", "auditor-armed path",
         "5% + 0.5 ns"),
        ("BM_ChainHopProfilerAB", "chain-hop profiler A/B",
         "profiler-armed path", "5% + 3 ns"),
    ]:
        ab = counters.get(bench, {})
        ratio = ab.get("budget_ratio")
        if ratio is None:
            failures.append(f"{bench} did not report budget_ratio")
            continue
        print(f"{label}: {twin} {ab['twin_ns']:.2f} ns vs base "
              f"{ab['base_ns']:.2f} ns, median round at {ratio:.3f} of the "
              f"{budget} budget")
        if ratio > 1.0:
            failures.append(
                f"{label}: {twin} ({ab['twin_ns']:.2f} ns) exceeds the "
                f"{budget} budget over its base ({ab['base_ns']:.2f} ns) in "
                f"the median round")

    # O(due) vs O(table): at 1M flows the due-slot pop must beat the
    # whole-table walk by orders of magnitude; 50x is a loose floor (the
    # measured gap is ~27000x) that still catches any accidental
    # reintroduction of a full scan on the due path.
    full_1m = results.get("BM_MirrorFullScan/1048576")
    due_1m = results.get("BM_MirrorDueScan/1048576")
    if full_1m is None or due_1m is None:
        failures.append("missing BM_MirrorFullScan/BM_MirrorDueScan at 1M")
    elif due_1m * 50 > full_1m:
        failures.append(
            f"due scan at 1M flows ({due_1m:.1f} ns) is not >=50x faster "
            f"than the full-table walk ({full_1m:.1f} ns)")

    # --- Absolute regression vs recorded baselines ---
    if not args.no_absolute:
        baseline_paths = args.baseline or ["BENCH_PR2.json", "BENCH_PR7.json",
                                           "BENCH_PR9.json"]
        baseline = {}
        for path in baseline_paths:
            with open(path) as f:
                baseline.update(json.load(f)["reference_ns"])
        for name, base_ns in baseline.items():
            got = results.get(name)
            if got is None:
                failures.append(f"baseline benchmark {name} missing from run")
            elif got > base_ns * (1.0 + args.tolerance):
                failures.append(
                    f"{name}: {got:.1f} ns vs baseline {base_ns:.1f} ns "
                    f"(+{(got / base_ns - 1) * 100:.0f}%, tolerance "
                    f"{args.tolerance * 100:.0f}%)")

    for name in sorted(results):
        print(f"  {name}: {results[name]:.2f} ns")
    if args.table_out:
        write_timer_table(args.table_out, results, counters)
    if failures:
        print("\nPERF SMOKE FAILED:")
        for f in failures:
            print(f"  - {f}")
        if args.profile:
            print_attribution(args.profile, args.profile_baseline)
        return 1
    print("\nperf smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
