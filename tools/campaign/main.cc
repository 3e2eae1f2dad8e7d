// Fault-campaign runner: executes a batch of fault+load schedules with the
// online protocol auditor armed, and reports what it saw.
//
// Each run builds the paper's testbed (Appendix D), deploys a counter app
// under RedPlane on both aggregation switches, drives traffic from an
// external host while a Schedule (tools/campaign/schedule.h) injects its
// faults and load phases, and checks the protocol live with src/audit:
// single lease owner, sequence monotonicity, chain-commit-before-ack,
// ε staleness, and per-flow counter linearizability.
//
// A batch comes from one of two sources:
//
//   --schedule=FILE (repeatable) — replay schedule JSON: the failover
//   scenarios (switch crash, link flap, lease-boundary crash, store
//   failover) and the minimized fuzz repros under tests/schedules/.  Each
//   run prints its deterministic trace hash; with one schedule,
//   --expect-hash=H fails if the replay diverges.  Unmutated replays also
//   pass the recovery gate: every recovery episode completes, with phase
//   durations that sum to the measured downtime (DESIGN.md §13).
//
//   --fuzz=N — the adversarial scenario engine (DESIGN.md §15): N seeded
//   random schedules of fault events (crashes, link cuts, gray failures,
//   ECMP re-salts) composed with adversarial load phases (flash crowds,
//   lease churn, SYN floods).  --fuzz-class picks a scenario-class focus
//   and --packets the base traffic per flow.  On a violation the first
//   failing schedule is delta-debugged down to a 1-minimal causal slice
//   and written as a replayable JSON artifact.
//
// Both sources share one judge.  Without --mutate every run must be clean.
// With --mutate the batch is a detector self-test (DESIGN.md §14): the
// mode-aware expected monitor must fire somewhere in the batch, or, where
// the mutation is legal under the mode, the auditor must stay silent.
//
// Exit codes: 0 = clean (or, with --mutate, the expected monitor fired — or
// the auditor correctly stayed silent where the mutation is legal);
// 1 = invariant violation or failed recovery gate on a clean run (or a
// monitor fired on a legal mutation, or a replay hash mismatch); 2 = a
// --mutate batch where the expected monitor stayed silent (the oracle is
// broken); 64 = usage error.
//
// Usage:
//   campaign (--schedule=FILE... | --fuzz=N) [--out-dir=campaign_out]
//            [--mutate=none|lease|chain|seq|stale|merge]
//            [--consistency=single|replicated|mergeable]
//            [--batching=<coalesce delay in us; 0 = off>]
//            [--fuzz-class=mixed|gray|churn|flash|capacity]
//            [--fuzz-seed=BASE] [--packets=120] [--no-minimize]
//            [--expect-hash=H]
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/campaign/minimizer.h"
#include "tools/campaign/runner.h"
#include "tools/campaign/schedule.h"

namespace redplane::campaign {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct Expectation {
  std::string monitor;   // monitor that must fire, empty = none
  bool silence = false;  // mutation is legal under this mode
};

/// Mode-aware mutation expectations (DESIGN.md §14): which monitor must
/// fire, or whether the mutation is legal under this mode (expected
/// silence).  Stale reads are the mergeable mode's normal operation; merge
/// overwrites are unreachable without merge traffic; and lease/seq/chain
/// corruptions have nothing to corrupt on the lease-free mergeable path.
Expectation ExpectationFor(const MutationSpec& mut, core::ConsistencyMode mode) {
  const bool mergeable = mode == core::ConsistencyMode::kMergeable;
  Expectation ex;
  if (mut.lease) ex.monitor = "single_owner";
  if (mut.seq) ex.monitor = "seq_monotonic";
  if (mut.chain) ex.monitor = "chain_commit";
  if ((mut.lease || mut.seq || mut.chain) && mergeable) ex.silence = true;
  if (mut.stale) {
    ex.monitor = "bounded_staleness";
    ex.silence = mode != core::ConsistencyMode::kReplicatedRead;
  }
  if (mut.merge) {
    ex.monitor = "merge_convergence";
    ex.silence = !mergeable;
  }
  return ex;
}

/// The one pass/fail rule for a batch, returning the exit code.
int Judge(const std::vector<RunResult>& runs, const MutationSpec& mut,
          core::ConsistencyMode mode, const std::string& mutate,
          bool require_recovery) {
  const std::string consistency = core::ConsistencyModeName(mode);
  if (!mut.any()) {
    int failed = 0;
    for (const RunResult& r : runs) {
      // The same rule that decides which runs leave artifacts.
      const std::string why = r.Failure(require_recovery);
      if (why.empty()) continue;
      ++failed;
      std::cerr << "[campaign] FAIL: " << r.label << " seed " << r.seed
                << ": " << why << "\n";
    }
    if (failed > 0) return 1;
    std::cout << "[campaign] OK: " << runs.size() << " schedule(s) clean "
              << "under " << consistency << "\n";
    return 0;
  }

  const Expectation ex = ExpectationFor(mut, mode);
  std::size_t violations = 0;
  std::size_t expected_fired = 0;
  for (const RunResult& r : runs) {
    violations += r.NumViolations();
    for (const ViolationOut& v : r.violations) {
      if (v.monitor == ex.monitor) ++expected_fired;
    }
  }
  if (ex.silence) {
    if (violations > 0) {
      std::cerr << "[campaign] FAIL: mutation '" << mutate
                << "' is legal under " << consistency
                << " but the batch reported " << violations
                << " violation(s)\n";
      return 1;
    }
    std::cout << "[campaign] OK: mutation '" << mutate
              << "' is legal under " << consistency
              << "; auditor stayed silent across " << runs.size()
              << " schedule(s)\n";
    return 0;
  }
  // Self-test: the seeded mutation must be caught somewhere in the batch.
  // lease/seq/chain keep the looser contract (any violation counts: a seq
  // corruption may surface first as a linearizability failure).
  const bool any_counts = mut.lease || mut.seq || mut.chain;
  if (expected_fired == 0 && !(any_counts && violations > 0)) {
    std::cerr << "[campaign] FAIL: mutation '" << mutate << "' active but "
              << ex.monitor << " stayed silent across " << runs.size()
              << " schedule(s)\n";
    return 2;
  }
  std::cout << "[campaign] OK: mutation detected (" << violations
            << " violation(s), " << expected_fired << " from " << ex.monitor
            << ")\n";
  return 0;
}

/// Shrinks a failing fuzz schedule to its causal slice and ships it as a
/// replayable artifact.
void WriteRepro(const Schedule& failing, core::ConsistencyMode mode,
                SimDuration coalesce_delay, const std::string& out_dir,
                bool minimize) {
  const std::string full_path =
      out_dir + "/failing_" + std::to_string(failing.seed) + ".schedule.json";
  std::ofstream(full_path) << ToJson(failing);
  if (!minimize) {
    std::cerr << "[campaign] repro: " << full_path << "\n";
    return;
  }
  const std::string probe_dir = out_dir + "/minimize_probes";
  int probe_no = 0;
  auto oracle = [&](const Schedule& candidate) {
    return !RunSchedule(candidate, mode, {}, probe_dir,
                        "probe_" + std::to_string(probe_no++), coalesce_delay)
                .Clean();
  };
  const MinimizeResult min = MinimizeSchedule(failing, oracle);
  const std::string min_path = out_dir + "/minimized_" +
                               std::to_string(failing.seed) + ".schedule.json";
  std::ofstream(min_path) << ToJson(min.schedule);
  std::cerr << "[campaign] minimized " << failing.NumEvents() << " -> "
            << min.schedule.NumEvents() << " events in " << min.probes
            << " probes"
            << (min.one_minimal ? " (1-minimal)" : " (probe budget hit)")
            << "; repro: " << min_path << "\n";
}

int Main(int argc, char** argv) {
  int packets = 120;
  int batching_us = 0;
  int fuzz_runs = 0;
  std::uint64_t fuzz_seed = 1000;
  bool minimize = true;
  std::string out_dir = "campaign_out";
  std::string mutate = "none";
  std::string consistency = "single";
  std::string fuzz_class_name = "mixed";
  std::vector<std::string> schedule_paths;
  std::string expect_hash;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--packets=")) {
      packets = std::max(10, std::atoi(v));
    } else if (const char* v = value("--out-dir=")) {
      out_dir = v;
    } else if (const char* v = value("--mutate=")) {
      mutate = v;
    } else if (const char* v = value("--consistency=")) {
      consistency = v;
    } else if (const char* v = value("--batching=")) {
      batching_us = std::max(0, std::atoi(v));
    } else if (const char* v = value("--fuzz=")) {
      fuzz_runs = std::max(1, std::atoi(v));
    } else if (const char* v = value("--fuzz-class=")) {
      fuzz_class_name = v;
    } else if (const char* v = value("--fuzz-seed=")) {
      fuzz_seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--no-minimize") {
      minimize = false;
    } else if (const char* v = value("--schedule=")) {
      schedule_paths.emplace_back(v);
    } else if (const char* v = value("--expect-hash=")) {
      expect_hash = v;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 64;
    }
  }

  MutationSpec mut;
  if (mutate == "lease") {
    mut.lease = true;
  } else if (mutate == "seq") {
    mut.seq = true;
  } else if (mutate == "chain") {
    mut.chain = true;
  } else if (mutate == "stale") {
    mut.stale = true;
  } else if (mutate == "merge") {
    mut.merge = true;
  } else if (mutate != "none") {
    std::cerr << "unknown --mutate mode: " << mutate << "\n";
    return 64;
  }

  core::ConsistencyMode mode = core::ConsistencyMode::kSingleOwner;
  if (consistency == "replicated") {
    mode = core::ConsistencyMode::kReplicatedRead;
  } else if (consistency == "mergeable") {
    mode = core::ConsistencyMode::kMergeable;
  } else if (consistency != "single") {
    std::cerr << "unknown --consistency mode: " << consistency << "\n";
    return 64;
  }
  if (!expect_hash.empty() && schedule_paths.size() != 1) {
    std::cerr << "--expect-hash needs exactly one --schedule\n";
    return 64;
  }

  // Assemble the batch: replayed files, or schedules drawn by the fuzzer.
  std::vector<Schedule> schedules;
  std::vector<std::string> labels;
  const bool replay = !schedule_paths.empty();
  if (replay) {
    for (const std::string& path : schedule_paths) {
      const std::string text = ReadFile(path);
      if (text.empty()) {
        std::cerr << "cannot read schedule: " << path << "\n";
        return 64;
      }
      std::optional<Schedule> sched = ScheduleFromJson(text);
      if (!sched.has_value()) {
        std::cerr << "malformed schedule JSON: " << path << "\n";
        return 64;
      }
      schedules.push_back(std::move(*sched));
      labels.push_back("replay_" + std::filesystem::path(path).stem().string());
    }
  } else if (fuzz_runs > 0) {
    const std::optional<FuzzClass> fc = FuzzClassFromName(fuzz_class_name);
    if (!fc.has_value()) {
      std::cerr << "unknown --fuzz-class: " << fuzz_class_name << "\n";
      return 64;
    }
    GeneratorConfig gen_cfg;
    gen_cfg.focus = *fc;
    gen_cfg.packets_per_flow = packets;
    for (int i = 0; i < fuzz_runs; ++i) {
      schedules.push_back(GenerateSchedule(
          fuzz_seed + static_cast<std::uint64_t>(i), gen_cfg));
      labels.push_back(std::string("fuzz_") + FuzzClassName(*fc) + "_" +
                       std::to_string(i));
    }
  } else {
    std::cerr << "nothing to run: give --schedule=FILE or --fuzz=N\n";
    return 64;
  }

  const SimDuration coalesce_delay = Microseconds(batching_us);
  std::vector<RunResult> runs;
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    std::cout << "[campaign] " << i + 1 << "/" << schedules.size() << " "
              << labels[i] << " seed=" << schedules[i].seed
              << " events=" << schedules[i].NumEvents()
              << " consistency=" << consistency
              << (batching_us > 0 ? " batching=on" : "") << " ..."
              << std::flush;
    RunResult r =
        RunSchedule(schedules[i], mode, mut, out_dir, labels[i], coalesce_delay);
    std::cout << " sent=" << r.sent << " delivered=" << r.delivered
              << " violations=" << r.NumViolations()
              << " trace_hash=" << r.trace_hash << "\n";
    runs.push_back(std::move(r));
  }

  std::filesystem::create_directories(out_dir);
  {
    std::ofstream json(out_dir + "/report.json");
    WriteJsonReport(json, runs, mode, mut);
    std::ofstream md(out_dir + "/report.md");
    WriteMarkdownReport(md, runs);
  }

  if (!expect_hash.empty() &&
      expect_hash != std::to_string(runs.front().trace_hash)) {
    std::cerr << "[campaign] FAIL: replay hash " << runs.front().trace_hash
              << " != expected " << expect_hash << " (nondeterminism)\n";
    return 1;
  }
  // Drawn schedules skip the recovery gate: a fault drawn after base
  // traffic stops leaves its episode open without any protocol fault.
  const int rc = Judge(runs, mut, mode, mutate, /*require_recovery=*/replay);
  if (rc == 1 && !replay && !mut.any()) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (runs[i].Clean()) continue;
      WriteRepro(schedules[i], mode, coalesce_delay, out_dir, minimize);
      break;
    }
  }
  return rc;
}

}  // namespace
}  // namespace redplane::campaign

int main(int argc, char** argv) {
  return redplane::campaign::Main(argc, argv);
}
