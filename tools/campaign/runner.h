// Campaign run harness: builds the paper's testbed with the auditor armed,
// drives audited base traffic, executes a Schedule (tools/campaign/
// schedule.h) on top of it, and harvests violations + forensics.
//
// Each FaultEvent maps onto the failure injector or the gray-failure hooks,
// each LoadPhase onto a src/trace adversarial generator injected on top of
// the base traffic.  The result carries a trace hash (FNV-1a over every
// delivered (time, marker, value) tuple) so the same schedule is checkably
// bit-identical across replays — the deterministic-replay contract the
// minimizer and the committed schedules under tests/schedules/ rely on.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/consistency.h"
#include "obs/recovery.h"
#include "obs/tracer.h"
#include "tools/campaign/schedule.h"

namespace redplane::campaign {

struct MutationSpec {
  bool lease = false;  // switch lease belief inflated past the store's
  bool seq = false;    // store sequence filter disabled
  bool chain = false;  // head acks before chain-wide commit
  bool stale = false;  // replicated-read serves local reads past the bound
  bool merge = false;  // store overwrites merge deltas instead of joining
  bool any() const { return lease || seq || chain || stale || merge; }
};

struct ViolationOut {
  std::string monitor;
  std::string detail;
  SimTime at = 0;
  std::size_t slice_events = 0;
  bool slice_closed = false;
  /// The causal-slice pair for this violation's (monitor, key); repeats
  /// share the pair of the first violation of that (monitor, key).
  std::string slice_json_path;
  std::string slice_text_path;
};

struct PhaseOut {
  std::string name;
  std::size_t count = 0;
  double p50_us = 0;
  double p99_us = 0;
};

/// Flattened view of one obs::RecoveryEpisode for the campaign report.
struct EpisodeOut {
  std::uint64_t id = 0;
  std::string trigger;
  bool complete = false;
  bool phase_sum_ok = false;
  SimDuration downtime = 0;
  std::array<SimDuration, obs::kNumRecoveryPhases> phase{};
  std::size_t flows = 0;
  double flow_p50_us = 0;
  double flow_p99_us = 0;
  double flow_max_us = 0;
  std::uint32_t extra_faults = 0;
};

struct RunResult {
  std::string label;
  std::uint64_t seed = 0;
  int sent = 0;
  int delivered = 0;
  std::uint64_t audit_events = 0;
  std::size_t lin_failures = 0;
  /// Offline per-mode oracle verdicts (modelcheck/linearizability.h):
  /// staleness and merge-convergence samples are collected from the
  /// tracer's subscriber stream and re-judged by an implementation
  /// independent of the online monitors.
  std::size_t oracle_failures = 0;
  std::string oracle_why;
  std::size_t staleness_samples = 0;
  std::size_t merge_samples = 0;
  std::vector<ViolationOut> violations;
  std::vector<PhaseOut> phases;
  double write_rtt_p50_us = 0;
  double write_rtt_p99_us = 0;
  std::vector<EpisodeOut> episodes;
  /// Episode-timeline JSON and fleet time-series CSV; written (and set)
  /// only when the run fails (see Failure), empty otherwise.
  std::string recovery_json_path;
  std::string fleet_csv_path;
  std::size_t fleet_samples = 0;
  /// FNV-1a over every delivered (time, marker, value); the deterministic-
  /// replay fingerprint.
  std::uint64_t trace_hash = 0;

  /// Monitor violations plus linearizability and offline-oracle failures.
  std::size_t NumViolations() const {
    return violations.size() + lin_failures + oracle_failures;
  }

  /// Why the run fails, or empty if it passes: a monitor violation, a
  /// linearizability or offline-oracle failure, or no traffic delivered;
  /// with `require_recovery`, also a recovery episode that is incomplete or
  /// whose phase durations do not sum to its downtime (DESIGN.md §13).
  /// RunSchedule writes the per-run artifacts exactly when
  /// Failure(/*require_recovery=*/true) is non-empty.
  std::string Failure(bool require_recovery) const;

  /// The fuzz oracle: Failure without the recovery gate.
  bool Clean() const { return Failure(/*require_recovery=*/false).empty(); }
};

/// Executes a schedule.  `label` stems the artifact filenames under
/// `out_dir`; a passing run writes no file (it replays bit-identically, so
/// nothing is lost).  `coalesce_delay` > 0 turns on replication batching
/// (0 = per packet).  The run records into `tracer` when given (its ring
/// is enabled, and subscribers the caller attached stay attached), else
/// into a tracer of its own.
RunResult RunSchedule(const Schedule& schedule, core::ConsistencyMode mode,
                      const MutationSpec& mut, const std::string& out_dir,
                      const std::string& label,
                      SimDuration coalesce_delay = 0,
                      obs::Tracer* tracer = nullptr);

void WriteJsonReport(std::ostream& os, const std::vector<RunResult>& runs,
                     core::ConsistencyMode mode, const MutationSpec& mut);
void WriteMarkdownReport(std::ostream& os, const std::vector<RunResult>& runs);

}  // namespace redplane::campaign
