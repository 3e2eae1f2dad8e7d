// End-to-end host-time benchmark: shared types.
//
// A run repeats one fixed-size batch of a workload until its time budget is
// spent.  Every batch of a run does identical simulated work (same seed, same
// inputs, same end time), so its virtual-time results and digest must repeat
// bit for bit; only the host times differ, and the run reports their median.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/profiler.h"

namespace redplane::perfbench {

/// One batch's outcome.
struct Batch {
  /// Host seconds from the start of the batch to its first measured packet
  /// (or schedule): input synthesis, testbed build, deployment, warm-up.
  double setup_s = 0;
  /// Host seconds of the measured window (first injection to end of run).
  double measured_s = 0;
  /// Packets injected into the testbed during the measured window.
  std::uint64_t packets = 0;
  /// Operations the run reports as attempted: packets for the packet
  /// workloads, schedules for the fuzz workload.
  std::uint64_t ops = 0;
  std::uint64_t failed_ops = 0;
  /// FNV-1a over the delivered (virtual time, flow) tuples.
  std::uint64_t digest = 0;
  /// First failed correctness check; empty when every check passed.
  std::string error;
  /// Exact per-batch figures by metric name (counts and virtual-time
  /// results); every batch of a run must reproduce them.
  std::map<std::string, double> values;
  /// Host-time figures of individual steps (set-up parts, per-schedule
  /// times); the run reports their median over batches.
  std::map<std::string, double> host;
};

/// How a batch is run.
struct BatchOptions {
  std::uint64_t seed = 1;
  /// Non-null for a traced batch: armed for the measured window, with the
  /// benchmark's own profiling wrappers (app, forwarders) installed.
  obs::Profiler* profiler = nullptr;
  /// Overrides the workload's batch size (packets or schedules); 0 keeps the
  /// default.  Used by the self-test to run tiny batches.
  std::uint64_t size = 0;
  /// Directory for files the program under test writes (campaign artifacts).
  std::string out_dir;
};

Batch RunSyncWriteBatch(const BatchOptions& opt);
Batch RunNatChurnBatch(const BatchOptions& opt);
Batch RunFuzzAuditedBatch(const BatchOptions& opt);

/// FNV-1a over one u64, byte at a time (the campaign's trace_hash idiom).
inline void FnvMix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
}
inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

/// Host wall clock in seconds (steady).
double WallSeconds();

/// Median (mean of the middle two for an even count); 0 when empty.
double Median(std::vector<double> v);

}  // namespace redplane::perfbench
