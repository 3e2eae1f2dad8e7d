// The ASIC packet generator.
//
// Tofino can synthesize batches of packets on a timer, entirely in the data
// plane.  RedPlane's bounded-inconsistency mode uses it to emit a burst of n
// snapshot-read packets every T_snap (§5.4): packet i carries index i and
// reads the i-th slot of the snapshotted structure.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/types.h"
#include "obs/tracer.h"
#include "sim/simulator.h"

namespace redplane::dp {

class PacketGenerator {
 public:
  /// `trace_name` names this generator in trace exports.
  PacketGenerator(sim::Simulator& sim, std::string trace_name)
      : sim_(sim), trace_(sim.tracer_slot(), std::move(trace_name)) {}

  /// Starts generating: every `period`, emit a batch of `batch_size`
  /// generated packets by invoking `fn(index)` for index in [0, batch_size).
  /// Packets within a batch are spaced `intra_gap` apart (hardware emits them
  /// back to back at line rate).
  void Start(SimDuration period, std::uint32_t batch_size,
             SimDuration intra_gap, std::function<void(std::uint32_t)> fn);

  /// Stops generation.
  void Stop();

  bool IsRunning() const { return running_; }
  SimDuration period() const { return period_; }
  std::uint64_t batches_emitted() const { return batches_; }

 private:
  void EmitBatch();

  sim::Simulator& sim_;
  bool running_ = false;
  SimDuration period_ = 0;
  std::uint32_t batch_size_ = 0;
  SimDuration intra_gap_ = 0;
  std::function<void(std::uint32_t)> fn_;
  std::uint64_t batches_ = 0;
  std::uint64_t epoch_ = 0;
  obs::TraceHandle trace_;
};

}  // namespace redplane::dp
