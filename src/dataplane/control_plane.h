// The switch control plane and its ASIC-to-CPU PCIe channel.
//
// Match-table entries (and some other resources) can only be installed via
// the switch CPU, reached over a PCIe channel whose bandwidth is orders of
// magnitude below the ASIC's forwarding rate (§2, "Primer").  This module
// models that channel as a FIFO server with configurable per-operation
// latency and bandwidth, which is what makes the checkpoint/rollback
// baselines of §2.2 misbehave and adds the tail latency visible in Fig. 8.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/types.h"
#include "obs/tracer.h"
#include "sim/simulator.h"

namespace redplane::dp {

struct ControlPlaneConfig {
  /// One-way ASIC<->CPU PCIe latency.
  SimDuration pcie_latency = Microseconds(4);
  /// PCIe channel bandwidth in bits/second (O(10 Gbps) per the paper).
  double pcie_bandwidth_bps = 10e9;
  /// CPU time to process one table update (driver + SDK overheads dominate;
  /// tens of microseconds on real switch CPUs).
  SimDuration table_op_cpu_time = Microseconds(60);
};

/// FIFO model of the control-plane channel.  Work items are serialized over
/// the PCIe link, processed by the CPU, and completed back on the ASIC side.
class ControlPlane {
 public:
  /// `trace_name` names this channel in trace exports.
  ControlPlane(sim::Simulator& sim, ControlPlaneConfig config,
               std::string trace_name)
      : sim_(sim),
        config_(config),
        trace_(sim.tracer_slot(), std::move(trace_name)) {}

  /// Submits a data-to-CPU operation carrying `bytes` of data; `on_complete`
  /// runs when the CPU has processed it and the completion has crossed back
  /// to the ASIC.  Returns the predicted completion time.
  SimTime Submit(std::size_t bytes, std::function<void()> on_complete);

  /// Queue length in operations (for tests / reporting).
  std::size_t Pending() const { return pending_; }

  const ControlPlaneConfig& config() const { return config_; }

  /// Total operations completed.
  std::uint64_t completed() const { return completed_; }

  /// Drops queued work (switch failure).
  void Reset();

 private:
  sim::Simulator& sim_;
  ControlPlaneConfig config_;
  SimTime busy_until_ = 0;
  std::size_t pending_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t epoch_ = 0;
  obs::TraceHandle trace_;
};

}  // namespace redplane::dp
