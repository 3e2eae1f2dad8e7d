// Controller-based fault tolerance ("FT Switch-NAT w/ controller").
//
// Emulates SDN-controller approaches (Ravana, Morpheus): every state change
// is synchronously committed to an external controller — itself chain
// replicated — over the slow management network, before the affected packet
// proceeds.  New-flow installs therefore pay control-plane PCIe + management
// RTT + controller-chain latency, which is what pushes the paper's 99th
// percentile to ~185 µs (§7.1), and the §2.2 checkpoint discussion shows why
// the data-to-control bandwidth makes per-packet versions unusable.
#pragma once

#include <functional>
#include <unordered_map>

#include "obs/metrics.h"
#include "core/app.h"
#include "dataplane/pipeline.h"
#include "sim/host.h"

namespace redplane::baselines {

/// The external controller: stores committed switch state; replies after a
/// configurable commit latency covering its own replication (e.g. a 3-node
/// chain over the management network).
class ControllerNode : public sim::Node {
 public:
  ControllerNode(sim::Simulator& sim, NodeId id, std::string name,
                 SimDuration commit_latency)
      : Node(sim, id, std::move(name)), commit_latency_(commit_latency) {
    commits_received_ = counters().RegisterCounter("commits_received");
  }

  /// Called by a pipeline when its synchronous commit round trip lands.
  void NoteCommitReceived() { commits_received_.Add(); }

  void HandlePacket(net::Packet&& pkt, PortId in_port) override;

  /// Committed state, for failover restoration and tests.
  const std::unordered_map<net::PartitionKey, std::vector<std::byte>>&
  committed() const {
    return committed_;
  }
  std::uint64_t commits() const { return commits_; }

  /// Management-plane write-back (used by the pipeline's async refresh).
  void CommitDirect(const net::PartitionKey& key,
                    std::vector<std::byte> state) {
    committed_[key] = std::move(state);
    ++commits_;
  }

 private:
  SimDuration commit_latency_;
  std::unordered_map<net::PartitionKey, std::vector<std::byte>> committed_;
  std::uint64_t commits_ = 0;
  obs::Counter commits_received_;
};

class ControllerFtPipeline : public dp::PipelineHandler {
 public:
  /// `mgmt_rtt` models the 1 Gbps management network round trip between the
  /// switch CPU and the controller.
  ControllerFtPipeline(dp::SwitchNode& node, core::SwitchApp& app,
                       ControllerNode& controller, SimDuration mgmt_rtt,
                       std::function<std::vector<std::byte>(
                           const net::PartitionKey&)> initializer = nullptr);

  void Process(dp::SwitchContext& ctx, net::Packet pkt) override;
  void Reset() override;

  /// Restores committed state from the controller (failover onto a new
  /// switch).  Returns the number of partitions restored.
  std::size_t RestoreFromController();

  obs::MetricRegistry& stats() { return stats_; }

 private:
  struct Entry {
    std::vector<std::byte> state;
    bool committed = false;
  };

  void RunApp(dp::SwitchContext& ctx, const net::PartitionKey& key,
              Entry& entry, net::Packet pkt);

  dp::SwitchNode& node_;
  core::SwitchApp& app_;
  ControllerNode& controller_;
  SimDuration mgmt_rtt_;
  std::function<std::vector<std::byte>(const net::PartitionKey&)> initializer_;
  std::unordered_map<net::PartitionKey, Entry> state_;
  obs::MetricRegistry stats_;

  /// Typed handles into stats_ (registered once at construction).
  struct Metrics {
    obs::Counter app_pkts;
    obs::Counter controller_commits;
    obs::Counter controller_refreshes;
    obs::Counter commit_pending_drops;
  };
  Metrics m_;
};

}  // namespace redplane::baselines
