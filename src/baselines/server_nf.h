// Server-based network function ("Server-NAT", "FT Server-NAT").
//
// Runs a SwitchApp on a commodity server instead of the switch: traffic is
// explicitly routed to the server, processed in software (per-packet CPU
// service time + NIC latency), and sent back out — the extra hops and
// software path give the 7–14x median latency penalty of §7.1.  The
// fault-tolerant variant synchronously replicates every state change to
// peer servers (chain replication) before releasing the packet, as software
// middlebox HA systems do.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "core/app.h"
#include "sim/host.h"

namespace redplane::baselines {

struct ServerNfConfig {
  /// Per-packet software processing time (poll-mode driver + NF logic).
  SimDuration service_time = Microseconds(4);
  /// NIC + PCIe traversal each way.
  SimDuration nic_latency = Microseconds(2);
  /// Latency to synchronously replicate one update to the peer group; 0
  /// disables fault tolerance (plain Server-NF).
  SimDuration replication_latency = 0;
};

class ServerNfNode : public sim::Node {
 public:
  ServerNfNode(sim::Simulator& sim, NodeId id, std::string name,
               net::Ipv4Addr ip, core::SwitchApp& app,
               ServerNfConfig config = {},
               std::function<std::vector<std::byte>(const net::PartitionKey&)>
                   initializer = nullptr);

  net::Ipv4Addr ip() const { return ip_; }

  void HandlePacket(net::Packet&& pkt, PortId in_port) override;

  obs::MetricRegistry& stats() { return stats_; }

 private:
  void RunApp(net::Packet pkt);

  net::Ipv4Addr ip_;
  core::SwitchApp& app_;
  ServerNfConfig config_;
  std::function<std::vector<std::byte>(const net::PartitionKey&)> initializer_;
  std::unordered_map<net::PartitionKey, std::vector<std::byte>> state_;
  SimTime busy_until_ = 0;
  obs::MetricRegistry stats_;

  /// Typed handles into stats_ (registered once at construction).
  struct Metrics {
    obs::Counter app_pkts;
    obs::Counter replications;
  };
  Metrics m_;
};

}  // namespace redplane::baselines
