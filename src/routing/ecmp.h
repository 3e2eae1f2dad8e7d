// L3 routing fabric with 5-tuple ECMP (§2 "Network model").
//
// Every node with an IP address is a routing destination.  For each switch
// the fabric computes, per destination, the set of output ports on shortest
// paths through nodes/links that switch currently *believes* are up; ECMP
// load-balances across the set by hashing the 5-tuple (the partition key),
// which gives RedPlane the best-effort flow affinity the paper assumes.
// Failures propagate into switches' beliefs after a detection delay (BGP/BFD
// style), producing the transient blackholes and reroutes the failover
// experiment measures.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "dataplane/pipeline.h"
#include "net/headers.h"
#include "obs/tracer.h"
#include "sim/network.h"

namespace redplane::routing {

struct FabricConfig {
  /// Delay between a node/link state change and neighbors rerouting.
  SimDuration failure_detection_delay = Milliseconds(500);
  /// ECMP hash input.  The paper's network model assumes ECMP is
  /// "configured to use the partition key as their hash key" so packets of
  /// one partition share a path; the default hashes the 5-tuple (right for
  /// flow-partitioned apps), and object-partitioned deployments (e.g. the
  /// EPC-SGW, keyed by user address) switch to destination-based hashing.
  enum class EcmpHash { kFiveTuple, kDstAddress } ecmp_hash =
      EcmpHash::kFiveTuple;
  /// Extra entropy mixed into the ECMP hash.  0 (the default) leaves the
  /// hash untouched, so existing deployments are bit-identical.  Changing
  /// the salt mid-run re-shuffles flow→path assignments without any
  /// topology change — the traffic-engineering / ECMP-rehash event that
  /// makes lease handoff a steady-state path (ROADMAP item 2), and the
  /// fuzz campaign's lease-churn attack primitive.
  std::uint64_t ecmp_salt = 0;
};

class RoutingFabric {
 public:
  RoutingFabric(sim::Network& network, FabricConfig config = {});

  /// Declares that `node` owns `ip` (hosts, servers, switch protocol IPs).
  void AssignAddress(sim::Node* node, net::Ipv4Addr ip);

  /// Installs ECMP forwarders on every switch and computes initial routes.
  /// Call after the topology and addresses are final.
  void Install();

  /// Notifies the fabric of a node or link state change; routes recompute
  /// after the detection delay.  (FailureInjector calls this.)
  void NotifyTopologyChange();

  /// Immediate recompute (initial bring-up or tests).
  void RecomputeNow();

  /// Changes the ECMP hash salt (see FabricConfig::ecmp_salt).  Takes
  /// effect on the next forwarded packet — routes themselves are
  /// salt-independent, only the choice among equal-cost ports moves.
  void SetEcmpSalt(std::uint64_t salt) { config_.ecmp_salt = salt; }
  std::uint64_t ecmp_salt() const { return config_.ecmp_salt; }

  /// The node owning `ip`, if any.
  sim::Node* NodeFor(net::Ipv4Addr ip) const;

  /// Resolves the forwarding decision a given switch would make (exposed
  /// for tests).
  std::optional<PortId> NextHop(sim::Node* at, const net::Packet& pkt) const;

 private:
  void Rebuild();

  /// A run of route_ports_: the equal-cost output ports, ascending.
  struct PortRange {
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
  };

  sim::Network& network_;
  FabricConfig config_;
  obs::TraceHandle trace_{network_.sim().tracer_slot(), "fabric"};
  /// (ip, owner) sorted by ip; AssignAddress keeps it sorted, so a lookup
  /// is a binary search and a re-assignment takes effect immediately.
  std::vector<std::pair<std::uint32_t, sim::Node*>> by_ip_;
  /// Nodes in the network at the last Rebuild.
  std::size_t num_nodes_ = 0;
  /// routes_[at * num_nodes_ + dest]: candidate output ports at node `at`
  /// toward node `dest`; empty when unreachable or not a destination.
  std::vector<PortRange> routes_;
  std::vector<PortId> route_ports_;
  bool recompute_pending_ = false;
};

}  // namespace redplane::routing
