// One test deployment for the protocol unit tests: the star of src and dst
// hosts, one or two RedPlane switches, a hub and N state-store servers that
// every protocol test drives.
//
// Each switch has port 0 to src, port 1 to dst and port 2 to the hub; the
// hub routes by destination IP to a switch or a store.  Stores are either a
// chain (head → tail) or independent shards.  Every switch runs one
// RedPlaneSwitch whose shard lookup defaults to the head.
//
// Links are created in one fixed order (src–switches, dst–switches,
// switches–hub, stores–hub): sim::Network forks each link's RNG from its
// index, so this order is what keeps a seed's losses and jitter unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "apps/counter.h"
#include "audit/auditor.h"
#include "audit/diag.h"
#include "core/redplane_switch.h"
#include "dataplane/pipeline.h"
#include "obs/tracer.h"
#include "sim/host.h"
#include "sim/network.h"
#include "statestore/server.h"

namespace redplane::testing {

constexpr net::Ipv4Addr kSrcIp(10, 0, 0, 1);
constexpr net::Ipv4Addr kDstIp(192, 168, 10, 1);
/// Switch i is 172.16.0.(i+1); store i is 172.16.1.(i+1).
constexpr net::Ipv4Addr kSw1Ip(172, 16, 0, 1);
constexpr net::Ipv4Addr kSw2Ip(172, 16, 0, 2);
constexpr net::Ipv4Addr kStoreIp(172, 16, 1, 1);

struct RigOptions {
  std::uint64_t seed = 1;
  int switches = 2;
  int stores = 1;
  /// Wire the stores as one chain (store0 head … last tail); otherwise each
  /// store is an independent shard.
  bool chain = false;
  core::RedPlaneConfig rp{};
  /// Every store's config; its lease_period is taken from `rp`.
  store::StoreConfig store{};
  /// Applied to store0 only.
  store::StoreConfig::ProtocolMutations head_mutations{};
  /// The switch↔hub links.
  sim::LinkConfig switch_link{};
  /// Attaches `tracer` to the rig's simulator, ring enabled, with `auditor`
  /// subscribed to it and the tracer's tail in the on-failure diagnostics.
  /// Each rig records its own stream, so rigs may run side by side.
  bool audit = false;
};

/// Each rig's simulator numbers its own packets, so a rig's trace export is
/// the same whatever ran before it in the process.
class Rig {
  // The app deployed when the caller supplies none; declared first so it
  // outlives the switches that hold it.
  apps::SyncCounterApp counter_;

 public:
  /// Deploys a per-flow counter (apps::SyncCounterApp).
  explicit Rig(RigOptions opt = {});
  Rig(core::SwitchApp& app, RigOptions opt);
  ~Rig();

  void Run(SimDuration d) { sim.RunUntil(sim.Now() + d); }

  // Declared before the simulator, which detaches the tracer when it dies.
  obs::Tracer tracer;
  audit::Auditor auditor;

  sim::Simulator sim;
  sim::Network net;
  sim::HostNode* src = nullptr;
  sim::HostNode* dst = nullptr;
  sim::HostNode* hub = nullptr;
  std::vector<dp::SwitchNode*> sw;
  std::vector<store::StateStoreServer*> stores;
  std::vector<std::unique_ptr<core::RedPlaneSwitch>> rp;

  /// Deliveries at dst, and packets the hub dropped through `hub_drop`.
  int delivered = 0;
  int hub_dropped = 0;
  /// Optional hooks, read on every use, so they may be set after
  /// construction.
  std::function<net::Ipv4Addr(const net::PartitionKey&)> shard_for;
  std::function<bool(const net::Packet&)> hub_drop;
  std::function<void(const net::Packet&)> on_deliver;

 private:
  audit::DiagToken tracer_tail_;
};

/// Per-flow counter whose output carries (the input's marker, count), so a
/// receiver can rebuild the history for linearizability checks.  Pair with
/// StampedPacket and ParseEcho.
class CountingEchoApp : public core::SwitchApp {
 public:
  std::string_view name() const override { return "counting_echo"; }
  core::ProcessResult Process(core::AppContext&, net::Packet pkt,
                              std::vector<std::byte>& state) override;
};

/// Read-only echo: forwards every packet, never writes state, so its flows
/// are renew-driven.
class ReadEchoApp : public core::SwitchApp {
 public:
  std::string_view name() const override { return "read_echo"; }
  core::ProcessResult Process(core::AppContext&, net::Packet pkt,
                              std::vector<std::byte>&) override {
    core::ProcessResult result;
    result.output = std::move(pkt);
    return result;
  }
};

/// A UDP packet of `flow` whose payload is `marker`.  The marker names the
/// input in a history; packet ids cannot, because a packet buffered during
/// failover is re-injected under a new id.
net::Packet StampedPacket(const net::FlowKey& flow, std::uint64_t marker);

struct Echo {
  std::uint64_t marker = 0;
  std::uint64_t count = 0;
};
/// Decodes a CountingEchoApp output; nullopt if the payload is too short.
std::optional<Echo> ParseEcho(const net::Packet& pkt);

}  // namespace redplane::testing
