// Table 1: the impact of a switch failure on each class of stateful
// in-switch application, demonstrated end to end — and the same scenario
// with RedPlane, where the impact disappears.
//
// For each application we establish state through one aggregation switch,
// fail it, reroute, and report the application-level symptom.
#include <cstdio>
#include <sstream>

#include "harness.h"
#include "net/codec.h"
#include "obs/recovery.h"
#include "obs/tracer.h"

using namespace redplane;
using namespace redplane::bench;

namespace {

struct Impact {
  std::string without_redplane;
  std::string with_redplane;
  /// Phase decomposition of the with-RedPlane failover (obs/recovery.h);
  /// empty for scenarios that do not run a service-resuming failover.
  std::string recovery_timeline;
};

struct FailureRig {
  Deployment deploy;
  routing::Testbed* tb = nullptr;
  std::unique_ptr<routing::FailureInjector> injector;
  /// Carries the record stream into the tracker; its ring stays disabled.
  obs::Tracer tracer;
  obs::Tracer* prev_tracer = nullptr;
  bool forensics_armed = false;
  obs::RecoveryTracker tracker;

  ~FailureRig() {
    if (forensics_armed) obs::SetGlobalTracer(prev_tracer);
  }

  void Build(std::function<std::vector<std::byte>(const net::PartitionKey&)>
                 initializer = nullptr) {
    routing::TestbedConfig config;
    config.store.lease_period = Milliseconds(50);
    config.fabric.failure_detection_delay = Milliseconds(5);
    config.store.initializer = std::move(initializer);
    deploy.Build(config);
    tb = &deploy.testbed();
    injector =
        std::make_unique<routing::FailureInjector>(deploy.sim(), *tb->fabric);
  }

  core::RedPlaneConfig RpConfig() {
    core::RedPlaneConfig rp;
    rp.lease_period = Milliseconds(50);
    rp.renew_interval = Milliseconds(25);
    return rp;
  }

  /// Pins all traffic to agg0 (single-switch operation) so state
  /// placement is deterministic.  Call right after Build().
  void PinToAgg0() {
    injector->FailNode(tb->agg[1]);
    deploy.sim().RunUntil(deploy.sim().Now() + Milliseconds(50));
  }

  /// Fails the state-holding switch (agg0) and brings the empty standby
  /// (agg1) up; waits out detection + lease migration.
  void FailOver() {
    auto& sim = deploy.sim();
    injector->RecoverNode(tb->agg[1]);
    injector->FailNode(tb->agg[0]);
    sim.RunUntil(sim.Now() + Milliseconds(200));
  }

  /// Subscribes the recovery tracker to the record stream.  Call right
  /// before FailOver() — PinToAgg0's deliberate agg1 failure would
  /// otherwise open a bogus episode.
  void ArmForensics() {
    auto& sim = deploy.sim();
    tracer.SetClock([&sim] { return sim.Now(); });
    tracer.Subscribe(
        [this](const obs::TraceRecord& r) { tracker.OnRecord(r); });
    prev_tracer = obs::SetGlobalTracer(&tracer);
    forensics_armed = true;
  }

  /// Finalizes the tracker and renders the per-phase timeline.
  std::string TimelineText() {
    tracker.Finalize(deploy.sim().Now());
    std::ostringstream os;
    tracker.PrintTimeline(os);
    return os.str();
  }
};

/// Firewall: established connection's return traffic after failover.
Impact FirewallImpact() {
  Impact impact;
  for (bool redplane : {false, true}) {
    FailureRig s;
    s.Build();
    apps::FirewallApp fw(kInternalPrefix, kInternalMask);
    if (redplane) {
      s.deploy.DeployRedPlane(fw, s.RpConfig());
    } else {
      s.deploy.DeployPlain(fw);
    }
    s.PinToAgg0();
    auto& sim = s.deploy.sim();
    int inbound_delivered = 0;
    s.tb->rack_servers[0][0]->SetHandler(
        [&](sim::HostNode&, net::Packet) { ++inbound_delivered; });
    net::FlowKey out{routing::RackServerIp(0, 0), routing::ExternalHostIp(0),
                     7000, 80, net::IpProto::kTcp};
    // Outbound SYN establishes; inbound reply admitted.
    s.tb->rack_servers[0][0]->Send(
        net::MakeTcpPacket(out, net::TcpFlags::kSyn, 1, 0, 0));
    sim.RunUntil(sim.Now() + Milliseconds(60));
    s.tb->external[0]->Send(
        net::MakeTcpPacket(out.Reversed(), net::TcpFlags::kAck, 1, 2, 10));
    sim.RunUntil(sim.Now() + Milliseconds(20));
    const int before = inbound_delivered;

    if (redplane) s.ArmForensics();
    s.FailOver();
    s.tb->external[0]->Send(
        net::MakeTcpPacket(out.Reversed(), net::TcpFlags::kAck, 2, 2, 10));
    sim.RunUntil(sim.Now() + Milliseconds(200));
    const bool broken = inbound_delivered == before;
    auto& field = redplane ? impact.with_redplane : impact.without_redplane;
    field = broken ? "connection broken (valid reply dropped)"
                   : "connection intact";
    if (redplane) impact.recovery_timeline = s.TimelineText();
  }
  return impact;
}

/// EPC-SGW: active session data after failover.
Impact SgwImpact() {
  Impact impact;
  for (bool redplane : {false, true}) {
    FailureRig s;
    s.Build();
    apps::EpcSgwApp sgw;
    if (redplane) {
      s.deploy.DeployRedPlane(sgw, s.RpConfig());
    } else {
      s.deploy.DeployPlain(sgw);
    }
    s.PinToAgg0();
    auto& sim = s.deploy.sim();
    int delivered = 0;
    s.tb->rack_servers[0][1]->SetHandler(
        [&](sim::HostNode&, net::Packet) { ++delivered; });
    const net::Ipv4Addr user = routing::RackServerIp(0, 1);
    s.tb->external[0]->Send(apps::MakeSgwSignalingPacket(
        routing::ExternalHostIp(0), user, 77, net::Ipv4Addr(1, 1, 1, 1)));
    sim.RunUntil(sim.Now() + Milliseconds(60));
    net::FlowKey data{routing::ExternalHostIp(0), user, 40000,
                      apps::kSgwDataPort, net::IpProto::kUdp};
    s.tb->external[0]->Send(net::MakeUdpPacket(data, 100));
    sim.RunUntil(sim.Now() + Milliseconds(100));
    const int before = delivered;

    if (redplane) s.ArmForensics();
    s.FailOver();
    s.tb->external[0]->Send(net::MakeUdpPacket(data, 100));
    sim.RunUntil(sim.Now() + Milliseconds(300));
    auto& field = redplane ? impact.with_redplane : impact.without_redplane;
    field = delivered == before ? "active session broken (data dropped)"
                                : "session continues";
    if (redplane) impact.recovery_timeline = s.TimelineText();
  }
  return impact;
}

/// Heavy-hitter detection: detection accuracy after failover.
Impact HeavyHitterImpact() {
  Impact impact;
  for (bool redplane : {false, true}) {
    FailureRig s;
    s.Build();
    apps::HeavyHitterConfig cfg;
    cfg.vlans = {1};
    cfg.threshold = 200;
    apps::HeavyHitterApp hh(cfg);
    core::RedPlaneConfig rp = s.RpConfig();
    rp.linearizable = false;
    rp.snapshot_period = Milliseconds(1);
    if (redplane) {
      s.deploy.DeployRedPlane(hh, rp);
      s.deploy.redplane(0)->StartSnapshotReplication(hh);
    } else {
      s.deploy.DeployPlain(hh);
    }
    auto& sim = s.deploy.sim();
    net::FlowKey heavy{routing::ExternalHostIp(0), routing::RackServerIp(0, 0),
                       1234, 80, net::IpProto::kUdp};
    for (int i = 0; i < 150; ++i) {
      auto pkt = net::MakeUdpPacket(heavy, 0);
      pkt.vlan = 1;
      s.tb->agg[0]->HandlePacket(std::move(pkt), 0);
      sim.RunUntil(sim.Now() + Microseconds(30));
    }
    sim.RunUntil(sim.Now() + Milliseconds(5));

    // Fail the switch; the recovered count comes from the store snapshot
    // (RedPlane) or restarts from zero (plain).
    s.injector->FailNode(s.tb->agg[0]);
    sim.RunUntil(sim.Now() + Milliseconds(10));
    std::uint64_t recovered = 0;
    if (redplane) {
      const auto* rec = s.tb->store[0]->Find(net::PartitionKey::OfVlan(1));
      if (rec != nullptr) {
        for (const auto& [idx, slot] : rec->snapshot_slots) {
          net::ByteReader r(slot.first);
          recovered += r.U32();
        }
      }
    }
    auto& field = redplane ? impact.with_redplane : impact.without_redplane;
    if (recovered >= 140) {
      field = "statistics recovered (" + std::to_string(recovered) +
              "/150 updates)";
    } else {
      field = "inaccurate detection (statistics lost: " +
              std::to_string(recovered) + "/150)";
    }
  }
  return impact;
}

/// KV store: stored values after failover.
Impact KvImpact() {
  Impact impact;
  for (bool redplane : {false, true}) {
    FailureRig s;
    s.Build();
    apps::KvStoreApp kv;
    if (redplane) {
      s.deploy.DeployRedPlane(kv, s.RpConfig());
    } else {
      s.deploy.DeployPlain(kv);
    }
    s.PinToAgg0();
    auto& sim = s.deploy.sim();
    std::uint64_t read_value = 0;
    int replies = 0;
    s.tb->external[0]->SetHandler([&](sim::HostNode&, net::Packet pkt) {
      net::ByteReader r(pkt.payload);
      r.U8();
      r.U64();
      read_value = r.U64();
      ++replies;
    });
    net::FlowKey client{routing::ExternalHostIp(0),
                        routing::RackServerIp(0, 0), 3333, apps::kKvUdpPort,
                        net::IpProto::kUdp};
    s.tb->external[0]->Send(
        apps::MakeKvPacket(client, {apps::KvOp::kUpdate, 7, 4242}));
    sim.RunUntil(sim.Now() + Milliseconds(100));

    if (redplane) s.ArmForensics();
    s.FailOver();
    s.tb->external[0]->Send(
        apps::MakeKvPacket(client, {apps::KvOp::kRead, 7, 0}));
    sim.RunUntil(sim.Now() + Milliseconds(300));
    auto& field = redplane ? impact.with_redplane : impact.without_redplane;
    if (replies >= 2 && read_value == 4242) {
      field = "key-value pair preserved";
    } else {
      field = "key-value pair lost (read returned " +
              std::to_string(read_value) + ")";
    }
    if (redplane) impact.recovery_timeline = s.TimelineText();
  }
  return impact;
}

}  // namespace

int main() {
  std::printf("=== Table 1: impact of switch failure, demonstrated ===\n\n");
  TablePrinter table({"Application", "Without RedPlane", "With RedPlane"});
  const Impact fw = FirewallImpact();
  table.Row({"Stateful firewall", fw.without_redplane, fw.with_redplane});
  const Impact sgw = SgwImpact();
  table.Row({"EPC-SGW", sgw.without_redplane, sgw.with_redplane});
  const Impact hh = HeavyHitterImpact();
  table.Row({"HH detection", hh.without_redplane, hh.with_redplane});
  const Impact kv = KvImpact();
  table.Row({"In-network KV store", kv.without_redplane, kv.with_redplane});
  std::printf("\n(The NAT/load-balancer rows are exercised end to end by "
              "the nat_failover example and the Fig. 14 bench.)\n");

  // With-RedPlane failover decomposition per application: downtime maps to
  // the configured failure-detection delay (5 ms) plus the lease period
  // (50 ms), as in the paper's recovery model.
  std::printf("\n=== Recovery decomposition (With RedPlane; detection 5 ms, "
              "lease 50 ms) ===\n");
  const std::pair<const char*, const Impact*> rows[] = {
      {"Stateful firewall", &fw}, {"EPC-SGW", &sgw}, {"In-network KV", &kv}};
  for (const auto& [name, impact] : rows) {
    if (impact->recovery_timeline.empty()) continue;
    std::printf("\n%s:\n%s", name, impact->recovery_timeline.c_str());
  }
  return 0;
}
