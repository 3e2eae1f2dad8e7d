// End-to-end integration tests on the full testbed topology: RedPlane
// applications on both aggregation switches, the chain-replicated state
// store, ECMP routing with failure detection, and real workloads.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "tests/audit_diag.h"

#include "apps/epc_sgw.h"
#include "apps/heavy_hitter.h"
#include "apps/nat.h"
#include "baselines/plain_pipeline.h"
#include "bench/harness.h"
#include "common/hash.h"
#include "core/redplane_switch.h"
#include "obs/tracer.h"
#include "routing/failure.h"
#include "routing/topology.h"
#include "statestore/partition.h"
#include "tcp/tcp.h"
#include "trace/workload.h"

namespace redplane {
namespace {

using routing::BuildTestbed;
using routing::ExternalHostIp;
using routing::RackServerIp;
using routing::Testbed;
using routing::TestbedConfig;

constexpr net::Ipv4Addr kInternalPrefix(192, 168, 0, 0);
constexpr std::uint32_t kInternalMask = 0xffff0000;
constexpr net::Ipv4Addr kNatExternalIp(100, 100, 0, 1);

/// ShapeFlowChurn as first written, with an ordered set: the reference the
/// hash-set version must match packet for packet.
void ShapeFlowChurnReference(std::vector<trace::TracePacket>& packets,
                             SimDuration min_gap) {
  std::vector<net::FlowKey> active;
  std::set<net::FlowKey> seen;
  SimTime last_intro = -min_gap;
  std::size_t reuse_cursor = 0;
  for (auto& pkt : packets) {
    if (seen.count(pkt.flow)) continue;
    if (pkt.time - last_intro >= min_gap || active.empty()) {
      seen.insert(pkt.flow);
      active.push_back(pkt.flow);
      last_intro = pkt.time;
    } else {
      pkt.flow = active[reuse_cursor++ % active.size()];
    }
  }
}

TEST(BenchHarnessTest, ShapeFlowChurnMatchesOrderedSetReference) {
  for (const double theta : {1.1, 0.0}) {
    Rng rng(11);
    trace::FlowMixConfig mix;
    mix.num_packets = 20000;
    mix.num_flows = 3000;
    mix.zipf_theta = theta;
    mix.mean_interarrival = Microseconds(1);
    const std::vector<trace::TracePacket> generated =
        trace::GenerateFlowMix(rng, mix);
    std::vector<trace::TracePacket> shaped = generated;
    std::vector<trace::TracePacket> reference = generated;
    bench::ShapeFlowChurn(shaped, Microseconds(20));
    ShapeFlowChurnReference(reference, Microseconds(20));
    ASSERT_EQ(shaped.size(), reference.size());
    std::size_t remapped = 0;
    for (std::size_t i = 0; i < shaped.size(); ++i) {
      ASSERT_EQ(shaped[i].flow, reference[i].flow) << "theta " << theta
                                                   << " packet " << i;
      ASSERT_EQ(shaped[i].time, reference[i].time);
      ASSERT_EQ(shaped[i].size_bytes, reference[i].size_bytes);
      if (!(shaped[i].flow == generated[i].flow)) ++remapped;
    }
    // The gap actually throttles introductions, so the check is not vacuous.
    EXPECT_GT(remapped, 1000u) << "theta " << theta;
  }
}

TEST(IntegrationTest, NatCarriesTrafficBothWaysThroughFabric) {
  // The NAT external IP must be routable to nothing (it is the NAT itself);
  // outbound packets leave toward the external host after translation.
  apps::NatGlobalState nat_global(kNatExternalIp, 5000, 1024, kInternalPrefix,
                                  kInternalMask);
  apps::NatApp nat(nat_global);
  // Store initializer consults the NAT's shared state.
  TestbedConfig cfg;
  cfg.store.initializer = [&nat_global](const net::PartitionKey& key) {
    return nat_global.InitializeFlow(key);
  };
  bench::Deployment d;
  d.Build(cfg);
  sim::Simulator& sim = d.sim();
  Testbed& tb = d.testbed();
  d.DeployRedPlane(nat);
  // External hosts must be able to route to the NAT external IP: traffic to
  // it terminates at the aggregation layer, which rewrites and re-routes.
  // Here the reply path targets the NAT IP; assign it to both agg switches'
  // pipelines by registering the address on agg0 (ECMP affinity keeps each
  // flow on one switch anyway).
  d.AnycastToAgg(kNatExternalIp, 0);

  int server_got = 0;
  int client_got = 0;
  // Internal client: rack server 0/0 talks to external host 0 through NAT.
  tb.external[0]->SetHandler([&](sim::HostNode& self, net::Packet pkt) {
    ++server_got;
    // Echo back toward the NAT'd source.
    auto flow = pkt.Flow();
    ASSERT_TRUE(flow.has_value());
    net::Packet reply = net::MakeUdpPacket(flow->Reversed(), 10);
    self.Send(std::move(reply));
  });
  tb.rack_servers[0][0]->SetHandler(
      [&](sim::HostNode&, net::Packet) { ++client_got; });

  net::FlowKey flow{RackServerIp(0, 0), ExternalHostIp(0), 7777, 80,
                    net::IpProto::kUdp};
  for (int i = 0; i < 3; ++i) {
    tb.rack_servers[0][0]->Send(net::MakeUdpPacket(flow, 100));
    sim.RunUntil(sim.Now() + Milliseconds(1));
  }
  sim.Run();
  EXPECT_EQ(server_got, 3);
  EXPECT_EQ(client_got, 3);
}

TEST(IntegrationTest, EpcSgwFailoverKeepsSessions) {
  apps::EpcSgwApp sgw;
  TestbedConfig cfg;
  cfg.store.lease_period = Milliseconds(50);
  cfg.fabric.failure_detection_delay = Milliseconds(5);
  bench::Deployment d;
  d.Build(cfg);
  sim::Simulator& sim = d.sim();
  Testbed& tb = d.testbed();
  core::RedPlaneConfig rp_cfg;
  rp_cfg.lease_period = Milliseconds(50);
  rp_cfg.renew_interval = Milliseconds(25);
  d.DeployRedPlane(sgw, rp_cfg);
  routing::FailureInjector injector(sim, *tb.fabric);

  const net::Ipv4Addr user = RackServerIp(0, 1);
  int data_delivered = 0;
  tb.rack_servers[0][1]->SetHandler(
      [&](sim::HostNode&, net::Packet) { ++data_delivered; });

  // Attach the user (signaling through whatever agg switch ECMP picks).
  tb.external[0]->Send(apps::MakeSgwSignalingPacket(ExternalHostIp(0), user,
                                                    777,
                                                    net::Ipv4Addr(1, 1, 1, 1)));
  sim.RunUntil(sim.Now() + Milliseconds(5));

  net::FlowKey data{ExternalHostIp(0), user, 40000, apps::kSgwDataPort,
                    net::IpProto::kUdp};
  for (int i = 0; i < 5; ++i) {
    tb.external[0]->Send(net::MakeUdpPacket(data, 200));
  }
  // The data flow may ECMP onto the other aggregation switch than the
  // signaling did; that switch acquires the lease once the signaling
  // switch's lease lapses (50 ms), with the packets parked at the store.
  sim.RunUntil(sim.Now() + Milliseconds(150));
  EXPECT_EQ(data_delivered, 6);  // 5 data + the signaling ack

  // Kill whichever aggregation switch carries the flow.
  const double agg0_pkts = d.redplane(0)->stats().Get("app_pkts");
  dp::SwitchNode* active = agg0_pkts > 0 ? tb.agg[0] : tb.agg[1];
  injector.FailNode(active);
  sim.RunUntil(sim.Now() + Milliseconds(100));  // detection + lease lapse

  // Sessions survive: data flows through the other switch with the bearer
  // state migrated from the store (no re-attach signaling needed).
  for (int i = 0; i < 5; ++i) {
    tb.external[0]->Send(net::MakeUdpPacket(data, 200));
    sim.RunUntil(sim.Now() + Milliseconds(2));
  }
  sim.RunUntil(sim.Now() + Milliseconds(100));
  EXPECT_GE(data_delivered, 10);  // at most one in-transition packet lost
}

TEST(IntegrationTest, EpcSgwWithoutRedPlaneBreaksSessionsOnFailure) {
  sim::Simulator sim;
  TestbedConfig cfg;
  cfg.fabric.failure_detection_delay = Milliseconds(5);
  Testbed tb = BuildTestbed(sim, cfg);
  // Plain (non-fault-tolerant) SGW on both switches.
  apps::EpcSgwApp sgw;
  baselines::PlainAppPipeline p0(*tb.agg[0], sgw);
  baselines::PlainAppPipeline p1(*tb.agg[1], sgw);
  tb.agg[0]->SetPipeline(&p0);
  tb.agg[1]->SetPipeline(&p1);
  routing::FailureInjector injector(sim, *tb.fabric);

  const net::Ipv4Addr user = RackServerIp(0, 1);
  int data_delivered = 0;
  tb.rack_servers[0][1]->SetHandler(
      [&](sim::HostNode&, net::Packet) { ++data_delivered; });
  tb.external[0]->Send(apps::MakeSgwSignalingPacket(ExternalHostIp(0), user,
                                                    777,
                                                    net::Ipv4Addr(1, 1, 1, 1)));
  sim.RunUntil(sim.Now() + Milliseconds(5));
  net::FlowKey data{ExternalHostIp(0), user, 40000, apps::kSgwDataPort,
                    net::IpProto::kUdp};
  tb.external[0]->Send(net::MakeUdpPacket(data, 200));
  sim.RunUntil(sim.Now() + Milliseconds(10));
  EXPECT_EQ(data_delivered, 1);

  const double agg0_pkts = p0.stats().Get("app_pkts");
  injector.FailNode(agg0_pkts > 0 ? tb.agg[0] : tb.agg[1]);
  sim.RunUntil(sim.Now() + Milliseconds(50));
  // Rerouted data hits a switch with no bearer state: dropped forever
  // (Table 1's "active session broken").
  for (int i = 0; i < 5; ++i) {
    tb.external[0]->Send(net::MakeUdpPacket(data, 200));
    sim.RunUntil(sim.Now() + Milliseconds(2));
  }
  sim.Run();
  EXPECT_EQ(data_delivered, 1);
}

TEST(IntegrationTest, HeavyHitterSnapshotsReachStoreWithinEpsilon) {
  obs::Tracer tracer;
  apps::HeavyHitterConfig hh_cfg;
  hh_cfg.vlans = {1};
  apps::HeavyHitterApp hh(hh_cfg);
  bench::Deployment d;
  d.Build();
  sim::Simulator& sim = d.sim();
  Testbed& tb = d.testbed();
  sim.AttachTracer(tracer);
  tracer.SetEnabled(true);
  int delivered = 0;
  tb.rack_servers[0][0]->SetHandler(
      [&delivered](sim::HostNode&, net::Packet) { ++delivered; });
  core::RedPlaneConfig rp_cfg;
  rp_cfg.snapshot_period = Milliseconds(1);
  d.DeployRedPlane(hh, rp_cfg);
  ASSERT_EQ(d.redplane(0)->spec().mode, core::ConsistencyMode::kSnapshot);
  d.redplane(0)->StartSnapshotReplication();

  // Tagged tenant traffic through agg0 (inject directly at the switch so
  // the sketch on agg0 sees it regardless of ECMP).
  net::FlowKey f{ExternalHostIp(0), RackServerIp(0, 0), 1234, 80,
                 net::IpProto::kUdp};
  for (int i = 0; i < 300; ++i) {
    auto pkt = net::MakeUdpPacket(f, 0);
    pkt.vlan = 1;
    tb.agg[0]->HandlePacket(std::move(pkt), 0);
    sim.RunUntil(sim.Now() + Microseconds(20));
  }
  sim.RunUntil(sim.Now() + Milliseconds(5));

  // The store holds a complete snapshot of the sketch.
  const auto* rec = tb.store[0]->Find(net::PartitionKey::OfVlan(1));
  ASSERT_NE(rec, nullptr);
  ASSERT_TRUE(rec->mode);
  EXPECT_EQ(rec->mode->snapshot_slots.size(), 64u);
  // Sum the per-slot counts of row 0: must equal (approximately, within the
  // snapshot lag) the 300 updates.
  std::uint64_t total = 0;
  for (const auto& [idx, slot] : rec->mode->snapshot_slots) {
    net::ByteReader r(slot.first);
    total += r.U32();  // row 0's counter for this index
  }
  EXPECT_GE(total, 250u);
  EXPECT_LE(total, 300u);
  // ε accounting saw completed rounds.
  ASSERT_NE(d.redplane(0)->epsilon_tracker(), nullptr);
  const auto staleness = d.redplane(0)->epsilon_tracker()->Staleness(
      net::PartitionKey::OfVlan(1), sim.Now());
  EXPECT_GE(staleness, 0);
  EXPECT_LE(staleness, Milliseconds(10));
  EXPECT_DOUBLE_EQ(d.redplane(0)->stats().Get("epsilon_violations"), 0.0);

  // Pinned: the snapshot-mode run's event count, deliveries and Chrome
  // trace.  A change that moves any of them must update them on purpose.
  EXPECT_EQ(tracer.emitted(), 13112u);
  EXPECT_EQ(delivered, 300);
  EXPECT_EQ(Fnv1a64(tracer.ChromeTraceJson()), 17980021451334238438ull);
}

TEST(IntegrationTest, TcpThroughNatSurvivesSwitchFailure) {
  // Miniature of the paper's Fig. 14: an iperf-like TCP flow through a
  // RedPlane NAT; the carrying aggregation switch fails mid-flow; goodput
  // collapses and then recovers once rerouting + state migration complete.
  TestbedConfig cfg;
  cfg.store.lease_period = Milliseconds(100);
  cfg.fabric.failure_detection_delay = Milliseconds(50);
  // Scale the fabric to 1 Gbps so a minute-scale TCP flow is tractable to
  // simulate packet by packet; the failover dynamics are rate-independent.
  cfg.fabric_link.bandwidth_bps = 1e9;
  cfg.host_link.bandwidth_bps = 1e9;
  apps::NatGlobalState nat_global(kNatExternalIp, 5000, 128, kInternalPrefix,
                                  kInternalMask);
  cfg.store.initializer = [&nat_global](const net::PartitionKey& key) {
    return nat_global.InitializeFlow(key);
  };
  apps::NatApp nat(nat_global);
  bench::Deployment d;
  d.Build(cfg);
  sim::Simulator& sim = d.sim();
  Testbed& tb = d.testbed();
  core::RedPlaneConfig rp_cfg;
  rp_cfg.lease_period = Milliseconds(100);
  rp_cfg.renew_interval = Milliseconds(50);
  d.DeployRedPlane(nat, rp_cfg);
  routing::FailureInjector injector(sim, *tb.fabric);

  // TCP endpoints: sender inside the rack, receiver outside.  Replace one
  // rack server and one external host with TCP nodes.
  auto* sender = tb.network->AddNode<tcp::TcpSenderNode>(
      "tcpsnd", net::Ipv4Addr(192, 168, 10, 50));
  auto* receiver = tb.network->AddNode<tcp::TcpReceiverNode>(
      "tcprcv", net::Ipv4Addr(10, 0, 0, 50), 5001);
  tb.network->Connect(sender, 0, tb.tor[0], 6);
  tb.network->Connect(receiver, 0, tb.core, 8);
  tb.fabric->AssignAddress(sender, sender->ip());
  tb.fabric->AssignAddress(receiver, receiver->ip());
  // Return traffic targets the NAT external address, which terminates at
  // the aggregation layer; route it to both switches via agg0's address
  // (after a failure the fabric recomputes toward the survivor).
  tb.fabric->AssignAddress(tb.agg[0], kNatExternalIp);
  tb.fabric->RecomputeNow();

  sender->Start({sender->ip(), receiver->ip(), 40000, 5001,
                 net::IpProto::kTcp});
  sim.RunUntil(Milliseconds(400));
  const std::uint64_t before_failure = receiver->bytes_delivered();
  EXPECT_GT(before_failure, 100'000u);

  // Fail the switch that carries the flow.
  dp::SwitchNode* active = d.redplane(0)->stats().Get("app_pkts") >
                                   d.redplane(1)->stats().Get("app_pkts")
                               ? tb.agg[0]
                               : tb.agg[1];
  dp::SwitchNode* standby = active == tb.agg[0] ? tb.agg[1] : tb.agg[0];
  injector.FailNode(active);
  if (active == tb.agg[0]) {
    // Move the NAT address to the surviving switch (anycast re-advertise).
    tb.fabric->AssignAddress(standby, kNatExternalIp);
  }
  sim.RunUntil(Milliseconds(2000));
  const std::uint64_t after_recovery = receiver->bytes_delivered();
  // The connection survived the failure and kept making progress through
  // the standby switch using migrated NAT state.
  EXPECT_GT(after_recovery, before_failure + 100'000u);

  // Goodput timeline: traffic before, a dip at failure, recovery after.
  const TimeSeries& g = receiver->goodput();
  EXPECT_GT(g.BucketSum(2), 0.0);                   // before failure
  EXPECT_GT(g.BucketSum(g.NumBuckets() - 2), 0.0);  // after recovery
}

TEST(IntegrationTest, ChainStoreServerFailureMidRunStillAnswersFromHead) {
  // The store head keeps serving if a downstream replica fails after
  // commits (we do not reconfigure the chain mid-run; this bounds the
  // blast radius the chain protects against).
  apps::EpcSgwApp sgw;
  TestbedConfig cfg;
  cfg.store_chain_size = 3;
  bench::Deployment d;
  d.Build(cfg);
  sim::Simulator& sim = d.sim();
  Testbed& tb = d.testbed();
  d.DeployRedPlane(sgw);

  const net::Ipv4Addr user = RackServerIp(0, 1);
  int delivered = 0;
  tb.rack_servers[0][1]->SetHandler(
      [&](sim::HostNode&, net::Packet) { ++delivered; });
  tb.external[0]->Send(apps::MakeSgwSignalingPacket(ExternalHostIp(0), user,
                                                    42,
                                                    net::Ipv4Addr(1, 1, 1, 1)));
  sim.RunUntil(sim.Now() + Milliseconds(10));
  // All three replicas have the bearer.
  for (auto* server : tb.store) {
    EXPECT_NE(server->Find(net::PartitionKey::OfObject(user.value)), nullptr)
        << server->name();
  }
  net::FlowKey data{ExternalHostIp(0), user, 40000, apps::kSgwDataPort,
                    net::IpProto::kUdp};
  tb.external[0]->Send(net::MakeUdpPacket(data, 100));
  sim.Run();
  EXPECT_EQ(delivered, 2);  // signaling ack + the data packet
}

TEST(IntegrationTest, TracedNatFailoverEmitsRehomeSequence) {
  constexpr net::Ipv4Addr kNatIp(100, 100, 0, 1);
  apps::NatGlobalState nat_global(kNatIp, 5000, 256, kInternalPrefix,
                                  kInternalMask);
  apps::NatApp nat(nat_global);
  TestbedConfig cfg;
  cfg.store.lease_period = Milliseconds(50);
  cfg.fabric.failure_detection_delay = Milliseconds(5);
  cfg.store.initializer = [&nat_global](const net::PartitionKey& key) {
    return nat_global.InitializeFlow(key);
  };
  obs::Tracer tracer;
  bench::Deployment d;
  d.Build(cfg);
  sim::Simulator& sim = d.sim();
  Testbed& tb = d.testbed();
  sim.AttachTracer(tracer);
  tracer.SetEnabled(true);

  core::RedPlaneConfig rp_cfg;
  rp_cfg.lease_period = Milliseconds(50);
  rp_cfg.renew_interval = Milliseconds(25);
  d.DeployRedPlane(nat, rp_cfg);
  d.AnycastToAgg(kNatIp, 0);
  routing::FailureInjector injector(sim, *tb.fabric);

  tb.external[0]->SetHandler([](sim::HostNode& self, net::Packet pkt) {
    if (auto f = pkt.Flow()) self.Send(net::MakeUdpPacket(f->Reversed(), 10));
  });
  net::FlowKey flow{RackServerIp(0, 0), ExternalHostIp(0), 7777, 80,
                    net::IpProto::kUdp};
  tb.rack_servers[0][0]->Send(net::MakeUdpPacket(flow, 100));
  sim.RunUntil(sim.Now() + Milliseconds(10));

  // Kill the switch holding this flow's lease (reverse-direction traffic
  // gives the other switch app packets too, so consult the flow table),
  // then keep traffic flowing so the standby rehomes the mapping.
  const auto key = net::PartitionKey::OfFlow(flow);
  const int active = d.redplane(0)->flow_table().Find(key) ? 0 : 1;
  ASSERT_TRUE(d.redplane(active)->flow_table().Find(key));
  injector.FailNode(tb.agg[active]);
  tb.fabric->AssignAddress(tb.agg[1 - active], kNatIp);
  for (int i = 0; i < 30; ++i) {
    tb.rack_servers[0][0]->Send(net::MakeUdpPacket(flow, 100));
    sim.RunUntil(sim.Now() + Milliseconds(5));
  }
  sim.Run();

  EXPECT_GT(d.redplane(1 - active)->stats().Get("grants_migrate"), 0.0);

  // The flow's lifecycle, filtered by its partition-key hash, must show the
  // failover sequence: lease acquired on the active switch, node failure,
  // then a lease miss on the standby resolved by a migrate grant (rehome).
  obs::TraceFilter filter;
  filter.flow = net::HashPartitionKey(key);
  const auto records = tracer.Records(filter);
  ASSERT_FALSE(records.empty());
  auto find_after = [&](std::size_t from, obs::Ev ev) -> std::size_t {
    for (std::size_t i = from; i < records.size(); ++i) {
      if (records[i].ev == ev) return i;
    }
    return records.size();
  };
  const std::size_t first_miss = find_after(0, obs::Ev::kLeaseMiss);
  const std::size_t first_grant = find_after(first_miss, obs::Ev::kLeaseGrant);
  ASSERT_LT(first_grant, records.size());

  // The failure itself is a non-flow event; locate it in the full stream.
  const auto all = tracer.Records();
  std::size_t failure_order = 0;
  for (const auto& r : all) {
    if (r.ev == obs::Ev::kNodeFailure) {
      failure_order = r.order;
      break;
    }
  }
  ASSERT_GT(failure_order, 0u);
  EXPECT_LT(records[first_grant].order, failure_order);

  // After the failure: a new miss on the standby, answered by a rehome.
  std::size_t post_miss = records.size();
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].ev == obs::Ev::kLeaseMiss &&
        records[i].order > failure_order) {
      post_miss = i;
      break;
    }
  }
  ASSERT_LT(post_miss, records.size());
  const std::size_t rehome = find_after(post_miss, obs::Ev::kFailoverRehome);
  ASSERT_LT(rehome, records.size());
  EXPECT_EQ(tracer.ComponentName(records[post_miss].component),
            tracer.ComponentName(records[rehome].component));
}

}  // namespace
}  // namespace redplane
