#include <gtest/gtest.h>

#include <set>

#include "common/hash.h"
#include "routing/failure.h"
#include "routing/topology.h"

namespace redplane::routing {
namespace {

net::Packet PacketTo(net::Ipv4Addr src, net::Ipv4Addr dst,
                     std::uint16_t src_port = 1000) {
  net::FlowKey f{src, dst, src_port, 80, net::IpProto::kUdp};
  return net::MakeUdpPacket(f, 10);
}

TEST(TestbedTest, BuildsExpectedShape) {
  sim::Simulator sim;
  Testbed tb = BuildTestbed(sim);
  EXPECT_NE(tb.core, nullptr);
  EXPECT_NE(tb.agg[0], nullptr);
  EXPECT_NE(tb.tor[1], nullptr);
  EXPECT_EQ(tb.store.size(), 3u);
  EXPECT_EQ(tb.StoreHeadIp(), StoreServerIp(0));
  EXPECT_FALSE(tb.store[0]->IsTail());
  EXPECT_TRUE(tb.store[2]->IsTail());
}

TEST(TestbedTest, EndToEndDeliveryExternalToRack) {
  sim::Simulator sim;
  Testbed tb = BuildTestbed(sim);
  int delivered = 0;
  tb.rack_servers[0][0]->SetHandler(
      [&](sim::HostNode&, net::Packet) { ++delivered; });
  tb.external[0]->Send(PacketTo(ExternalHostIp(0), RackServerIp(0, 0)));
  sim.Run();
  EXPECT_EQ(delivered, 1);
}

TEST(TestbedTest, RackToRackAndRackToExternal) {
  sim::Simulator sim;
  Testbed tb = BuildTestbed(sim);
  int at_rack1 = 0, at_ext = 0;
  tb.rack_servers[1][1]->SetHandler(
      [&](sim::HostNode&, net::Packet) { ++at_rack1; });
  tb.external[2]->SetHandler([&](sim::HostNode&, net::Packet) { ++at_ext; });
  tb.rack_servers[0][0]->Send(PacketTo(RackServerIp(0, 0), RackServerIp(1, 1)));
  tb.rack_servers[0][0]->Send(PacketTo(RackServerIp(0, 0), ExternalHostIp(2)));
  sim.Run();
  EXPECT_EQ(at_rack1, 1);
  EXPECT_EQ(at_ext, 1);
}

TEST(EcmpTest, FlowAffinityIsStable) {
  sim::Simulator sim;
  Testbed tb = BuildTestbed(sim);
  const net::Packet pkt = PacketTo(ExternalHostIp(0), RackServerIp(0, 0));
  const auto first = tb.fabric->NextHop(tb.core, pkt);
  ASSERT_TRUE(first.has_value());
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(tb.fabric->NextHop(tb.core, pkt), first);
  }
}

TEST(EcmpTest, FlowsSpreadAcrossAggregationSwitches) {
  sim::Simulator sim;
  Testbed tb = BuildTestbed(sim);
  std::set<PortId> ports;
  for (std::uint16_t p = 1000; p < 1100; ++p) {
    const auto hop =
        tb.fabric->NextHop(tb.core, PacketTo(ExternalHostIp(0),
                                             RackServerIp(0, 0), p));
    ASSERT_TRUE(hop.has_value());
    ports.insert(*hop);
  }
  EXPECT_EQ(ports.size(), 2u);  // both agg switches carry traffic
}

TEST(EcmpTest, ProtocolAddressesRoutable) {
  sim::Simulator sim;
  Testbed tb = BuildTestbed(sim);
  // Aggregation switch IPs and the store head are reachable destinations.
  EXPECT_TRUE(
      tb.fabric->NextHop(tb.core, PacketTo(ExternalHostIp(0), AggSwitchIp(0)))
          .has_value());
  EXPECT_TRUE(tb.fabric
                  ->NextHop(tb.agg[0],
                            PacketTo(AggSwitchIp(0), tb.StoreHeadIp()))
                  .has_value());
}

/// Hashes NextHop's answer (a port, or none) for every switch, every
/// destination in `dests` and a fixed sample of flows, in a fixed order.
/// The sample covers both ECMP hash inputs: 5-tuple packets and an IP
/// packet without an L4 header.
std::uint64_t RouteFingerprint(const Testbed& tb,
                               const std::vector<net::Ipv4Addr>& dests) {
  std::uint64_t fp = 0;
  for (std::size_t n = 0; n < tb.network->NumNodes(); ++n) {
    sim::Node* node = tb.network->GetNode(static_cast<NodeId>(n));
    if (dynamic_cast<dp::SwitchNode*>(node) == nullptr) continue;
    for (const net::Ipv4Addr dst : dests) {
      std::vector<net::Packet> sample;
      for (std::uint16_t p = 0; p < 12; ++p) {
        sample.push_back(PacketTo(ExternalHostIp(p % 4), dst,
                                  static_cast<std::uint16_t>(4000 + 37 * p)));
      }
      net::Packet bare = PacketTo(RackServerIp(1, 0), dst);
      bare.udp.reset();
      sample.push_back(bare);
      for (const net::Packet& pkt : sample) {
        const auto hop = tb.fabric->NextHop(node, pkt);
        fp = HashCombine(fp, hop.has_value() ? *hop : 0xffffu);
      }
    }
  }
  return fp;
}

TEST(EcmpTest, NextHopFingerprintAcrossTopologyAndAddressChanges) {
  // Pins every forwarding decision through a link cut and restore, a node
  // failure and recovery, an ECMP salt change and an anycast address that
  // moves between the aggregation switches (assigned before and after the
  // recompute).  The expected values were taken from the hash-map route
  // table this dense one replaced.
  sim::Simulator sim;
  TestbedConfig cfg;
  cfg.fabric.failure_detection_delay = Milliseconds(1);
  Testbed tb = BuildTestbed(sim, cfg);
  FailureInjector injector(sim, *tb.fabric);
  const net::Ipv4Addr anycast(100, 64, 0, 1);
  std::vector<net::Ipv4Addr> dests;
  for (int r = 0; r < 2; ++r) {
    for (int i = 0; i < 2; ++i) dests.push_back(RackServerIp(r, i));
  }
  for (int i = 0; i < 4; ++i) dests.push_back(ExternalHostIp(i));
  for (int i = 0; i < 2; ++i) dests.push_back(AggSwitchIp(i));
  for (int i = 0; i < 3; ++i) dests.push_back(StoreServerIp(i));
  dests.push_back(anycast);
  dests.push_back(net::Ipv4Addr(203, 0, 113, 9));  // never assigned

  std::vector<std::uint64_t> stages;
  auto settle = [&] {
    sim.RunUntil(sim.Now() + Milliseconds(2));
    stages.push_back(RouteFingerprint(tb, dests));
  };
  stages.push_back(RouteFingerprint(tb, dests));
  sim::Link* core_agg0 = tb.network->FindLink(tb.core, tb.agg[0]);
  ASSERT_NE(core_agg0, nullptr);
  injector.FailLink(core_agg0);
  settle();
  injector.RecoverLink(core_agg0);
  settle();
  injector.FailNode(tb.agg[1]);
  settle();
  injector.RecoverNode(tb.agg[1]);
  settle();
  tb.fabric->SetEcmpSalt(0x5eed);
  stages.push_back(RouteFingerprint(tb, dests));
  tb.fabric->AssignAddress(tb.agg[0], anycast);
  stages.push_back(RouteFingerprint(tb, dests));
  tb.fabric->RecomputeNow();
  stages.push_back(RouteFingerprint(tb, dests));
  tb.fabric->AssignAddress(tb.agg[1], anycast);
  stages.push_back(RouteFingerprint(tb, dests));
  tb.fabric->RecomputeNow();
  stages.push_back(RouteFingerprint(tb, dests));
  const std::vector<std::uint64_t> expected{
      0xef7a5d5858bd3908ull, 0x666bf28249e4cc50ull, 0xef7a5d5858bd3908ull,
      0xb87d75be1b03a5f9ull, 0xef7a5d5858bd3908ull, 0x6f481f086817c2f8ull,
      0x9d2ca64ec3f33edfull, 0x9d2ca64ec3f33edfull, 0x1646e8a354f47232ull,
      0x1646e8a354f47232ull};
  EXPECT_EQ(stages, expected);
}

TEST(FailureTest, AggFailureReroutesAfterDetectionDelay) {
  sim::Simulator sim;
  TestbedConfig cfg;
  cfg.fabric.failure_detection_delay = Milliseconds(10);
  Testbed tb = BuildTestbed(sim, cfg);
  FailureInjector injector(sim, *tb.fabric);

  // Find a flow that the core hashes onto agg0.
  std::uint16_t port = 1000;
  for (;; ++port) {
    const auto hop =
        tb.fabric->NextHop(tb.core, PacketTo(ExternalHostIp(0),
                                             RackServerIp(0, 0), port));
    ASSERT_TRUE(hop.has_value());
    if (*hop == 0) break;  // core port 0 -> agg0
  }
  const net::Packet probe = PacketTo(ExternalHostIp(0), RackServerIp(0, 0),
                                     port);

  injector.FailNode(tb.agg[0]);
  // Before detection: the stale route still points at the dead switch.
  EXPECT_EQ(tb.fabric->NextHop(tb.core, probe), PortId{0});
  sim.RunUntil(Milliseconds(11));
  // After detection: rerouted to agg1 (core port 1).
  EXPECT_EQ(tb.fabric->NextHop(tb.core, probe), PortId{1});

  injector.RecoverNode(tb.agg[0]);
  sim.RunUntil(Milliseconds(22));
  EXPECT_EQ(tb.fabric->NextHop(tb.core, probe), PortId{0});
}

TEST(FailureTest, PacketsBlackholeDuringDetectionWindow) {
  sim::Simulator sim;
  TestbedConfig cfg;
  cfg.fabric.failure_detection_delay = Milliseconds(10);
  Testbed tb = BuildTestbed(sim, cfg);
  FailureInjector injector(sim, *tb.fabric);
  int delivered = 0;
  tb.rack_servers[0][0]->SetHandler(
      [&](sim::HostNode&, net::Packet) { ++delivered; });

  // Fail agg0 and immediately send 100 flows; those hashed to agg0 vanish
  // until reroute, those on agg1 still arrive.
  injector.FailNode(tb.agg[0]);
  for (std::uint16_t p = 0; p < 100; ++p) {
    tb.external[0]->Send(
        PacketTo(ExternalHostIp(0), RackServerIp(0, 0),
                 static_cast<std::uint16_t>(2000 + p)));
  }
  sim.RunUntil(Milliseconds(5));
  EXPECT_GT(delivered, 20);
  EXPECT_LT(delivered, 80);

  // After reroute all flows flow again.
  sim.RunUntil(Milliseconds(15));
  const int before = delivered;
  for (std::uint16_t p = 0; p < 100; ++p) {
    tb.external[0]->Send(
        PacketTo(ExternalHostIp(0), RackServerIp(0, 0),
                 static_cast<std::uint16_t>(2000 + p)));
  }
  sim.Run();
  EXPECT_EQ(delivered - before, 100);
}

TEST(FailureTest, LinkFailureReroutesWithoutKillingSwitch) {
  sim::Simulator sim;
  TestbedConfig cfg;
  cfg.fabric.failure_detection_delay = Milliseconds(1);
  Testbed tb = BuildTestbed(sim, cfg);
  FailureInjector injector(sim, *tb.fabric);

  sim::Link* core_agg0 = tb.network->FindLink(tb.core, tb.agg[0]);
  ASSERT_NE(core_agg0, nullptr);
  injector.FailLink(core_agg0);
  sim.RunUntil(Milliseconds(2));
  // Everything still reachable via agg1.
  int delivered = 0;
  tb.rack_servers[0][0]->SetHandler(
      [&](sim::HostNode&, net::Packet) { ++delivered; });
  for (std::uint16_t p = 0; p < 50; ++p) {
    tb.external[0]->Send(
        PacketTo(ExternalHostIp(0), RackServerIp(0, 0),
                 static_cast<std::uint16_t>(3000 + p)));
  }
  sim.Run();
  EXPECT_EQ(delivered, 50);
  // The switch itself is still up (it keeps its state; §5.3's Fig. 7 case).
  EXPECT_TRUE(tb.agg[0]->IsUp());
}

TEST(FailureTest, ScheduledFailureAndRecovery) {
  sim::Simulator sim;
  Testbed tb = BuildTestbed(sim);
  FailureInjector injector(sim, *tb.fabric);
  injector.ScheduleNodeFailure(tb.agg[0], Seconds(1), Seconds(2));
  sim.RunUntil(Milliseconds(1500));
  EXPECT_FALSE(tb.agg[0]->IsUp());
  sim.RunUntil(Milliseconds(2500));
  EXPECT_TRUE(tb.agg[0]->IsUp());
}

// --- injector idempotency regressions (fuzz-found, DESIGN.md §15) --------
// The delta-debugging minimizer deletes arbitrary subsets of a schedule's
// events, so overlapping cut/heal sequences in any order must leave the
// target in the refcount-correct state.  Before the refcount fix, the
// second of two overlapping cuts was a lost update and the first heal
// resurrected a link that a later schedule entry still held down.

TEST(FailureIdempotencyTest, DoubleCutSingleHealKeepsLinkDown) {
  sim::Simulator sim;
  Testbed tb = BuildTestbed(sim);
  FailureInjector injector(sim, *tb.fabric);
  sim::Link* link = tb.network->FindLink(tb.core, tb.agg[0]);
  ASSERT_NE(link, nullptr);

  injector.FailLink(link);
  injector.FailLink(link);  // overlapping second cut
  EXPECT_EQ(injector.LinkCutDepth(link), 2);
  injector.RecoverLink(link);  // pays off one cut only
  EXPECT_FALSE(link->IsUp());
  EXPECT_EQ(injector.LinkCutDepth(link), 1);
  injector.RecoverLink(link);
  EXPECT_TRUE(link->IsUp());
  EXPECT_EQ(injector.LinkCutDepth(link), 0);
}

TEST(FailureIdempotencyTest, CrashDuringFlapIsNotResurrectedByFlapHeal) {
  sim::Simulator sim;
  Testbed tb = BuildTestbed(sim);
  FailureInjector injector(sim, *tb.fabric);

  // A link flap [1 ms, 5 ms) with a permanent crash injected mid-flap: the
  // flap's heal timer fires at 5 ms but must not resurrect the node — it
  // pays off the flap's cut, not the crash's.
  injector.ScheduleNodeFailure(tb.agg[0], Milliseconds(1), Milliseconds(5));
  injector.ScheduleNodeFailure(tb.agg[0], Milliseconds(3), -1);
  sim.RunUntil(Milliseconds(4));
  EXPECT_FALSE(tb.agg[0]->IsUp());
  EXPECT_EQ(injector.NodeCutDepth(tb.agg[0]), 2);
  sim.RunUntil(Milliseconds(10));
  EXPECT_FALSE(tb.agg[0]->IsUp());  // the crash still holds it down
  EXPECT_EQ(injector.NodeCutDepth(tb.agg[0]), 1);
  injector.RecoverNode(tb.agg[0]);
  EXPECT_TRUE(tb.agg[0]->IsUp());
}

TEST(FailureIdempotencyTest, SpuriousHealIsANoOp) {
  sim::Simulator sim;
  Testbed tb = BuildTestbed(sim);
  FailureInjector injector(sim, *tb.fabric);

  // A heal whose cut was deleted by the minimizer: depth never goes
  // negative and the target stays up.
  injector.RecoverNode(tb.agg[0]);
  EXPECT_TRUE(tb.agg[0]->IsUp());
  EXPECT_EQ(injector.NodeCutDepth(tb.agg[0]), 0);
  // A real cut afterwards still needs exactly one heal.
  injector.FailNode(tb.agg[0]);
  EXPECT_EQ(injector.NodeCutDepth(tb.agg[0]), 1);
  injector.RecoverNode(tb.agg[0]);
  EXPECT_TRUE(tb.agg[0]->IsUp());
}

TEST(FailureIdempotencyTest, AsymmetricLossStacksToMaxAndClearsAtDepthZero) {
  sim::Simulator sim;
  Testbed tb = BuildTestbed(sim);
  FailureInjector injector(sim, *tb.fabric);
  sim::Link* link = tb.network->FindLink(tb.core, tb.agg[0]);
  ASSERT_NE(link, nullptr);
  const NodeId from = tb.core->id();

  injector.ApplyAsymmetricLoss(link, from, 0.3);
  EXPECT_DOUBLE_EQ(link->DirectionLoss(from), 0.3);
  injector.ApplyAsymmetricLoss(link, from, 0.8);  // overlapping, stronger
  EXPECT_DOUBLE_EQ(link->DirectionLoss(from), 0.8);
  injector.ClearAsymmetricLoss(link, from);  // one layer peeled
  EXPECT_DOUBLE_EQ(link->DirectionLoss(from), 0.8);
  injector.ClearAsymmetricLoss(link, from);  // last layer: back to config
  EXPECT_DOUBLE_EQ(link->DirectionLoss(from), link->config().loss_rate);
  // Spurious extra clear: no underflow, still at config.
  injector.ClearAsymmetricLoss(link, from);
  EXPECT_DOUBLE_EQ(link->DirectionLoss(from), link->config().loss_rate);
}

TEST(FailureIdempotencyTest, PartialPartitionDropsOneDirectionOnly) {
  sim::Simulator sim;
  Testbed tb = BuildTestbed(sim);
  FailureInjector injector(sim, *tb.fabric);
  sim::Link* link = tb.network->FindLink(tb.core, tb.agg[0]);
  ASSERT_NE(link, nullptr);

  injector.SchedulePartialPartition(link, tb.core->id(), Milliseconds(1),
                                    Milliseconds(5));
  sim.RunUntil(Milliseconds(2));
  EXPECT_DOUBLE_EQ(link->DirectionLoss(tb.core->id()), 1.0);
  // Reverse direction untouched: a half-alive peer, not a cut.
  EXPECT_DOUBLE_EQ(link->DirectionLoss(tb.agg[0]->id()),
                   link->config().loss_rate);
  EXPECT_TRUE(link->IsUp());
  sim.RunUntil(Milliseconds(6));
  EXPECT_DOUBLE_EQ(link->DirectionLoss(tb.core->id()),
                   link->config().loss_rate);
}

}  // namespace
}  // namespace redplane::routing
