#include <gtest/gtest.h>

#include "apps/counter.h"
#include "apps/epc_sgw.h"
#include "apps/firewall.h"
#include "apps/heavy_hitter.h"
#include "apps/kv_store.h"
#include "apps/load_balancer.h"
#include "apps/nat.h"
#include "apps/sketch.h"
#include "common/rng.h"
#include "net/codec.h"

namespace redplane::apps {
namespace {

constexpr net::Ipv4Addr kInternalPrefix(192, 168, 0, 0);
constexpr std::uint32_t kInternalMask = 0xffff0000;
constexpr net::Ipv4Addr kExtIp(10, 99, 0, 1);

core::AppContext Ctx() { return core::AppContext{}; }

net::FlowKey OutboundFlow() {
  return {net::Ipv4Addr(192, 168, 1, 5), net::Ipv4Addr(8, 8, 8, 8), 5555, 80,
          net::IpProto::kTcp};
}

// ---------------------------------------------------------------- NAT ----

TEST(NatTest, OutboundRewriteUsesAllocatedPort) {
  NatGlobalState global(kExtIp, 2000, 16, kInternalPrefix, kInternalMask);
  NatApp nat(global);
  const auto key = net::PartitionKey::OfFlow(OutboundFlow());
  auto state = global.InitializeFlow(key);
  ASSERT_FALSE(state.empty());

  auto ctx = Ctx();
  auto result =
      nat.Process(ctx, net::MakeTcpPacket(OutboundFlow(), 0, 1, 0, 10), state);
  ASSERT_TRUE(result.output.has_value());
  const net::Packet& out = *result.output;
  EXPECT_EQ(out.ip->src, kExtIp);
  EXPECT_EQ(out.tcp->src_port, 2000);
  EXPECT_EQ(out.ip->dst, OutboundFlow().dst_ip);
  EXPECT_FALSE(result.state_modified);  // read-centric
}

TEST(NatTest, InboundRewriteRestoresInternalEndpoint) {
  NatGlobalState global(kExtIp, 2000, 16, kInternalPrefix, kInternalMask);
  NatApp nat(global);
  // Establish the outbound mapping first.
  auto out_state =
      global.InitializeFlow(net::PartitionKey::OfFlow(OutboundFlow()));
  ASSERT_FALSE(out_state.empty());

  net::FlowKey inbound{net::Ipv4Addr(8, 8, 8, 8), kExtIp, 80, 2000,
                       net::IpProto::kTcp};
  auto in_state = global.InitializeFlow(net::PartitionKey::OfFlow(inbound));
  ASSERT_FALSE(in_state.empty());
  auto ctx = Ctx();
  auto result =
      nat.Process(ctx, net::MakeTcpPacket(inbound, 0, 1, 0, 10), in_state);
  ASSERT_TRUE(result.output.has_value());
  EXPECT_EQ(result.output->ip->dst, OutboundFlow().src_ip);
  EXPECT_EQ(result.output->tcp->dst_port, OutboundFlow().src_port);
}

TEST(NatTest, UnknownInboundFlowDropped) {
  NatGlobalState global(kExtIp, 2000, 16, kInternalPrefix, kInternalMask);
  NatApp nat(global);
  net::FlowKey inbound{net::Ipv4Addr(8, 8, 8, 8), kExtIp, 80, 2009,
                       net::IpProto::kTcp};
  auto state = global.InitializeFlow(net::PartitionKey::OfFlow(inbound));
  EXPECT_TRUE(state.empty());
  auto ctx = Ctx();
  auto result =
      nat.Process(ctx, net::MakeTcpPacket(inbound, 0, 1, 0, 10), state);
  EXPECT_FALSE(result.output.has_value());
}

TEST(NatTest, PoolExhaustionAndIdempotentReallocation) {
  NatGlobalState global(kExtIp, 3000, 2, kInternalPrefix, kInternalMask);
  auto f1 = OutboundFlow();
  auto f2 = OutboundFlow();
  f2.src_port = 5556;
  auto f3 = OutboundFlow();
  f3.src_port = 5557;
  EXPECT_FALSE(global.InitializeFlow(net::PartitionKey::OfFlow(f1)).empty());
  EXPECT_FALSE(global.InitializeFlow(net::PartitionKey::OfFlow(f2)).empty());
  EXPECT_TRUE(global.InitializeFlow(net::PartitionKey::OfFlow(f3)).empty());
  // Re-initializing an existing flow reuses its mapping (failover path).
  const auto again = global.InitializeFlow(net::PartitionKey::OfFlow(f1));
  ASSERT_FALSE(again.empty());
  EXPECT_EQ(core::StateAs<NatEntry>(again)->rewrite_port, 3000);
  EXPECT_EQ(global.ActiveMappings(), 2u);
}

// ----------------------------------------------------------- Firewall ----

TEST(FirewallTest, CanonicalKeySharedAcrossDirections) {
  FirewallApp fw(kInternalPrefix, kInternalMask);
  const auto out_pkt = net::MakeTcpPacket(OutboundFlow(), 0, 1, 0, 0);
  const auto in_pkt =
      net::MakeTcpPacket(OutboundFlow().Reversed(), 0, 1, 0, 0);
  ASSERT_TRUE(fw.KeyOf(out_pkt).has_value());
  ASSERT_TRUE(fw.KeyOf(in_pkt).has_value());
  EXPECT_EQ(*fw.KeyOf(out_pkt), *fw.KeyOf(in_pkt));
}

TEST(FirewallTest, InboundBlockedUntilOutboundEstablishes) {
  FirewallApp fw(kInternalPrefix, kInternalMask);
  std::vector<std::byte> state;
  auto ctx = Ctx();

  auto blocked = fw.Process(
      ctx, net::MakeTcpPacket(OutboundFlow().Reversed(), 0, 1, 0, 0), state);
  EXPECT_FALSE(blocked.output.has_value());
  EXPECT_FALSE(blocked.state_modified);

  auto open = fw.Process(
      ctx,
      net::MakeTcpPacket(OutboundFlow(), net::TcpFlags::kSyn, 1, 0, 0),
      state);
  EXPECT_TRUE(open.output.has_value());
  EXPECT_TRUE(open.state_modified);  // the connection-establishing write

  auto admitted = fw.Process(
      ctx, net::MakeTcpPacket(OutboundFlow().Reversed(), 0, 1, 0, 0), state);
  EXPECT_TRUE(admitted.output.has_value());
  EXPECT_FALSE(admitted.state_modified);
}

TEST(FirewallTest, FinMarksConnection) {
  FirewallApp fw(kInternalPrefix, kInternalMask);
  std::vector<std::byte> state;
  auto ctx = Ctx();
  fw.Process(ctx,
             net::MakeTcpPacket(OutboundFlow(), net::TcpFlags::kSyn, 1, 0, 0),
             state);
  auto fin = fw.Process(
      ctx, net::MakeTcpPacket(OutboundFlow(), net::TcpFlags::kFin, 9, 0, 0),
      state);
  EXPECT_TRUE(fin.state_modified);
  EXPECT_EQ(core::StateAs<FirewallEntry>(state)->fin_seen, 1);
}

// ------------------------------------------------------ Load balancer ----

TEST(LoadBalancerTest, ForwardAndReverseTranslation) {
  LbGlobalState global(net::Ipv4Addr(10, 0, 0, 100), 80);
  global.AddBackend(net::Ipv4Addr(192, 168, 10, 10), 8080);
  LoadBalancerApp lb(global);

  net::FlowKey client{net::Ipv4Addr(8, 8, 8, 8), global.vip(), 4444, 80,
                      net::IpProto::kTcp};
  auto state = global.InitializeFlow(net::PartitionKey::OfFlow(client));
  ASSERT_FALSE(state.empty());

  auto ctx = Ctx();
  auto fwd = lb.Process(ctx, net::MakeTcpPacket(client, 0, 1, 0, 0), state);
  ASSERT_TRUE(fwd.output.has_value());
  EXPECT_EQ(fwd.output->ip->dst, net::Ipv4Addr(192, 168, 10, 10));
  EXPECT_EQ(fwd.output->tcp->dst_port, 8080);

  // Reverse traffic canonicalizes to the same key and presents the VIP.
  net::FlowKey reverse{net::Ipv4Addr(192, 168, 10, 10),
                       net::Ipv4Addr(8, 8, 8, 8), 8080, 4444,
                       net::IpProto::kTcp};
  const auto rev_pkt = net::MakeTcpPacket(reverse, 0, 1, 0, 0);
  ASSERT_TRUE(lb.KeyOf(rev_pkt).has_value());
  EXPECT_EQ(*lb.KeyOf(rev_pkt), net::PartitionKey::OfFlow(client));
  auto rev = lb.Process(ctx, rev_pkt, state);
  ASSERT_TRUE(rev.output.has_value());
  EXPECT_EQ(rev.output->ip->src, global.vip());
  EXPECT_EQ(rev.output->tcp->src_port, 80);
}

TEST(LoadBalancerTest, BackendsRotateAcrossFlows) {
  LbGlobalState global(net::Ipv4Addr(10, 0, 0, 100), 80);
  global.AddBackend(net::Ipv4Addr(192, 168, 10, 10), 8080);
  global.AddBackend(net::Ipv4Addr(192, 168, 10, 11), 8080);
  std::set<std::uint32_t> chosen;
  for (int i = 0; i < 4; ++i) {
    net::FlowKey client{net::Ipv4Addr(8, 8, 8, 8), global.vip(),
                        static_cast<std::uint16_t>(4000 + i), 80,
                        net::IpProto::kTcp};
    auto state = global.InitializeFlow(net::PartitionKey::OfFlow(client));
    chosen.insert(core::StateAs<LbEntry>(state)->backend_ip);
  }
  EXPECT_EQ(chosen.size(), 2u);
}

// ------------------------------------------------------------ EPC SGW ----

TEST(EpcSgwTest, SignalingInstallsBearerDataReadsIt) {
  EpcSgwApp sgw;
  std::vector<std::byte> state;
  auto ctx = Ctx();
  const net::Ipv4Addr user(100, 64, 0, 5);

  // Data before attach: dropped (the paper's broken-session symptom).
  net::FlowKey data{net::Ipv4Addr(10, 0, 0, 1), user, 40000, kSgwDataPort,
                    net::IpProto::kUdp};
  auto dropped = sgw.Process(ctx, net::MakeUdpPacket(data, 100), state);
  EXPECT_FALSE(dropped.output.has_value());

  auto sig = MakeSgwSignalingPacket(net::Ipv4Addr(10, 0, 0, 1), user, 777,
                                    net::Ipv4Addr(192, 168, 11, 1));
  EXPECT_EQ(*sgw.KeyOf(sig), net::PartitionKey::OfObject(user.value));
  auto attach = sgw.Process(ctx, sig, state);
  EXPECT_TRUE(attach.state_modified);
  EXPECT_EQ(core::StateAs<SgwBearer>(state)->teid, 777u);

  auto forwarded = sgw.Process(ctx, net::MakeUdpPacket(data, 100), state);
  ASSERT_TRUE(forwarded.output.has_value());
  EXPECT_FALSE(forwarded.state_modified);
  EXPECT_EQ(forwarded.output->ip->identification, 777);
}

TEST(EpcSgwTest, NonSgwTrafficIgnored) {
  EpcSgwApp sgw;
  net::FlowKey other{net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2), 1,
                     80, net::IpProto::kUdp};
  EXPECT_FALSE(sgw.KeyOf(net::MakeUdpPacket(other, 0)).has_value());
}

// ------------------------------------------------------------- Sketch ----

TEST(SketchTest, EstimateNeverUndercounts) {
  CountMinSketch sketch("cm", 3, 64);
  Rng rng(5);
  std::map<std::uint64_t, std::uint32_t> truth;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t key = rng.NextBounded(50);
    dp::PipelinePass pass;
    sketch.Update(pass, key, 1);
    ++truth[key];
  }
  for (const auto& [key, count] : truth) {
    EXPECT_GE(sketch.Estimate(key), count);
  }
}

TEST(SketchTest, SnapshotSlotCarriesOneValuePerRow) {
  CountMinSketch sketch("cm", 3, 64);
  dp::PipelinePass pass;
  const auto bytes = sketch.ReadSnapshotSlot(pass, 0);
  EXPECT_EQ(bytes.size(), 3 * 4u);
}

// ------------------------------------------------------- Heavy hitter ----

TEST(HeavyHitterTest, DetectsFlowsAboveThreshold) {
  HeavyHitterConfig cfg;
  cfg.vlans = {1, 2};
  cfg.threshold = 100;
  HeavyHitterApp hh(cfg);
  auto ctx = Ctx();
  std::vector<std::byte> state;
  net::FlowKey heavy{net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2), 1,
                     2, net::IpProto::kUdp};
  net::FlowKey light{net::Ipv4Addr(3, 3, 3, 3), net::Ipv4Addr(4, 4, 4, 4), 5,
                     6, net::IpProto::kUdp};
  for (int i = 0; i < 150; ++i) {
    auto pkt = net::MakeUdpPacket(heavy, 0);
    pkt.vlan = 1;
    hh.Process(ctx, std::move(pkt), state);
  }
  for (int i = 0; i < 10; ++i) {
    auto pkt = net::MakeUdpPacket(light, 0);
    pkt.vlan = 1;
    hh.Process(ctx, std::move(pkt), state);
  }
  EXPECT_EQ(hh.HeavyFlows(1).count(heavy), 1u);
  EXPECT_EQ(hh.HeavyFlows(1).count(light), 0u);
  EXPECT_GE(hh.Estimate(1, heavy), 150u);
  // VLAN isolation: vlan 2's sketch untouched.
  EXPECT_EQ(hh.Estimate(2, heavy), 0u);
}

TEST(HeavyHitterTest, PartitionsByVlanAndIgnoresUntagged) {
  HeavyHitterApp hh;
  net::FlowKey f{net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2), 1, 2,
                 net::IpProto::kUdp};
  auto tagged = net::MakeUdpPacket(f, 0);
  tagged.vlan = 1;
  EXPECT_EQ(*hh.KeyOf(tagged), net::PartitionKey::OfVlan(1));
  auto untagged = net::MakeUdpPacket(f, 0);
  EXPECT_FALSE(hh.KeyOf(untagged).has_value());
}

TEST(HeavyHitterTest, SnapshotInterfaceCoversAllVlans) {
  HeavyHitterConfig cfg;
  cfg.vlans = {3, 5, 9};
  HeavyHitterApp hh(cfg);
  const auto keys = hh.SnapshotKeys();
  EXPECT_EQ(keys.size(), 3u);
  EXPECT_EQ(hh.NumSnapshotSlots(), 64u);
  hh.BeginSnapshot(net::PartitionKey::OfVlan(3));
  EXPECT_EQ(hh.ReadSnapshotSlot(net::PartitionKey::OfVlan(3), 0).size(),
            3 * 4u);
}

// ------------------------------------------------------------ Counter ----

TEST(CounterTest, SyncCounterWritesEveryPacket) {
  SyncCounterApp app;
  std::vector<std::byte> state;
  auto ctx = Ctx();
  net::FlowKey f{net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2), 1, 2,
                 net::IpProto::kUdp};
  for (int i = 1; i <= 5; ++i) {
    auto result = app.Process(ctx, net::MakeUdpPacket(f, 0), state);
    EXPECT_TRUE(result.state_modified);
    EXPECT_TRUE(result.output.has_value());
    EXPECT_EQ(*core::StateAs<std::uint64_t>(state),
              static_cast<std::uint64_t>(i));
  }
}

TEST(CounterTest, AsyncCounterCountsInRegisters) {
  AsyncCounterApp app(64);
  std::vector<std::byte> state;
  auto ctx = Ctx();
  net::FlowKey f{net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2), 1, 2,
                 net::IpProto::kUdp};
  for (int i = 0; i < 7; ++i) {
    auto result = app.Process(ctx, net::MakeUdpPacket(f, 0), state);
    EXPECT_FALSE(result.state_modified);  // async: no per-packet replication
  }
  EXPECT_EQ(app.Count(f), 7u);
  EXPECT_EQ(app.NumSnapshotSlots(), 64u);
  app.Reset();
  EXPECT_EQ(app.Count(f), 0u);
}

// ----------------------------------------------------------- KV store ----

TEST(KvStoreTest, UpdateThenReadReturnsValue) {
  KvStoreApp app;
  std::vector<std::byte> state;
  auto ctx = Ctx();
  net::FlowKey client{net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2),
                      3333, kKvUdpPort, net::IpProto::kUdp};

  KvRequest update{KvOp::kUpdate, 77, 4242};
  auto wres = app.Process(ctx, MakeKvPacket(client, update), state);
  EXPECT_TRUE(wres.state_modified);
  ASSERT_TRUE(wres.output.has_value());

  KvRequest read{KvOp::kRead, 77, 0};
  auto rres = app.Process(ctx, MakeKvPacket(client, read), state);
  EXPECT_FALSE(rres.state_modified);
  ASSERT_TRUE(rres.output.has_value());
  // The reply flows back toward the client (src port is the KV port).
  EXPECT_EQ(rres.output->ip->dst, client.src_ip);
  net::ByteReader r(rres.output->payload);
  r.U8();
  EXPECT_EQ(r.U64(), 77u);
  EXPECT_EQ(r.U64(), 4242u);
}

TEST(KvStoreTest, PartitionsByKvKeyNotFlow) {
  KvStoreApp app;
  net::FlowKey c1{net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2), 3333,
                  kKvUdpPort, net::IpProto::kUdp};
  net::FlowKey c2{net::Ipv4Addr(9, 9, 9, 9), net::Ipv4Addr(2, 2, 2, 2), 1111,
                  kKvUdpPort, net::IpProto::kUdp};
  const auto p1 = MakeKvPacket(c1, {KvOp::kRead, 5, 0});
  const auto p2 = MakeKvPacket(c2, {KvOp::kUpdate, 5, 1});
  EXPECT_EQ(*app.KeyOf(p1), *app.KeyOf(p2));
  const auto p3 = MakeKvPacket(c1, {KvOp::kRead, 6, 0});
  EXPECT_NE(*app.KeyOf(p1), *app.KeyOf(p3));
}

TEST(KvStoreTest, NonKvTrafficIgnored) {
  KvStoreApp app;
  net::FlowKey f{net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2), 1, 80,
                 net::IpProto::kUdp};
  EXPECT_FALSE(app.KeyOf(net::MakeUdpPacket(f, 10)).has_value());
}

}  // namespace
}  // namespace redplane::apps
