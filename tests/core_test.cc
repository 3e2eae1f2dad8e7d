#include <gtest/gtest.h>

#include <map>

#include "core/redplane_switch.h"
#include "modelcheck/linearizability.h"
#include "net/codec.h"
#include "sim/host.h"
#include "sim/network.h"
#include "statestore/server.h"

namespace redplane::core {
namespace {

/// Test app: a per-flow counter whose output packet carries (original
/// packet id, count), so the receiver can reconstruct the history for
/// linearizability checking even across piggyback encode/decode.
class CountingEchoApp : public SwitchApp {
 public:
  std::string_view name() const override { return "counting_echo"; }
  ProcessResult Process(AppContext&, net::Packet pkt,
                        std::vector<std::byte>& state) override {
    ProcessResult result;
    const std::uint64_t count = StateAs<std::uint64_t>(state).value_or(0) + 1;
    SetState(state, count);
    result.state_modified = true;
    std::uint64_t original_id = pkt.id;
    if (pkt.payload.size() >= 8) {
      net::ByteReader r(pkt.payload);
      original_id = r.U64();
    }
    std::vector<std::byte> buf;
    net::ByteWriter w(buf);
    w.U64(original_id);
    w.U64(count);
    pkt.payload = std::move(buf);
    result.outputs.push_back(std::move(pkt));
    return result;
  }
};

/// Read-only echo: forwards, never writes state.
class ReadEchoApp : public SwitchApp {
 public:
  std::string_view name() const override { return "read_echo"; }
  ProcessResult Process(AppContext&, net::Packet pkt,
                        std::vector<std::byte>&) override {
    ProcessResult result;
    result.outputs.push_back(std::move(pkt));
    return result;
  }
};

constexpr net::Ipv4Addr kSrcIp(10, 0, 0, 1);
constexpr net::Ipv4Addr kDstIp(192, 168, 10, 1);
constexpr net::Ipv4Addr kSw1Ip(172, 16, 0, 1);
constexpr net::Ipv4Addr kSw2Ip(172, 16, 0, 2);
constexpr net::Ipv4Addr kStoreIp(172, 16, 1, 1);

net::FlowKey TestFlow(std::uint16_t src_port = 1000) {
  return {kSrcIp, kDstIp, src_port, 80, net::IpProto::kUdp};
}

/// Two RedPlane switches, a source, a sink, and a store, all star-wired to
/// static forwarders.  The source chooses which switch carries its traffic
/// (modeling an ECMP decision / reroute).
struct CoreHarness {
  explicit CoreHarness(SwitchApp& app, RedPlaneConfig config = {},
                       sim::LinkConfig store_link = {}) {
    net = std::make_unique<sim::Network>(sim, 17);
    src = net->AddNode<sim::HostNode>("src", kSrcIp);
    dst = net->AddNode<sim::HostNode>("dst", kDstIp);

    dp::SwitchConfig sw_cfg;
    sw_cfg.switch_ip = kSw1Ip;
    sw1 = net->AddNode<dp::SwitchNode>("sw1", sw_cfg);
    sw_cfg.switch_ip = kSw2Ip;
    sw2 = net->AddNode<dp::SwitchNode>("sw2", sw_cfg);
    store::StoreConfig store_cfg;
    store_cfg.lease_period = config.lease_period;  // must match the switch
    store = net->AddNode<store::StateStoreServer>("store", kStoreIp,
                                                  store_cfg);

    // src port 0 -> sw1, port 1 -> sw2.
    net->Connect(src, 0, sw1, 0);
    net->Connect(src, 1, sw2, 0);
    net->Connect(dst, 0, sw1, 1);
    // dst reachable from sw2 via port 1 as well.
    net->Connect(dst, 1, sw2, 1);
    store_hub = net->AddNode<sim::HostNode>("storehub",
                                            net::Ipv4Addr(9, 9, 9, 9));
    net->Connect(sw1, 2, store_hub, 0, store_link);
    net->Connect(sw2, 2, store_hub, 1, store_link);
    net->Connect(store, 0, store_hub, 2);
    store_hub->SetHandler([this](sim::HostNode& self, net::Packet pkt) {
      if (!pkt.ip.has_value()) return;
      if (pkt.ip->dst == kStoreIp) {
        self.SendTo(2, std::move(pkt));
      } else if (pkt.ip->dst == kSw1Ip) {
        self.SendTo(0, std::move(pkt));
      } else if (pkt.ip->dst == kSw2Ip) {
        self.SendTo(1, std::move(pkt));
      }
    });

    auto forwarder = [](dp::SwitchNode* sw) {
      return [sw](const net::Packet& pkt,
                  PortId) -> std::optional<PortId> {
        if (!pkt.ip.has_value()) return std::nullopt;
        if (pkt.ip->dst == kSrcIp) return PortId{0};
        if (pkt.ip->dst == kDstIp) return PortId{1};
        if (pkt.ip->dst == kStoreIp) return PortId{2};
        return std::nullopt;
      };
    };
    sw1->SetForwarder(forwarder(sw1));
    sw2->SetForwarder(forwarder(sw2));

    auto shard_for = [](const net::PartitionKey&) { return kStoreIp; };
    rp1 = std::make_unique<RedPlaneSwitch>(*sw1, app, shard_for, config);
    rp2 = std::make_unique<RedPlaneSwitch>(*sw2, app, shard_for, config);
    sw1->SetPipeline(rp1.get());
    sw2->SetPipeline(rp2.get());

    dst->SetHandler([this](sim::HostNode&, net::Packet pkt) {
      Arrival a;
      a.time = sim.Now();
      a.wire = pkt;
      if (pkt.payload.size() >= 16) {
        net::ByteReader r(pkt.payload);
        a.original_id = r.U64();
        a.count = r.U64();
      }
      arrivals.push_back(std::move(a));
    });
  }

  /// Sends one flow packet via the chosen switch; returns the packet id.
  net::PacketId SendVia(int sw, const net::FlowKey& flow = TestFlow()) {
    net::Packet pkt = net::MakeUdpPacket(flow, 20);
    const net::PacketId id = pkt.id;
    // Stamp the original id so the counting app can echo it.
    std::vector<std::byte> buf;
    net::ByteWriter w(buf);
    w.U64(id);
    pkt.payload = std::move(buf);
    src->SendTo(sw == 1 ? 0 : 1, std::move(pkt));
    history.Input(id, sim.Now());
    return id;
  }

  struct Arrival {
    SimTime time = 0;
    std::uint64_t original_id = 0;
    std::uint64_t count = 0;
    net::Packet wire;
  };

  sim::Simulator sim;
  std::unique_ptr<sim::Network> net;
  sim::HostNode* src;
  sim::HostNode* dst;
  sim::HostNode* store_hub;
  dp::SwitchNode* sw1;
  dp::SwitchNode* sw2;
  store::StateStoreServer* store;
  std::unique_ptr<RedPlaneSwitch> rp1;
  std::unique_ptr<RedPlaneSwitch> rp2;
  std::vector<Arrival> arrivals;
  modelcheck::HistoryRecorder history;
};

TEST(RedPlaneSwitchTest, FirstPacketAcquiresLeaseAndIsReleased) {
  CountingEchoApp app;
  CoreHarness h(app);
  h.SendVia(1);
  h.sim.Run();
  ASSERT_EQ(h.arrivals.size(), 1u);
  EXPECT_EQ(h.arrivals[0].count, 1u);
  EXPECT_DOUBLE_EQ(h.rp1->stats().Get("inits_sent"), 1.0);
  const auto key = net::PartitionKey::OfFlow(TestFlow());
  const FlowRef entry = h.rp1->flow_table().Find(key);
  ASSERT_TRUE(entry);
  EXPECT_EQ(entry.status(), FlowStatus::kActive);
  // The store durably holds the write before the output was released.
  const auto* rec = h.store->Find(key);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->last_applied_seq, 1u);
}

TEST(RedPlaneSwitchTest, WriteOutputsHeldUntilDurable) {
  CountingEchoApp app;
  CoreHarness h(app);
  h.SendVia(1);
  h.sim.Run();
  const SimTime t0 = h.sim.Now();
  // Second packet: lease held, but the write must round-trip to the store
  // before its output is released.
  h.SendVia(1);
  h.sim.Run();
  ASSERT_EQ(h.arrivals.size(), 2u);
  EXPECT_EQ(h.arrivals[1].count, 2u);
  // Release time >= store RTT (two fabric links each way, plus service).
  const SimTime elapsed = h.arrivals[1].time - t0;
  EXPECT_GT(elapsed, Microseconds(4));
  EXPECT_EQ(h.store->Find(net::PartitionKey::OfFlow(TestFlow()))
                ->last_applied_seq,
            2u);
}

TEST(RedPlaneSwitchTest, ReadCentricPacketsSkipTheStore) {
  ReadEchoApp app;
  CoreHarness h(app);
  h.SendVia(1);
  h.sim.Run();
  const double reqs_after_first = h.rp1->stats().Get("reqs_sent");
  SimTime first_gap = h.arrivals[0].time;
  for (int i = 0; i < 10; ++i) h.SendVia(1);
  h.sim.Run();
  ASSERT_EQ(h.arrivals.size(), 11u);
  // No further store traffic for established read-only flows.
  EXPECT_DOUBLE_EQ(h.rp1->stats().Get("reqs_sent"), reqs_after_first);
  // And later packets are released much faster than the first.
  const SimTime later_gap = h.arrivals[2].time - h.arrivals[1].time;
  EXPECT_LT(later_gap, first_gap / 2);
}

TEST(RedPlaneSwitchTest, SequenceNumbersIncreaseMonotonically) {
  CountingEchoApp app;
  CoreHarness h(app);
  for (int i = 0; i < 5; ++i) h.SendVia(1);
  h.sim.Run();
  ASSERT_EQ(h.arrivals.size(), 5u);
  std::set<std::uint64_t> counts;
  for (const auto& a : h.arrivals) counts.insert(a.count);
  EXPECT_EQ(counts, (std::set<std::uint64_t>{1, 2, 3, 4, 5}));
  const auto key = net::PartitionKey::OfFlow(TestFlow());
  EXPECT_EQ(h.store->Find(key)->last_applied_seq, 5u);
  EXPECT_EQ(h.rp1->flow_table().Find(key).last_acked_seq(), 5u);
}

TEST(RedPlaneSwitchTest, RetransmissionRecoversFromRequestLoss) {
  CountingEchoApp app;
  RedPlaneConfig config;
  config.request_timeout = Microseconds(200);
  sim::LinkConfig lossy;
  lossy.loss_rate = 0.3;  // 30% loss on the switch<->store path
  CoreHarness h(app, config, lossy);
  for (int i = 0; i < 50; ++i) {
    h.SendVia(1);
    h.sim.RunUntil(h.sim.Now() + Microseconds(50));
  }
  h.sim.RunUntil(h.sim.Now() + Milliseconds(100));
  // Packets may be lost before processing (pre-grant loops are unreliable;
  // the model permits input loss), but every *processed* write eventually
  // became durable: the store's sequence equals the switch's, the mirror
  // buffer drained, and retransmissions did real work.
  const auto key = net::PartitionKey::OfFlow(TestFlow());
  const auto* rec = h.store->Find(key);
  ASSERT_NE(rec, nullptr);
  const FlowRef entry = h.rp1->flow_table().Find(key);
  ASSERT_TRUE(entry);
  EXPECT_EQ(rec->last_applied_seq, entry.cur_seq());
  EXPECT_GT(rec->last_applied_seq, 20u);  // most packets got through
  EXPECT_GT(h.rp1->stats().Get("retransmits"), 0.0);
  EXPECT_EQ(h.sw1->mirror().NumEntries(), 0u);
  // Some outputs may have been lost (piggybacks are not retransmitted) —
  // that is permitted; but those released must carry distinct counts no
  // greater than the durable sequence.
  std::set<std::uint64_t> counts;
  for (const auto& a : h.arrivals) {
    EXPECT_TRUE(counts.insert(a.count).second) << "duplicate count";
    EXPECT_LE(a.count, rec->last_applied_seq);
  }
}

TEST(RedPlaneSwitchTest, LeaseMigratesBetweenSwitches) {
  CountingEchoApp app;
  RedPlaneConfig config;
  config.lease_period = Milliseconds(5);
  config.renew_interval = Milliseconds(2);
  CoreHarness h(app, config);
  for (int i = 0; i < 3; ++i) h.SendVia(1);
  h.sim.Run();
  // Reroute: traffic now reaches sw2, which must migrate the state.
  h.sim.RunUntil(h.sim.Now() + Milliseconds(1));
  for (int i = 0; i < 3; ++i) h.SendVia(2);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(50));
  ASSERT_EQ(h.arrivals.size(), 6u);
  std::set<std::uint64_t> counts;
  for (const auto& a : h.arrivals) counts.insert(a.count);
  // The counter continued from the replicated state: 1..6, no reset.
  EXPECT_EQ(counts, (std::set<std::uint64_t>{1, 2, 3, 4, 5, 6}));
  EXPECT_DOUBLE_EQ(h.rp2->stats().Get("grants_migrate"), 1.0);
  // sw2 had to wait for sw1's lease to lapse before the grant.
  const auto key = net::PartitionKey::OfFlow(TestFlow());
  EXPECT_EQ(h.store->Find(key)->owner, kSw2Ip);
}

TEST(RedPlaneSwitchTest, LeaseDenialReleasesEveryMirrorAndRetxTimer) {
  // Regression: a kLeaseDenied triggers a *cumulative* mirror release
  // (Acknowledge with UINT64_MAX).  The per-(key, seq) retransmit counters
  // used to live in a side map that this path never erased — they now live
  // in the mirror entries' own lanes and must vanish with them, along with
  // every per-entry retransmit timer.
  CountingEchoApp app;
  RedPlaneConfig config;
  config.lease_period = Milliseconds(2);
  config.request_timeout = Microseconds(200);
  // Test-only mutation: sw1 believes its lease outlives the store's, so it
  // keeps writing after sw2 takes ownership — the denial path.
  config.mutation_lease_extension = Milliseconds(100);
  sim::LinkConfig slow;
  slow.propagation = Microseconds(400);  // several timeouts per store RTT
  CoreHarness h(app, config, slow);
  h.SendVia(1);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(3));  // sw1's store lease lapses
  h.SendVia(2);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(1));  // sw2 owns the flow now
  // Burst of writes from sw1 under its (mutated) stale lease: several
  // mirrored requests in flight at once, all retransmitting.
  for (int i = 0; i < 3; ++i) h.SendVia(1);
  h.sim.Run();
  EXPECT_GE(h.rp1->stats().Get("lease_denials"), 1.0);
  EXPECT_GE(h.rp1->stats().Get("retransmits"), 1.0);
  // The one denial released every mirrored entry of the flow and cancelled
  // every retransmit timer; nothing lingers.
  EXPECT_EQ(h.sw1->mirror().NumEntries(), 0u);
  EXPECT_FALSE(h.rp1->flow_table().Find(net::PartitionKey::OfFlow(TestFlow())));
  EXPECT_EQ(h.sim.PendingEvents(), 0u);
  EXPECT_EQ(h.sim.CoarseTimersPending(), 0u);
}

TEST(RedPlaneSwitchTest, FailoverPreservesLinearizability) {
  CountingEchoApp app;
  RedPlaneConfig config;
  config.lease_period = Milliseconds(5);
  CoreHarness h(app, config);
  for (int i = 0; i < 4; ++i) h.SendVia(1);
  h.sim.Run();
  h.sw1->SetUp(false);  // fail-stop: sw1 loses everything
  for (int i = 0; i < 4; ++i) h.SendVia(2);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(50));

  // Record outputs into the history and check Definition 3.
  for (const auto& a : h.arrivals) {
    h.history.Output(a.original_id, a.time, a.count);
  }
  std::string why;
  EXPECT_TRUE(
      modelcheck::CheckCounterLinearizable(h.history.Sorted(), &why))
      << why;
  // The new switch resumed from durable state: counts continue, not reset.
  ASSERT_GE(h.arrivals.size(), 5u);
  std::set<std::uint64_t> counts;
  for (const auto& a : h.arrivals) counts.insert(a.count);
  EXPECT_EQ(*counts.rbegin(), 8u);
}

TEST(RedPlaneSwitchTest, RenewalKeepsLeaseAliveWithoutReinit) {
  ReadEchoApp app;
  RedPlaneConfig config;
  config.lease_period = Milliseconds(4);
  config.renew_interval = Milliseconds(2);
  CoreHarness h(app, config);
  // Steady traffic for many lease periods.
  for (int i = 0; i < 40; ++i) {
    h.SendVia(1);
    h.sim.RunUntil(h.sim.Now() + Milliseconds(1));
  }
  h.sim.Run();
  EXPECT_EQ(h.arrivals.size(), 40u);
  EXPECT_DOUBLE_EQ(h.rp1->stats().Get("inits_sent"), 1.0);
  EXPECT_GT(h.rp1->stats().Get("renewals_sent"), 5.0);
}

TEST(RedPlaneSwitchTest, PacketsDuringGrantWindowBufferThroughNetwork) {
  CountingEchoApp app;
  CoreHarness h(app);
  // Burst of 5 packets back to back: only the first carries the Init; the
  // rest loop through the network until the grant lands.
  for (int i = 0; i < 5; ++i) h.SendVia(1);
  h.sim.Run();
  EXPECT_DOUBLE_EQ(h.rp1->stats().Get("inits_sent"), 1.0);
  EXPECT_GT(h.rp1->stats().Get("init_loop_buffered"), 0.0);
  ASSERT_EQ(h.arrivals.size(), 5u);
  std::set<std::uint64_t> counts;
  for (const auto& a : h.arrivals) counts.insert(a.count);
  EXPECT_EQ(counts, (std::set<std::uint64_t>{1, 2, 3, 4, 5}));
}

TEST(RedPlaneSwitchTest, TransitProtocolTrafficForwarded) {
  // sw2 sits between sw1 and the store for this test: a protocol packet
  // not addressed to sw2 must pass through untouched.
  ReadEchoApp app;
  CoreHarness h(app);
  Msg msg;
  msg.type = MsgType::kLeaseNewReq;
  msg.key = net::PartitionKey::OfObject(1);
  msg.reply_to = kSw1Ip;
  net::Packet pkt = MakeProtocolPacket(kSw1Ip, kStoreIp, msg);
  // Inject it into sw2's pipeline as if routed through it.
  h.sw2->HandlePacket(std::move(pkt), 0);
  h.sim.Run();
  // The store received and answered it (to sw1).
  EXPECT_DOUBLE_EQ(h.store->counters().Get("init_reqs"), 1.0);
}

TEST(RedPlaneSwitchTest, MirrorOccupancyGrowsWithLoss) {
  CountingEchoApp app;
  RedPlaneConfig config;
  config.request_timeout = Milliseconds(1);

  auto run_with_loss = [&](double loss) {
    sim::LinkConfig link;
    link.loss_rate = loss;
    CountingEchoApp local_app;
    CoreHarness h(local_app, config, link);
    for (int i = 0; i < 200; ++i) {
      h.SendVia(1);
      h.sim.RunUntil(h.sim.Now() + Microseconds(20));
    }
    return h.sw1->mirror().PeakOccupancyBytes();
  };
  const auto peak_no_loss = run_with_loss(0.0);
  const auto peak_loss = run_with_loss(0.3);
  EXPECT_GT(peak_loss, peak_no_loss);
}

TEST(RedPlaneSwitchTest, ResetClearsFlowStateAndRecoveryReinits) {
  CountingEchoApp app;
  CoreHarness h(app);
  h.SendVia(1);
  h.sim.Run();
  h.sw1->SetUp(false);
  EXPECT_EQ(h.rp1->flow_table().Size(), 0u);
  h.sw1->SetUp(true);
  // After recovery the next packet re-acquires from the store (migrate).
  h.sim.RunUntil(h.sim.Now() + Seconds(2));  // old lease lapses
  h.SendVia(1);
  h.sim.Run();
  EXPECT_DOUBLE_EQ(h.rp1->stats().Get("grants_migrate"), 1.0);
  ASSERT_EQ(h.arrivals.size(), 2u);
  EXPECT_EQ(h.arrivals[1].count, 2u);  // continued from durable state
}

}  // namespace
}  // namespace redplane::core
