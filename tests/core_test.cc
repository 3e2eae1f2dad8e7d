#include <gtest/gtest.h>

#include <set>

#include "core/redplane_switch.h"
#include "modelcheck/linearizability.h"
#include "net/codec.h"
#include "tests/rig.h"

namespace redplane::core {
namespace {

using testing::CountingEchoApp;
using testing::kDstIp;
using testing::kSrcIp;
using testing::kStoreIp;
using testing::kSw1Ip;
using testing::kSw2Ip;
using testing::ReadEchoApp;

net::FlowKey TestFlow(std::uint16_t src_port = 1000) {
  return {kSrcIp, kDstIp, src_port, 80, net::IpProto::kUdp};
}

/// The two-switch rig (seed 17); the source chooses which switch carries
/// its traffic (modeling an ECMP decision / reroute), and every arrival is
/// recorded with the (original id, count) the counting app echoes.
struct EchoRig : testing::Rig {
  explicit EchoRig(SwitchApp& app, RedPlaneConfig config = {},
                   sim::LinkConfig store_link = {})
      : Rig(app, {.seed = 17, .rp = config, .switch_link = store_link}) {
    on_deliver = [this](const net::Packet& pkt) {
      Arrival a;
      a.time = sim.Now();
      if (auto echo = testing::ParseEcho(pkt)) {
        a.original_id = echo->id;
        a.count = echo->count;
      }
      arrivals.push_back(a);
    };
  }

  /// Sends one flow packet via the chosen switch; returns the packet id.
  net::PacketId SendVia(int via, const net::FlowKey& flow = TestFlow()) {
    net::Packet pkt = testing::StampedPacket(flow);
    const net::PacketId id = pkt.id;
    src->SendTo(via == 1 ? 0 : 1, std::move(pkt));
    history.Input(id, sim.Now());
    return id;
  }

  struct Arrival {
    SimTime time = 0;
    std::uint64_t original_id = 0;
    std::uint64_t count = 0;
  };

  std::vector<Arrival> arrivals;
  modelcheck::HistoryRecorder history;
};

TEST(RedPlaneSwitchTest, FirstPacketAcquiresLeaseAndIsReleased) {
  CountingEchoApp app;
  EchoRig h(app);
  h.SendVia(1);
  h.sim.Run();
  ASSERT_EQ(h.arrivals.size(), 1u);
  EXPECT_EQ(h.arrivals[0].count, 1u);
  EXPECT_DOUBLE_EQ(h.rp[0]->stats().Get("inits_sent"), 1.0);
  const auto key = net::PartitionKey::OfFlow(TestFlow());
  const FlowRef entry = h.rp[0]->flow_table().Find(key);
  ASSERT_TRUE(entry);
  EXPECT_EQ(entry.status(), FlowStatus::kActive);
  // The store durably holds the write before the output was released.
  const auto* rec = h.stores[0]->Find(key);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->last_applied_seq, 1u);
}

TEST(RedPlaneSwitchTest, WriteOutputsHeldUntilDurable) {
  CountingEchoApp app;
  EchoRig h(app);
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
  EXPECT_EQ(h.stores[0]->Find(net::PartitionKey::OfFlow(TestFlow()))
                ->last_applied_seq,
            2u);
}

TEST(RedPlaneSwitchTest, ReadCentricPacketsSkipTheStore) {
  ReadEchoApp app;
  EchoRig h(app);
  h.SendVia(1);
  h.sim.Run();
  const double reqs_after_first = h.rp[0]->stats().Get("reqs_sent");
  SimTime first_gap = h.arrivals[0].time;
  for (int i = 0; i < 10; ++i) h.SendVia(1);
  h.sim.Run();
  ASSERT_EQ(h.arrivals.size(), 11u);
  // No further store traffic for established read-only flows.
  EXPECT_DOUBLE_EQ(h.rp[0]->stats().Get("reqs_sent"), reqs_after_first);
  // And later packets are released much faster than the first.
  const SimTime later_gap = h.arrivals[2].time - h.arrivals[1].time;
  EXPECT_LT(later_gap, first_gap / 2);
}

TEST(RedPlaneSwitchTest, SequenceNumbersIncreaseMonotonically) {
  CountingEchoApp app;
  EchoRig h(app);
  for (int i = 0; i < 5; ++i) h.SendVia(1);
  h.sim.Run();
  ASSERT_EQ(h.arrivals.size(), 5u);
  std::set<std::uint64_t> counts;
  for (const auto& a : h.arrivals) counts.insert(a.count);
  EXPECT_EQ(counts, (std::set<std::uint64_t>{1, 2, 3, 4, 5}));
  const auto key = net::PartitionKey::OfFlow(TestFlow());
  EXPECT_EQ(h.stores[0]->Find(key)->last_applied_seq, 5u);
  EXPECT_EQ(h.rp[0]->flow_table().Find(key).last_acked_seq(), 5u);
}

TEST(RedPlaneSwitchTest, RetransmissionRecoversFromRequestLoss) {
  CountingEchoApp app;
  RedPlaneConfig config;
  config.request_timeout = Microseconds(200);
  sim::LinkConfig lossy;
  lossy.loss_rate = 0.3;  // 30% loss on the switch<->store path
  EchoRig h(app, config, lossy);
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
  const auto* rec = h.stores[0]->Find(key);
  ASSERT_NE(rec, nullptr);
  const FlowRef entry = h.rp[0]->flow_table().Find(key);
  ASSERT_TRUE(entry);
  EXPECT_EQ(rec->last_applied_seq, entry.cur_seq());
  EXPECT_GT(rec->last_applied_seq, 20u);  // most packets got through
  EXPECT_GT(h.rp[0]->stats().Get("retransmits"), 0.0);
  EXPECT_EQ(h.sw[0]->mirror().NumEntries(), 0u);
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
  EchoRig h(app, config);
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
  EXPECT_DOUBLE_EQ(h.rp[1]->stats().Get("grants_migrate"), 1.0);
  // sw2 had to wait for sw1's lease to lapse before the grant.
  const auto key = net::PartitionKey::OfFlow(TestFlow());
  EXPECT_EQ(h.stores[0]->Find(key)->owner, kSw2Ip);
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
  EchoRig h(app, config, slow);
  h.SendVia(1);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(3));  // sw1's store lease lapses
  h.SendVia(2);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(1));  // sw2 owns the flow now
  // Burst of writes from sw1 under its (mutated) stale lease: several
  // mirrored requests in flight at once, all retransmitting.
  for (int i = 0; i < 3; ++i) h.SendVia(1);
  h.sim.Run();
  EXPECT_GE(h.rp[0]->stats().Get("lease_denials"), 1.0);
  EXPECT_GE(h.rp[0]->stats().Get("retransmits"), 1.0);
  // The one denial released every mirrored entry of the flow and cancelled
  // every retransmit timer; nothing lingers.
  EXPECT_EQ(h.sw[0]->mirror().NumEntries(), 0u);
  EXPECT_FALSE(
      h.rp[0]->flow_table().Find(net::PartitionKey::OfFlow(TestFlow())));
  EXPECT_EQ(h.sim.PendingEvents(), 0u);
  EXPECT_EQ(h.sim.CoarseTimersPending(), 0u);
}

TEST(RedPlaneSwitchTest, FailoverPreservesLinearizability) {
  CountingEchoApp app;
  RedPlaneConfig config;
  config.lease_period = Milliseconds(5);
  EchoRig h(app, config);
  for (int i = 0; i < 4; ++i) h.SendVia(1);
  h.sim.Run();
  h.sw[0]->SetUp(false);  // fail-stop: sw1 loses everything
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
  EchoRig h(app, config);
  // Steady traffic for many lease periods.
  for (int i = 0; i < 40; ++i) {
    h.SendVia(1);
    h.sim.RunUntil(h.sim.Now() + Milliseconds(1));
  }
  h.sim.Run();
  EXPECT_EQ(h.arrivals.size(), 40u);
  EXPECT_DOUBLE_EQ(h.rp[0]->stats().Get("inits_sent"), 1.0);
  EXPECT_GT(h.rp[0]->stats().Get("renewals_sent"), 5.0);
}

TEST(RedPlaneSwitchTest, PacketsDuringGrantWindowBufferThroughNetwork) {
  CountingEchoApp app;
  EchoRig h(app);
  // Burst of 5 packets back to back: only the first carries the Init; the
  // rest loop through the network until the grant lands.
  for (int i = 0; i < 5; ++i) h.SendVia(1);
  h.sim.Run();
  EXPECT_DOUBLE_EQ(h.rp[0]->stats().Get("inits_sent"), 1.0);
  EXPECT_GT(h.rp[0]->stats().Get("init_loop_buffered"), 0.0);
  ASSERT_EQ(h.arrivals.size(), 5u);
  std::set<std::uint64_t> counts;
  for (const auto& a : h.arrivals) counts.insert(a.count);
  EXPECT_EQ(counts, (std::set<std::uint64_t>{1, 2, 3, 4, 5}));
}

TEST(RedPlaneSwitchTest, TransitProtocolTrafficForwarded) {
  // sw2 sits between sw1 and the store for this test: a protocol packet
  // not addressed to sw2 must pass through untouched.
  ReadEchoApp app;
  EchoRig h(app);
  Msg msg;
  msg.type = MsgType::kLeaseNewReq;
  msg.key = net::PartitionKey::OfObject(1);
  msg.reply_to = kSw1Ip;
  net::Packet pkt = MakeProtocolPacket(kSw1Ip, kStoreIp, msg);
  // Inject it into sw2's pipeline as if routed through it.
  h.sw[1]->HandlePacket(std::move(pkt), 0);
  h.sim.Run();
  // The store received and answered it (to sw1).
  EXPECT_DOUBLE_EQ(h.stores[0]->counters().Get("init_reqs"), 1.0);
}

TEST(RedPlaneSwitchTest, MirrorOccupancyGrowsWithLoss) {
  CountingEchoApp app;
  RedPlaneConfig config;
  config.request_timeout = Milliseconds(1);

  auto run_with_loss = [&](double loss) {
    sim::LinkConfig link;
    link.loss_rate = loss;
    CountingEchoApp local_app;
    EchoRig h(local_app, config, link);
    for (int i = 0; i < 200; ++i) {
      h.SendVia(1);
      h.sim.RunUntil(h.sim.Now() + Microseconds(20));
    }
    return h.sw[0]->mirror().PeakOccupancyBytes();
  };
  const auto peak_no_loss = run_with_loss(0.0);
  const auto peak_loss = run_with_loss(0.3);
  EXPECT_GT(peak_loss, peak_no_loss);
}

TEST(RedPlaneSwitchTest, ResetClearsFlowStateAndRecoveryReinits) {
  CountingEchoApp app;
  EchoRig h(app);
  h.SendVia(1);
  h.sim.Run();
  h.sw[0]->SetUp(false);
  EXPECT_EQ(h.rp[0]->flow_table().Size(), 0u);
  h.sw[0]->SetUp(true);
  // After recovery the next packet re-acquires from the store (migrate).
  h.sim.RunUntil(h.sim.Now() + Seconds(2));  // old lease lapses
  h.SendVia(1);
  h.sim.Run();
  EXPECT_DOUBLE_EQ(h.rp[0]->stats().Get("grants_migrate"), 1.0);
  ASSERT_EQ(h.arrivals.size(), 2u);
  EXPECT_EQ(h.arrivals[1].count, 2u);  // continued from durable state
}

}  // namespace
}  // namespace redplane::core
