// Replication batching (DESIGN.md §10) and renew/retransmit-path fixes.
//
// Covers the per-shard coalescer end to end: burst writes leave as one
// batch envelope, the store unpacks and acks per sub-message, piggybacked
// outputs all come home, and the zero-copy cost model stays chain-length
// independent.  Alongside: regression tests for the wedged-renewal bug
// (renew_in_flight pinned forever by a lost renew) and the retransmit scan
// that kept rescheduling after draining its table, plus armed-auditor
// see-through checks (clean batched runs silent, mutations still caught).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "core/protocol.h"
#include "core/redplane_switch.h"
#include "net/buffer.h"
#include "net/codec.h"
#include "tests/rig.h"

namespace redplane {
namespace {

using testing::Rig;
using testing::RigOptions;

net::FlowKey TheFlow() {
  return {testing::kSrcIp, testing::kDstIp, 1000, 80, net::IpProto::kUdp};
}

/// One RedPlane switch (seed 7) in front of a store chain.
RigOptions OneSwitchChain(RigOptions opt) {
  opt.seed = 7;
  opt.switches = 1;
  opt.chain = true;
  return opt;
}

void SendBurst(Rig& h, int n) {
  for (int i = 0; i < n; ++i) {
    h.src->Send(net::MakeUdpPacket(TheFlow(), 20));
  }
}

void SendPaced(Rig& h, int n, SimDuration gap) {
  for (int i = 0; i < n; ++i) {
    h.src->Send(net::MakeUdpPacket(TheFlow(), 20));
    h.Run(gap);
  }
}

double SwitchStat(Rig& h, const char* name) {
  return h.rp[0]->stats().Get(name);
}
double StoreStat(Rig& h, int i, const char* name) {
  return h.stores[static_cast<std::size_t>(i)]->counters().Get(name);
}

core::RedPlaneConfig BatchedConfig() {
  core::RedPlaneConfig cfg;
  cfg.lease_period = Seconds(2);
  cfg.renew_interval = Seconds(1);
  cfg.request_timeout = Milliseconds(5);
  cfg.coalesce_delay = Microseconds(20);
  return cfg;
}

// --- coalescer end-to-end ---------------------------------------------------

TEST(BatchingTest, BurstWritesCoalesceIntoEnvelopes) {
  Rig h(OneSwitchChain({.rp = BatchedConfig()}));
  // Warm up: lease acquisition (Inits never batch) settles first.
  SendBurst(h, 1);
  h.sim.Run();
  ASSERT_EQ(h.delivered, 1);

  constexpr int kWrites = 8;
  SendBurst(h, kWrites);
  h.sim.Run();

  // Every output came home and every write is durable, exactly per-packet
  // semantics...
  EXPECT_EQ(h.delivered, 1 + kWrites);
  const auto key = net::PartitionKey::OfFlow(TheFlow());
  ASSERT_NE(h.stores[0]->Find(key), nullptr);
  EXPECT_EQ(h.stores[0]->Find(key)->last_applied_seq,
            static_cast<std::uint64_t>(1 + kWrites));
  // ...but the burst crossed the wire in envelopes, not per-packet.
  EXPECT_GE(SwitchStat(h, "batch_envelopes"), 1.0);
  EXPECT_GE(StoreStat(h, 0, "batch_envelopes"), 1.0);
  EXPECT_GE(StoreStat(h, 0, "batch_subs"), 2.0);
  // The store still filtered/acked per sub-message.
  EXPECT_DOUBLE_EQ(StoreStat(h, 0, "repl_reqs"),
                   static_cast<double>(1 + kWrites));
  EXPECT_DOUBLE_EQ(StoreStat(h, 0, "responses"),
                   static_cast<double>(2 + kWrites));  // grant + write acks
}

TEST(BatchingTest, DelayZeroNeverWrapsEnvelopes) {
  core::RedPlaneConfig cfg = BatchedConfig();
  cfg.coalesce_delay = 0;  // per-packet mode
  Rig h(OneSwitchChain({.rp = cfg}));
  SendBurst(h, 1);
  h.sim.Run();
  SendBurst(h, 8);
  h.sim.Run();
  EXPECT_EQ(h.delivered, 9);
  EXPECT_DOUBLE_EQ(SwitchStat(h, "batch_envelopes"), 0.0);
  EXPECT_DOUBLE_EQ(StoreStat(h, 0, "batch_envelopes"), 0.0);
}

TEST(BatchingTest, LonePendingMessageLeavesUnwrapped) {
  // Paced traffic never accumulates two messages in a window, so the
  // coalescer must emit plain (unwrapped) protocol packets.
  Rig h(OneSwitchChain({.rp = BatchedConfig()}));
  SendPaced(h, 10, Milliseconds(1));
  h.sim.Run();
  EXPECT_EQ(h.delivered, 10);
  EXPECT_DOUBLE_EQ(SwitchStat(h, "batch_envelopes"), 0.0);
  EXPECT_DOUBLE_EQ(StoreStat(h, 0, "batch_envelopes"), 0.0);
  const auto key = net::PartitionKey::OfFlow(TheFlow());
  EXPECT_EQ(h.stores[0]->Find(key)->last_applied_seq, 10u);
}

TEST(BatchingTest, CountCapFlushesEarly) {
  core::RedPlaneConfig cfg = BatchedConfig();
  cfg.coalesce_delay = Milliseconds(10);  // timer would be far too slow
  cfg.coalesce_max_msgs = 4;
  Rig h(OneSwitchChain({.rp = cfg}));
  SendBurst(h, 1);
  h.sim.Run();
  const SimTime t0 = h.sim.Now();
  SendBurst(h, 8);
  // Run to well before the 10 ms timer: if only the timer could flush, no
  // write would be durable yet and no output released.
  h.sim.RunUntil(t0 + Milliseconds(2));
  EXPECT_EQ(h.delivered, 9);
  // Two cap-triggered envelopes of 4.
  EXPECT_GE(SwitchStat(h, "batch_envelopes"), 2.0);
  h.sim.Run();  // drain the superseded (gen-guarded) flush timers
}

// --- zero-copy cost model under batching ------------------------------------

struct BatchedWriteCosts {
  std::uint64_t encodes = 0;
  std::uint64_t deep_copies = 0;
};

BatchedWriteCosts MeasureBatchedWrites(int chain_size, int writes) {
  Rig h(OneSwitchChain({.stores = chain_size, .rp = BatchedConfig()}));
  SendBurst(h, 1);
  h.sim.Run();
  EXPECT_EQ(h.delivered, 1);

  core::ResetEncodeCount();
  net::Buffer::ResetCounters();
  SendBurst(h, writes);
  h.sim.Run();
  EXPECT_EQ(h.delivered, 1 + writes);
  EXPECT_GE(SwitchStat(h, "batch_envelopes"), 1.0);
  const auto key = net::PartitionKey::OfFlow(TheFlow());
  for (auto* replica : h.stores) {
    const auto* rec = replica->Find(key);
    EXPECT_NE(rec, nullptr);
    if (rec != nullptr) {
      EXPECT_EQ(rec->last_applied_seq,
                static_cast<std::uint64_t>(1 + writes));
    }
  }
  return {core::EncodeCount(), net::Buffer::DeepCopies()};
}

TEST(BatchingTest, BatchedWritesStayChainLengthIndependent) {
  // Mirrors zero_copy_test's invariant, through the envelope: exactly two
  // encodes per write (the request at the switch, the tail's per-sub ack) —
  // wrapping and unwrapping envelopes never re-serializes a message — and
  // byte copies stay flat as the chain grows (the mirror's truncation CoW
  // plus the head's per-sub decision stamp; replicas forward the envelope
  // verbatim).
  constexpr int kWrites = 8;
  const BatchedWriteCosts single = MeasureBatchedWrites(1, kWrites);
  const BatchedWriteCosts chain3 = MeasureBatchedWrites(3, kWrites);

  EXPECT_EQ(single.encodes, 2u * kWrites);
  EXPECT_EQ(chain3.encodes, 2u * kWrites);
  EXPECT_EQ(single.deep_copies, chain3.deep_copies)
      << "forwarding a batch through extra replicas must not copy bytes";
}

// --- renew-wedge regression (the headline bugfix) ---------------------------

TEST(BatchingTest, DroppedRenewDoesNotWedgeTheFlow) {
  testing::ReadEchoApp app;
  core::RedPlaneConfig cfg;
  // The renew window opens 4 ms before expiry and the renew times out after
  // 500 µs, so the un-wedge retry (at the next 1 ms-paced read) lands well
  // before the lease lapses.
  cfg.lease_period = Milliseconds(8);
  cfg.renew_interval = Milliseconds(4);
  cfg.request_timeout = Microseconds(500);
  Rig h(app, OneSwitchChain({.rp = cfg}));

  // Drop exactly the first kLeaseRenewOnly request on its way to the store.
  bool dropped_one = false;
  h.hub_drop = [&dropped_one, &h](const net::Packet& pkt) {
    if (dropped_one || !pkt.ip.has_value() ||
        pkt.ip->dst != h.stores[0]->ip()) {
      return false;
    }
    auto msg = core::MsgView::Parse(pkt.payload);
    if (msg.has_value() && msg->type() == core::MsgType::kLeaseRenewOnly) {
      dropped_one = true;
      return true;
    }
    return false;
  };

  // Steady reads across many lease periods.
  SendPaced(h, 40, Milliseconds(1));
  h.sim.Run();

  EXPECT_TRUE(dropped_one) << "scenario never exercised the drop";
  EXPECT_EQ(h.delivered, 40);
  // The wedge: before the fix the lost renew pinned renew_in_flight, no
  // further renewals went out, the lease silently expired, and the next
  // packet re-Inited the flow.  Fixed: the switch times the renew out,
  // retries, and the flow never re-Inits.
  EXPECT_DOUBLE_EQ(SwitchStat(h, "inits_sent"), 1.0);
  EXPECT_GE(SwitchStat(h, "renew_timeouts"), 1.0);
  EXPECT_GE(SwitchStat(h, "renewals_sent"), 2.0);
  const auto key = net::PartitionKey::OfFlow(TheFlow());
  const core::FlowRef entry = h.rp[0]->flow_table().Find(key);
  ASSERT_TRUE(entry);
  EXPECT_TRUE(entry.LeaseActive(h.sim.Now()));
}

// --- retransmit scan idle-stop regression -----------------------------------

TEST(BatchingTest, RetxScanStopsWhenGiveUpDrainsTheTable) {
  core::RedPlaneConfig cfg;
  cfg.lease_period = Seconds(2);
  cfg.renew_interval = Seconds(1);
  cfg.request_timeout = Microseconds(200);
  cfg.max_retransmissions = 3;
  Rig h(OneSwitchChain({.rp = cfg}));
  SendBurst(h, 1);
  h.sim.Run();
  ASSERT_EQ(h.delivered, 1);

  // Cut the store off: the next write retransmits, then gives up, draining
  // the mirror table inside one scan invocation.
  h.hub_drop = [&h](const net::Packet& pkt) {
    return pkt.ip.has_value() && pkt.ip->dst == h.stores[0]->ip();
  };
  SendBurst(h, 1);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(5));  // >> give-up horizon

  EXPECT_GE(SwitchStat(h, "retx_give_ups"), 1.0);
  EXPECT_EQ(h.sw[0]->mirror().NumEntries(), 0u);
  // The scan must have stopped with the table: an idle switch schedules
  // nothing.  (Before the fix it rescheduled itself forever, leaving one
  // pending no-op timer event per scan interval.)
  EXPECT_EQ(h.sim.PendingEvents(), 0u);
}

// --- audit see-through ------------------------------------------------------

TEST(BatchingTest, ArmedAuditorStaysSilentThroughEnvelopes) {
  Rig h(OneSwitchChain({.stores = 3, .rp = BatchedConfig(), .audit = true}));
  SendBurst(h, 1);
  h.sim.Run();
  for (int round = 0; round < 5; ++round) {
    SendBurst(h, 6);
    h.sim.Run();
  }
  EXPECT_EQ(h.delivered, 31);
  ASSERT_GE(SwitchStat(h, "batch_envelopes"), 1.0);
  EXPECT_EQ(h.auditor.violations().size(), 0u)
      << h.auditor.violations()[0].detail;
}

TEST(BatchingTest, EarlyChainAckStillCaughtThroughEnvelopes) {
  // The chain-commit oracle must see through the envelope: a mutated head
  // that acks batched writes before chain-wide commit is still flagged.
  Rig h(OneSwitchChain({.stores = 3,
                        .rp = BatchedConfig(),
                        .head_mutations = {.early_chain_ack = true},
                        .audit = true}));
  SendBurst(h, 1);
  h.sim.Run();
  SendBurst(h, 6);
  h.sim.Run();
  ASSERT_GE(SwitchStat(h, "batch_envelopes"), 1.0);
  EXPECT_GE(h.auditor.ViolationCount("chain_commit"), 1u);
  EXPECT_EQ(h.auditor.ViolationCount("chain_commit"),
            h.auditor.violations().size());
}

}  // namespace
}  // namespace redplane
