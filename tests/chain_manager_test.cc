// Chain reconfiguration tests: the store keeps serving through replica
// failures (head, middle, tail), and recovered replicas rejoin as tails
// after a resync.
#include <gtest/gtest.h>

#include "net/codec.h"
#include "statestore/chain_manager.h"
#include "tests/rig.h"

namespace redplane::store {
namespace {

net::FlowKey TheFlow() {
  return {testing::kSrcIp, testing::kDstIp, 1000, 80, net::IpProto::kUdp};
}

ChainManagerConfig ManagerConfig() {
  ChainManagerConfig cfg;
  cfg.probe_interval = Milliseconds(2);
  cfg.resync_delay = Milliseconds(1);
  return cfg;
}

/// One RedPlane switch (seed 31) against a managed chain of 3; the switch
/// finds the head through the manager, so reconfigured chains keep serving.
class ChainManagerTest : public ::testing::Test {
 protected:
  ChainManagerTest() {
    manager.Start();
    h.shard_for = [this](const net::PartitionKey&) {
      return manager.HeadIp();
    };
  }

  /// Sends `n` packets paced 1 ms apart.
  void SendPaced(int n) {
    for (int i = 0; i < n; ++i) {
      h.src->Send(net::MakeUdpPacket(TheFlow(), 20));
      h.Run(Milliseconds(1));
    }
  }

  std::uint64_t StoreSeqAtHead() const {
    const auto* rec = manager.ActiveChain().front()->Find(
        net::PartitionKey::OfFlow(TheFlow()));
    return rec == nullptr ? 0 : rec->last_applied_seq;
  }

  testing::Rig h{{.seed = 31,
                  .switches = 1,
                  .stores = 3,
                  .chain = true,
                  .rp = {.lease_period = Milliseconds(20),
                         .renew_interval = Milliseconds(10),
                         .request_timeout = Microseconds(300)}}};
  ChainManager manager{h.sim, h.stores, ManagerConfig()};
};

TEST_F(ChainManagerTest, InitialWiringHeadMiddleTail) {
  EXPECT_EQ(manager.HeadIp(), h.stores[0]->ip());
  EXPECT_FALSE(h.stores[0]->IsTail());
  EXPECT_FALSE(h.stores[1]->IsTail());
  EXPECT_TRUE(h.stores[2]->IsTail());
}

TEST_F(ChainManagerTest, TailFailureSplicedAndServiceContinues) {
  SendPaced(5);
  EXPECT_EQ(h.delivered, 5);
  h.stores[2]->SetUp(false);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(10));
  EXPECT_EQ(manager.ActiveChain().size(), 2u);
  EXPECT_TRUE(h.stores[1]->IsTail());
  SendPaced(5);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(50));
  EXPECT_EQ(h.delivered, 10);
  EXPECT_EQ(StoreSeqAtHead(), 10u);
}

TEST_F(ChainManagerTest, MiddleFailureResyncsTail) {
  SendPaced(5);
  h.stores[1]->SetUp(false);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(10));
  ASSERT_EQ(manager.ActiveChain().size(), 2u);
  EXPECT_EQ(manager.ActiveChain()[1], h.stores[2]);
  SendPaced(5);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(50));
  EXPECT_EQ(h.delivered, 10);
  // Both survivors agree on the flow.
  const auto key = net::PartitionKey::OfFlow(TheFlow());
  EXPECT_EQ(h.stores[0]->Find(key)->last_applied_seq, 10u);
  EXPECT_EQ(h.stores[2]->Find(key)->last_applied_seq, 10u);
}

TEST_F(ChainManagerTest, HeadFailurePromotesSuccessor) {
  SendPaced(5);
  h.stores[0]->SetUp(false);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(10));
  EXPECT_EQ(manager.HeadIp(), h.stores[1]->ip());
  // The switch's dynamic shard lookup sends new requests to the new head;
  // the counter continues from the replicated value.
  SendPaced(5);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(100));
  EXPECT_EQ(h.delivered, 10);
  EXPECT_EQ(StoreSeqAtHead(), 10u);
}

TEST_F(ChainManagerTest, RecoveredReplicaRejoinsAsTailWithState) {
  SendPaced(5);
  h.stores[2]->SetUp(false);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(10));
  EXPECT_EQ(manager.ActiveChain().size(), 2u);
  SendPaced(3);

  h.stores[2]->SetUp(true);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(20));
  ASSERT_EQ(manager.ActiveChain().size(), 3u);
  EXPECT_EQ(manager.ActiveChain().back(), h.stores[2]);
  EXPECT_TRUE(h.stores[2]->IsTail());
  // The rejoined tail was resynced: it already holds the flow.
  const auto key = net::PartitionKey::OfFlow(TheFlow());
  ASSERT_NE(h.stores[2]->Find(key), nullptr);
  EXPECT_GE(h.stores[2]->Find(key)->last_applied_seq, 8u);

  // And participates in new commits.
  SendPaced(2);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(50));
  EXPECT_EQ(h.stores[2]->Find(key)->last_applied_seq, 10u);
}

TEST_F(ChainManagerTest, ResyncDoesNotMutateSourceReplica) {
  SendPaced(5);

  // ExportFlows is a cheap const view, not a copy: same address every call.
  const auto* export1 = &h.stores[0]->ExportFlows();
  const auto* export2 = &h.stores[0]->ExportFlows();
  EXPECT_EQ(export1, export2);

  // Snapshot the head's records before a splice-triggered resync.
  const auto before = *export1;  // deliberate deep copy for comparison
  ASSERT_FALSE(before.empty());

  h.stores[1]->SetUp(false);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(10));  // probe + resync fire
  ASSERT_EQ(manager.ActiveChain().size(), 2u);

  // The resync copied state into the tail without disturbing the source.
  const auto& after = h.stores[0]->ExportFlows();
  ASSERT_EQ(after.size(), before.size());
  for (const auto& [key, rec] : before) {
    const auto it = after.find(key);
    ASSERT_NE(it, after.end());
    EXPECT_EQ(it->second.last_applied_seq, rec.last_applied_seq);
    EXPECT_EQ(it->second.state, rec.state);
  }
  // The target really did receive the records.
  const auto key = net::PartitionKey::OfFlow(TheFlow());
  ASSERT_NE(h.stores[2]->Find(key), nullptr);
  EXPECT_EQ(h.stores[2]->Find(key)->last_applied_seq,
            before.at(key).last_applied_seq);
}

TEST_F(ChainManagerTest, SurvivesSequentialFailuresDownToOne) {
  SendPaced(3);
  h.stores[2]->SetUp(false);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(10));
  h.stores[0]->SetUp(false);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(10));
  ASSERT_EQ(manager.ActiveChain().size(), 1u);
  EXPECT_EQ(manager.ActiveChain()[0], h.stores[1]);
  EXPECT_TRUE(h.stores[1]->IsTail());
  SendPaced(3);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(100));
  EXPECT_EQ(h.delivered, 6);
  EXPECT_EQ(StoreSeqAtHead(), 6u);
}

TEST_F(ChainManagerTest, WritesDuringReconfigurationEventuallyDurable) {
  // Fail the head mid-burst: requests in flight to the old head are lost;
  // retransmission redirects them to the new head.
  for (int i = 0; i < 3; ++i) {
    h.src->Send(net::MakeUdpPacket(TheFlow(), 20));
    h.sim.RunUntil(h.sim.Now() + Milliseconds(1));
  }
  h.stores[0]->SetUp(false);
  for (int i = 0; i < 3; ++i) {
    h.src->Send(net::MakeUdpPacket(TheFlow(), 20));
    h.sim.RunUntil(h.sim.Now() + Milliseconds(1));
  }
  h.sim.RunUntil(h.sim.Now() + Milliseconds(200));
  // All processed writes are durable at the current head; the mirror is
  // drained.
  const auto key = net::PartitionKey::OfFlow(TheFlow());
  const auto entry = h.rp[0]->flow_table().Find(key);
  ASSERT_TRUE(entry);
  EXPECT_EQ(StoreSeqAtHead(), entry.cur_seq());
  EXPECT_EQ(h.sw[0]->mirror().NumEntries(), 0u);
}

}  // namespace
}  // namespace redplane::store
