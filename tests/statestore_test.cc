#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/protocol.h"
#include "sim/host.h"
#include "sim/network.h"
#include "statestore/partition.h"
#include "statestore/pools.h"
#include "statestore/server.h"

namespace redplane::store {
namespace {

using core::AckKind;
using core::Msg;
using core::MsgType;

net::PartitionKey Key(int n) { return net::PartitionKey::OfObject(n); }

/// Harness: two pseudo-switch hosts wired to a chain of store servers
/// through a star hub that routes by destination IP; records every ack.
class StoreHarness {
 public:
  explicit StoreHarness(int chain_size, StoreConfig config = {}) {
    net_ = std::make_unique<sim::Network>(sim_, 5);
    hub_ = net_->AddNode<sim::HostNode>("hub", net::Ipv4Addr(9, 9, 9, 9));
    hub_->SetHandler([this](sim::HostNode& self, net::Packet pkt) {
      for (std::size_t port = 0; port < self.NumPorts(); ++port) {
        sim::Link* link = self.LinkAt(static_cast<PortId>(port));
        if (link == nullptr) continue;
        sim::Node* other = link->endpoint_a() == &self ? link->endpoint_b()
                                                       : link->endpoint_a();
        net::Ipv4Addr other_ip;
        if (auto* host = dynamic_cast<sim::HostNode*>(other)) {
          other_ip = host->ip();
        } else if (auto* server = dynamic_cast<StateStoreServer*>(other)) {
          other_ip = server->ip();
        } else {
          continue;
        }
        if (pkt.ip.has_value() && pkt.ip->dst == other_ip) {
          self.SendTo(static_cast<PortId>(port), std::move(pkt));
          return;
        }
      }
    });

    for (int i = 0; i < 2; ++i) {
      auto* sw = net_->AddNode<sim::HostNode>(
          "sw" + std::to_string(i), net::Ipv4Addr(172, 16, 0, 1 + i));
      sw->SetHandler([this, i](sim::HostNode&, net::Packet pkt) {
        if (!core::IsProtocolPacket(pkt)) return;
        auto msg = core::DecodeFromPacket(pkt);
        if (msg.has_value()) acks_[i].push_back(std::move(*msg));
      });
      net_->Connect(sw, 0, hub_, static_cast<PortId>(i));
      switches_[i] = sw;
    }

    for (int i = 0; i < chain_size; ++i) {
      auto* server = net_->AddNode<StateStoreServer>(
          "store" + std::to_string(i), net::Ipv4Addr(172, 16, 1, 1 + i),
          config);
      net_->Connect(server, 0, hub_, static_cast<PortId>(2 + i));
      servers_.push_back(server);
    }
    for (int i = 0; i < chain_size; ++i) {
      servers_[i]->SetIsHead(i == 0);
      if (i + 1 < chain_size) {
        servers_[i]->SetChainSuccessor(servers_[i + 1]->ip());
      }
    }
  }

  void Send(int sw, Msg msg) {
    msg.reply_to = switches_[sw]->ip();
    switches_[sw]->Send(core::MakeProtocolPacket(switches_[sw]->ip(),
                                                 servers_[0]->ip(), msg));
  }

  Msg MakeInit(int key) {
    Msg m;
    m.type = MsgType::kLeaseNewReq;
    m.key = Key(key);
    return m;
  }

  Msg MakeWrite(int key, std::uint64_t seq, std::uint8_t value) {
    Msg m;
    m.type = MsgType::kLeaseRenewReq;
    m.key = Key(key);
    m.seq = seq;
    m.state = {std::byte{value}};
    return m;
  }

  sim::Simulator sim_;
  std::unique_ptr<sim::Network> net_;
  sim::HostNode* hub_;
  std::array<sim::HostNode*, 2> switches_{};
  std::vector<StateStoreServer*> servers_;
  std::vector<Msg> acks_[2];
};

TEST(StateStoreTest, GrantsLeaseToNewFlow) {
  StoreHarness h(1);
  h.Send(0, h.MakeInit(1));
  h.sim_.Run();
  ASSERT_EQ(h.acks_[0].size(), 1u);
  EXPECT_EQ(h.acks_[0][0].ack, AckKind::kLeaseGrantNew);
  const FlowRecord* rec = h.servers_[0]->Find(Key(1));
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->owner, h.switches_[0]->ip());
  EXPECT_TRUE(rec->exists);
}

TEST(StateStoreTest, SecondSwitchInitBuffersUntilLeaseLapses) {
  StoreConfig cfg;
  cfg.lease_period = Milliseconds(10);
  StoreHarness h(1, cfg);
  h.Send(0, h.MakeInit(1));
  h.sim_.Run();
  h.Send(1, h.MakeInit(1));
  h.sim_.RunUntil(Milliseconds(5));
  EXPECT_TRUE(h.acks_[1].empty());  // buffered while switch 0 owns
  h.sim_.RunUntil(Milliseconds(20));
  ASSERT_EQ(h.acks_[1].size(), 1u);
  // Flow existed, so the grant carries migration semantics.
  EXPECT_EQ(h.acks_[1][0].ack, AckKind::kLeaseGrantMigrate);
  EXPECT_EQ(h.servers_[0]->Find(Key(1))->owner, h.switches_[1]->ip());
}

TEST(StateStoreTest, MigrationReturnsLatestState) {
  StoreConfig cfg;
  cfg.lease_period = Milliseconds(10);
  StoreHarness h(1, cfg);
  h.Send(0, h.MakeInit(1));
  h.sim_.Run();
  h.Send(0, h.MakeWrite(1, 1, 0xaa));
  h.Send(0, h.MakeWrite(1, 2, 0xbb));
  h.sim_.Run();
  h.sim_.RunUntil(Milliseconds(30));  // lease lapses
  h.Send(1, h.MakeInit(1));
  h.sim_.Run();
  ASSERT_EQ(h.acks_[1].size(), 1u);
  EXPECT_EQ(h.acks_[1][0].ack, AckKind::kLeaseGrantMigrate);
  EXPECT_EQ(h.acks_[1][0].seq, 2u);
  ASSERT_EQ(h.acks_[1][0].state.size(), 1u);
  EXPECT_EQ(h.acks_[1][0].state[0], std::byte{0xbb});
}

TEST(StateStoreTest, StaleSequenceNumbersDiscarded) {
  StoreHarness h(1);
  h.Send(0, h.MakeInit(1));
  h.sim_.Run();
  // Out-of-order arrival: seq 2 before seq 1 (Fig. 6).
  h.Send(0, h.MakeWrite(1, 2, 0x22));
  h.sim_.Run();
  h.Send(0, h.MakeWrite(1, 1, 0x11));
  h.sim_.Run();
  const FlowRecord* rec = h.servers_[0]->Find(Key(1));
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->last_applied_seq, 2u);
  EXPECT_EQ(rec->state[0], std::byte{0x22});  // newer value survives
  // Both writes were acked (the stale one so the switch clears its buffer).
  EXPECT_EQ(h.acks_[0].size(), 3u);  // grant + 2 write acks
  EXPECT_DOUBLE_EQ(h.servers_[0]->counters().Get("stale_writes"), 1.0);
}

TEST(StateStoreTest, DuplicateWriteIdempotent) {
  StoreHarness h(1);
  h.Send(0, h.MakeInit(1));
  h.sim_.Run();
  h.Send(0, h.MakeWrite(1, 1, 0x11));
  h.sim_.Run();
  h.Send(0, h.MakeWrite(1, 1, 0x11));  // retransmission
  h.sim_.Run();
  EXPECT_EQ(h.servers_[0]->Find(Key(1))->last_applied_seq, 1u);
  ASSERT_EQ(h.acks_[0].size(), 3u);
  EXPECT_EQ(h.acks_[0][2].seq, 1u);  // duplicate still acked
}

TEST(StateStoreTest, WriteDeniedWhileOtherSwitchHoldsLease) {
  StoreHarness h(1);
  h.Send(0, h.MakeInit(1));
  h.sim_.Run();
  h.Send(1, h.MakeWrite(1, 5, 0x55));
  h.sim_.Run();
  ASSERT_EQ(h.acks_[1].size(), 1u);
  EXPECT_EQ(h.acks_[1][0].ack, AckKind::kLeaseDenied);
  EXPECT_EQ(h.servers_[0]->Find(Key(1))->last_applied_seq, 0u);
}

class ChainSizes : public ::testing::TestWithParam<int> {};

TEST_P(ChainSizes, WritePropagatesToEveryReplicaBeforeAck) {
  StoreHarness h(GetParam());
  h.Send(0, h.MakeInit(1));
  h.sim_.Run();
  h.Send(0, h.MakeWrite(1, 1, 0x77));
  h.sim_.Run();
  ASSERT_EQ(h.acks_[0].size(), 2u);
  EXPECT_EQ(h.acks_[0][1].ack, AckKind::kWriteAck);
  for (auto* server : h.servers_) {
    const FlowRecord* rec = server->Find(Key(1));
    ASSERT_NE(rec, nullptr) << server->name();
    EXPECT_EQ(rec->last_applied_seq, 1u) << server->name();
    ASSERT_EQ(rec->state.size(), 1u);
    EXPECT_EQ(rec->state[0], std::byte{0x77});
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChainSizes, ::testing::Values(1, 2, 3));

TEST(StateStoreTest, ChainAckTakesLongerThanSingleServer) {
  StoreHarness h1(1);
  StoreHarness h3(3);
  h1.Send(0, h1.MakeInit(1));
  h3.Send(0, h3.MakeInit(1));
  h1.sim_.Run();
  h3.sim_.Run();
  EXPECT_GT(h3.sim_.Now(), h1.sim_.Now());
}

TEST(StateStoreTest, PiggybackEchoedInWriteAck) {
  StoreHarness h(2);
  h.Send(0, h.MakeInit(1));
  h.sim_.Run();
  Msg w = h.MakeWrite(1, 1, 0x42);
  net::FlowKey inner{net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2), 3,
                     4, net::IpProto::kUdp};
  w.piggyback = net::MakeUdpPacket(inner, 80);
  h.Send(0, w);
  h.sim_.Run();
  ASSERT_EQ(h.acks_[0].size(), 2u);
  ASSERT_TRUE(h.acks_[0][1].piggyback.has_value());
  EXPECT_EQ(*h.acks_[0][1].piggyback->Flow(), inner);
}

TEST(StateStoreTest, ReadBufferParksUntilAwaitedWriteApplied) {
  StoreHarness h(1);
  h.Send(0, h.MakeInit(1));
  h.sim_.Run();
  Msg read;
  read.type = MsgType::kReadBufferReq;
  read.key = Key(1);
  read.seq = 3;
  net::FlowKey inner{net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2), 3,
                     4, net::IpProto::kUdp};
  read.piggyback = net::MakeUdpPacket(inner, 10);
  h.Send(0, read);
  h.sim_.Run();
  EXPECT_EQ(h.acks_[0].size(), 1u);  // only the grant: read parked
  h.Send(0, h.MakeWrite(1, 3, 0x33));
  h.sim_.Run();
  ASSERT_EQ(h.acks_[0].size(), 3u);
  bool saw_read_return = false;
  for (const Msg& m : h.acks_[0]) {
    if (m.ack == AckKind::kReadReturn) {
      saw_read_return = true;
      EXPECT_TRUE(m.piggyback.has_value());
    }
  }
  EXPECT_TRUE(saw_read_return);
}

TEST(StateStoreTest, SnapshotSlotsStoredWithRoundSequencing) {
  StoreHarness h(1);
  Msg snap;
  snap.type = MsgType::kSnapshotRepl;
  snap.key = net::PartitionKey::OfVlan(7);
  snap.seq = 2;
  snap.snapshot_index = 5;
  snap.state = {std::byte{0x05}};
  h.Send(0, snap);
  h.sim_.Run();
  // A stale round for the same slot must not overwrite.
  snap.seq = 1;
  snap.state = {std::byte{0x99}};
  h.Send(0, snap);
  h.sim_.Run();
  const FlowRecord* rec = h.servers_[0]->Find(net::PartitionKey::OfVlan(7));
  ASSERT_NE(rec, nullptr);
  ASSERT_TRUE(rec->mode);
  const auto it = rec->mode->snapshot_slots.find(5);
  ASSERT_NE(it, rec->mode->snapshot_slots.end());
  EXPECT_EQ(it->second.first[0], std::byte{0x05});
  EXPECT_EQ(it->second.second, 2u);
  ASSERT_EQ(h.acks_[0].size(), 2u);
  EXPECT_EQ(h.acks_[0][1].ack, AckKind::kSnapshotAck);
}

TEST(StateStoreTest, SingleOwnerRecordCarriesNoModeBlock) {
  // Init and seq-ordered writes never touch the snapshot or replicated-read
  // lanes, so no replica allocates them; the first snapshot write does.
  StoreHarness h(3);
  h.Send(0, h.MakeInit(1));
  h.sim_.Run();
  h.Send(0, h.MakeWrite(1, 1, 0x11));
  h.sim_.Run();
  for (const StateStoreServer* server : h.servers_) {
    const FlowRecord* rec = server->Find(Key(1));
    ASSERT_NE(rec, nullptr) << server->name();
    EXPECT_EQ(rec->last_applied_seq, 1u) << server->name();
    EXPECT_FALSE(rec->mode) << server->name();
  }
  Msg snap;
  snap.type = MsgType::kSnapshotRepl;
  snap.key = Key(1);
  snap.seq = 1;
  snap.snapshot_index = 0;
  snap.state = {std::byte{0x01}};
  h.Send(0, snap);
  h.sim_.Run();
  for (const StateStoreServer* server : h.servers_) {
    const FlowRecord* rec = server->Find(Key(1));
    ASSERT_TRUE(rec->mode) << server->name();
    EXPECT_EQ(rec->mode->snapshot_slots.size(), 1u) << server->name();
  }
}

TEST(StateStoreTest, RecordCopiesDeepCopyTheModeBlock) {
  FlowRecord a;
  a.mode.GetOrCreate().subscribers.push_back(net::Ipv4Addr(10, 0, 0, 1));
  FlowRecord b = a;
  b.mode.GetOrCreate().subscribers.push_back(net::Ipv4Addr(10, 0, 0, 2));
  EXPECT_EQ(a.mode->subscribers.size(), 1u);
  EXPECT_EQ(b.mode->subscribers.size(), 2u);
  FlowRecord c;
  c = b;
  b.mode.GetOrCreate().last_snapshot_at = 5;
  EXPECT_EQ(c.mode->subscribers.size(), 2u);
  EXPECT_EQ(c.mode->last_snapshot_at, 0);
  c = FlowRecord{};
  EXPECT_FALSE(c.mode);
}

TEST(StateStoreTest, ResyncImportMergesModeBlocks) {
  StoreHarness h(1);
  StateStoreServer& server = *h.servers_[0];
  const net::Ipv4Addr ip1(172, 16, 0, 1), ip2(172, 16, 0, 2),
      ip3(172, 16, 0, 3);
  auto slot = [](std::uint8_t v, std::uint64_t seq) {
    return std::make_pair(std::vector<std::byte>{std::byte{v}}, seq);
  };
  std::unordered_map<net::PartitionKey, FlowRecord> local;
  {
    FlowModeState& m = local[Key(1)].mode.GetOrCreate();
    m.snapshot_slots = {{1, slot(0x10, 5)}, {2, slot(0x20, 3)}};
    m.last_snapshot_at = 10;
    m.subscribers = {ip1};
  }
  local[Key(2)].exists = true;
  local[Key(4)].exists = true;
  server.ImportFlows(std::move(local));

  std::unordered_map<net::PartitionKey, FlowRecord> incoming;
  {
    FlowModeState& m = incoming[Key(1)].mode.GetOrCreate();
    m.snapshot_slots = {{1, slot(0x11, 4)}, {2, slot(0x21, 7)},
                        {3, slot(0x31, 1)}};
    m.last_snapshot_at = 20;
    m.subscribers = {ip2, ip1};
  }
  {
    FlowModeState& m = incoming[Key(2)].mode.GetOrCreate();
    m.snapshot_slots = {{4, slot(0x41, 2)}};
    m.last_snapshot_at = 5;
    m.subscribers = {ip3};
  }
  incoming[Key(3)].exists = true;
  incoming[Key(4)].exists = true;
  server.ImportFlows(std::move(incoming));

  // Per slot the higher sequence wins; last_snapshot_at takes the max and
  // subscribers are unioned in arrival order.
  const FlowRecord* r1 = server.Find(Key(1));
  ASSERT_TRUE(r1->mode);
  const auto& s1 = r1->mode->snapshot_slots;
  ASSERT_EQ(s1.size(), 3u);
  EXPECT_EQ(s1.at(1), slot(0x10, 5));
  EXPECT_EQ(s1.at(2), slot(0x21, 7));
  EXPECT_EQ(s1.at(3), slot(0x31, 1));
  EXPECT_EQ(r1->mode->last_snapshot_at, 20);
  EXPECT_EQ(r1->mode->subscribers, (std::vector<net::Ipv4Addr>{ip1, ip2}));
  // A record without a block merges as an empty one.
  const FlowRecord* r2 = server.Find(Key(2));
  ASSERT_TRUE(r2->mode);
  EXPECT_EQ(r2->mode->snapshot_slots.size(), 1u);
  EXPECT_EQ(r2->mode->last_snapshot_at, 5);
  EXPECT_EQ(r2->mode->subscribers, (std::vector<net::Ipv4Addr>{ip3}));
  // Neither side used the lanes: still none.
  ASSERT_NE(server.Find(Key(3)), nullptr);
  EXPECT_FALSE(server.Find(Key(3))->mode);
  EXPECT_FALSE(server.Find(Key(4))->mode);
}

TEST(StateStoreTest, InitializerSuppliesNewFlowState) {
  StoreConfig cfg;
  cfg.initializer = [](const net::PartitionKey&) {
    return std::vector<std::byte>{std::byte{0x5c}};
  };
  StoreHarness h(1, cfg);
  h.Send(0, h.MakeInit(3));
  h.sim_.Run();
  ASSERT_EQ(h.acks_[0].size(), 1u);
  ASSERT_EQ(h.acks_[0][0].state.size(), 1u);
  EXPECT_EQ(h.acks_[0][0].state[0], std::byte{0x5c});
}

TEST(StateStoreTest, ServiceTimeQueuesRequests) {
  StoreConfig cfg;
  cfg.service_time = Microseconds(10);
  StoreHarness h(1, cfg);
  for (int i = 0; i < 5; ++i) h.Send(0, h.MakeInit(i));
  h.sim_.Run();
  EXPECT_EQ(h.acks_[0].size(), 5u);
  EXPECT_EQ(h.servers_[0]->busy_time(), Microseconds(50));
}

TEST(PartitionMapTest, StableAndCoversAllShards) {
  std::vector<net::Ipv4Addr> shards = {net::Ipv4Addr(1, 0, 0, 1),
                                       net::Ipv4Addr(1, 0, 0, 2),
                                       net::Ipv4Addr(1, 0, 0, 3)};
  PartitionMap map(shards);
  std::set<std::size_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto key = Key(i);
    const auto idx = map.ShardIndexFor(key);
    EXPECT_EQ(map.ShardIndexFor(key), idx);  // deterministic
    EXPECT_EQ(map.ShardFor(key), shards[idx]);
    seen.insert(idx);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(PartitionMapTest, EmptyShardListThrowsInAllBuildModes) {
  // A throw, not an assert: the misconfiguration must be rejected in release
  // (NDEBUG) builds too, not only when assertions are compiled in.
  EXPECT_THROW(PartitionMap(std::vector<net::Ipv4Addr>{}),
               std::invalid_argument);
  PartitionMap empty;  // default-constructed: no shards either
  EXPECT_THROW(empty.ShardIndexFor(Key(1)), std::logic_error);
}

TEST(PortPoolTest, AllocateReleaseExhaustion) {
  PortPool pool(net::Ipv4Addr(10, 0, 0, 1), 1000, 3);
  auto a = pool.Allocate();
  auto b = pool.Allocate();
  auto c = pool.Allocate();
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(*a, 1000);
  EXPECT_FALSE(pool.Allocate().has_value());
  pool.Release(*b);
  EXPECT_EQ(pool.FreeCount(), 1u);
  EXPECT_EQ(pool.Allocate(), *b);
  pool.Release(9999);  // out of range: ignored
  pool.Release(*a);
  pool.Release(*a);  // double free: ignored
  EXPECT_EQ(pool.FreeCount(), 1u);
}

TEST(BackendPoolTest, WeightedRoundRobin) {
  BackendPool pool;
  pool.Add({net::Ipv4Addr(1, 1, 1, 1), 80, 2});
  pool.Add({net::Ipv4Addr(2, 2, 2, 2), 80, 1});
  std::map<std::uint32_t, int> counts;
  for (int i = 0; i < 300; ++i) {
    auto b = pool.Pick();
    ASSERT_TRUE(b.has_value());
    ++counts[b->ip.value];
  }
  EXPECT_EQ(counts[net::Ipv4Addr(1, 1, 1, 1).value], 200);
  EXPECT_EQ(counts[net::Ipv4Addr(2, 2, 2, 2).value], 100);
  pool.Remove(net::Ipv4Addr(1, 1, 1, 1), 80);
  EXPECT_EQ(pool.Pick()->ip, net::Ipv4Addr(2, 2, 2, 2));
}

}  // namespace
}  // namespace redplane::store
