// Multi-shard state store: flows partition across independent store shards
// via the PartitionMap (§5.1.1, "we partition it across multiple shards by
// flow"); each shard owns its flows' leases independently, and failover
// migrates each flow from its own shard.
#include <gtest/gtest.h>

#include "tests/audit_diag.h"

#include <set>

#include "net/codec.h"
#include "statestore/partition.h"
#include "tests/rig.h"

namespace redplane {
namespace {

using testing::Rig;

net::FlowKey FlowI(int i) {
  return {testing::kSrcIp, testing::kDstIp,
          static_cast<std::uint16_t>(1000 + i), 80, net::IpProto::kUdp};
}

/// The two-switch rig (seed 77, 10 ms leases) over `num_shards` independent
/// store shards; the switches look shards up through `map`.
struct ShardedRig : Rig {
  explicit ShardedRig(int num_shards)
      : Rig({.seed = 77,
             .stores = num_shards,
             .rp = {.lease_period = Milliseconds(10)}}) {
    std::vector<net::Ipv4Addr> shard_ips;
    for (const auto* shard : stores) shard_ips.push_back(shard->ip());
    map = store::PartitionMap(shard_ips);
    shard_for = [this](const net::PartitionKey& key) {
      return map.ShardFor(key);
    };
  }
  store::PartitionMap map;
};

class MultiShard : public ::testing::TestWithParam<int> {};

TEST_P(MultiShard, FlowsPartitionAcrossShards) {
  ShardedRig h(GetParam());
  const int flows = 40;
  for (int i = 0; i < flows; ++i) {
    for (int p = 0; p < 3; ++p) {
      h.src->SendTo(0, net::MakeUdpPacket(FlowI(i), 20));
      h.sim.RunUntil(h.sim.Now() + Microseconds(200));
    }
  }
  h.sim.Run();
  EXPECT_EQ(h.delivered, flows * 3);

  // Every flow's record lives on exactly the shard the map names, with the
  // full count; every shard carries some of the load.
  std::set<std::size_t> used;
  for (int i = 0; i < flows; ++i) {
    const auto key = net::PartitionKey::OfFlow(FlowI(i));
    const std::size_t idx = h.map.ShardIndexFor(key);
    used.insert(idx);
    for (std::size_t s = 0; s < h.stores.size(); ++s) {
      const auto* rec = h.stores[s]->Find(key);
      if (s == idx) {
        ASSERT_NE(rec, nullptr) << "flow " << i;
        EXPECT_EQ(rec->last_applied_seq, 3u);
      } else {
        EXPECT_EQ(rec, nullptr) << "flow " << i << " leaked to shard " << s;
      }
    }
  }
  EXPECT_EQ(used.size(), h.stores.size());
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, MultiShard, ::testing::Values(1, 2, 3));

TEST(MultiShardTest, FailoverMigratesEachFlowFromItsOwnShard) {
  ShardedRig h(3);
  const int flows = 12;
  for (int i = 0; i < flows; ++i) {
    h.src->SendTo(0, net::MakeUdpPacket(FlowI(i), 20));
  }
  h.sim.RunUntil(h.sim.Now() + Milliseconds(5));
  EXPECT_EQ(h.delivered, flows);

  // Reroute everything to sw2 (sw1 fails); each flow migrates from its
  // responsible shard and the counters continue at 2.
  h.sw[0]->SetUp(false);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(20));  // leases lapse
  for (int i = 0; i < flows; ++i) {
    h.src->SendTo(1, net::MakeUdpPacket(FlowI(i), 20));
  }
  h.sim.RunUntil(h.sim.Now() + Milliseconds(50));
  EXPECT_EQ(h.delivered, 2 * flows);
  for (int i = 0; i < flows; ++i) {
    const auto key = net::PartitionKey::OfFlow(FlowI(i));
    const auto* rec = h.stores[h.map.ShardIndexFor(key)]->Find(key);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->last_applied_seq, 2u);
    EXPECT_EQ(rec->owner, testing::kSw2Ip);
  }
  EXPECT_GE(h.rp[1]->stats().Get("grants_migrate"), static_cast<double>(flows));
}

}  // namespace
}  // namespace redplane
