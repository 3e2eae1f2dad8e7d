#include <gtest/gtest.h>

#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/flow_table.h"
#include "dataplane/control_plane.h"
#include "dataplane/digest_index.h"
#include "dataplane/match_table.h"
#include "dataplane/mirror.h"
#include "dataplane/packet_generator.h"
#include "dataplane/pipeline.h"
#include "dataplane/register_array.h"
#include "dataplane/resources.h"
#include "sim/host.h"
#include "sim/network.h"

namespace redplane::dp {
namespace {

TEST(RegisterArrayTest, ReadModifyWriteReturnsAluResult) {
  RegisterArray<std::uint32_t> reg("r", 8, 5);
  PipelinePass pass;
  const auto v = reg.ReadModifyWrite(pass, 3, [](std::uint32_t& x) {
    x += 10;
    return x;
  });
  EXPECT_EQ(v, 15u);
  EXPECT_EQ(reg.Peek(3), 15u);
  EXPECT_EQ(reg.Peek(0), 5u);
}

TEST(RegisterArrayTest, OneAccessPerPassEnforced) {
  RegisterArray<int> reg("r", 4);
  PipelinePass pass;
  reg.Read(pass, 0);
  EXPECT_DEATH(reg.Read(pass, 1), "second access");
}

TEST(RegisterArrayTest, DistinctPassesMayAccess) {
  RegisterArray<int> reg("r", 4);
  PipelinePass p1;
  reg.Write(p1, 0, 7);
  PipelinePass p2;
  EXPECT_EQ(reg.Read(p2, 0), 7);
}

TEST(RegisterArrayTest, OutOfRangeAborts) {
  RegisterArray<int> reg("r", 4);
  PipelinePass pass;
  EXPECT_DEATH(reg.Read(pass, 4), "out of range");
}

TEST(RegisterArrayTest, ResetRestoresInitial) {
  RegisterArray<int> reg("r", 4, 9);
  PipelinePass pass;
  reg.Write(pass, 2, 1);
  reg.Reset();
  EXPECT_EQ(reg.Peek(2), 9);
}

TEST(MatchTableTest, InsertLookupEraseCapacity) {
  MatchTable<int, int> table("t", 2);
  EXPECT_TRUE(table.Insert(1, 10));
  EXPECT_TRUE(table.Insert(2, 20));
  EXPECT_FALSE(table.Insert(3, 30));  // full
  EXPECT_TRUE(table.Insert(1, 11));   // overwrite allowed at capacity
  EXPECT_EQ(table.Lookup(1), 11);
  EXPECT_EQ(table.Lookup(3), std::nullopt);
  EXPECT_TRUE(table.Erase(2));
  EXPECT_FALSE(table.Erase(2));
  EXPECT_TRUE(table.Insert(3, 30));
  table.Reset();
  EXPECT_EQ(table.size(), 0u);
}

TEST(MirrorTest, OccupancyTracksEntriesAndAcks) {
  sim::Simulator sim;
  MirrorTable mirror(sim, "m", 64);
  const auto key = net::PartitionKey::OfObject(1);
  mirror.Mirror(key, 1, std::vector<std::byte>(40), 0);
  mirror.Mirror(key, 2, std::vector<std::byte>(40), 0);
  EXPECT_EQ(mirror.OccupancyBytes(), 80u);
  EXPECT_EQ(mirror.PeakOccupancyBytes(), 80u);
  mirror.Acknowledge(key, 1);
  EXPECT_EQ(mirror.OccupancyBytes(), 40u);
  EXPECT_EQ(mirror.NumEntries(), 1u);
  mirror.Acknowledge(key, 10);  // ack clears everything <= 10
  EXPECT_EQ(mirror.OccupancyBytes(), 0u);
  EXPECT_EQ(mirror.PeakOccupancyBytes(), 80u);  // peak persists
}

TEST(MirrorTest, TruncationCapsStoredBytes) {
  sim::Simulator sim;
  MirrorTable mirror(sim, "m", 64);
  mirror.Mirror(net::PartitionKey::OfObject(1), 1,
                std::vector<std::byte>(1500), 0);
  EXPECT_EQ(mirror.OccupancyBytes(), 64u);
}

TEST(MirrorTest, AckOnlyAffectsMatchingKey) {
  sim::Simulator sim;
  MirrorTable mirror(sim, "m", 64);
  mirror.Mirror(net::PartitionKey::OfObject(1), 5, std::vector<std::byte>(10),
                0);
  mirror.Mirror(net::PartitionKey::OfObject(2), 5, std::vector<std::byte>(10),
                0);
  mirror.Acknowledge(net::PartitionKey::OfObject(1), 5);
  EXPECT_EQ(mirror.NumEntries(), 1u);
}

// Cell of (digest, slot), or kNoCell.
std::size_t CellOf(const DigestIndex& index, std::uint64_t digest,
                   std::uint32_t slot) {
  return index.Find(digest, [slot](std::uint32_t s) { return s == slot; });
}

TEST(DigestIndexTest, BackwardShiftAcrossTheWrapKeepsEveryDigestReachable) {
  DigestIndex index;
  // Capacity 16: four digests share home cell 14 and wrap into cells 15, 0
  // and 1; 16 (home 0), 3 (home 3) and 17 (home 1) probe past them.
  const std::vector<std::pair<std::uint64_t, std::size_t>> layout = {
      {14, 14}, {30, 15}, {46, 0}, {62, 1}, {16, 2}, {3, 3}, {17, 4}};
  for (std::uint32_t s = 0; s < layout.size(); ++s) {
    EXPECT_EQ(index.Insert(layout[s].first, s), layout[s].second);
  }
  ASSERT_EQ(index.StatsNow().capacity, 16u);
  // 62 sits 3 cells past its home; 17 at cell 4 sits 3 past cell 1.
  EXPECT_EQ(index.StatsNow().max_probe, 4u);

  index.Erase(CellOf(index, 30, 1));
  // Followers shift back into the hole, except 3, which is at its home.
  const std::vector<std::pair<std::uint32_t, std::size_t>> after = {
      {0, 14}, {2, 15}, {3, 0}, {4, 1}, {5, 3}, {6, 2}};
  for (const auto& [slot, cell] : after) {
    EXPECT_EQ(CellOf(index, layout[slot].first, slot), cell) << slot;
  }
  EXPECT_EQ(CellOf(index, 30, 1), DigestIndex::kNoCell);
  EXPECT_EQ(index.StatsNow().used, 6u);
  EXPECT_EQ(index.StatsNow().max_probe, 3u);
}

TEST(DigestIndexTest, GrowsFrom16To32OnTheTwelfthInsert) {
  DigestIndex index;
  EXPECT_EQ(index.StatsNow().capacity, 0u);
  for (std::uint32_t s = 0; s < 11; ++s) index.Insert(s * 7, s);
  EXPECT_EQ(index.StatsNow().capacity, 16u);  // 11/16 is under 70%
  index.Insert(1000, 11);
  EXPECT_EQ(index.StatsNow().capacity, 32u);
  EXPECT_EQ(index.StatsNow().used, 12u);
  EXPECT_DOUBLE_EQ(index.StatsNow().load(), 12.0 / 32.0);
  for (std::uint32_t s = 0; s < 11; ++s) {
    EXPECT_NE(CellOf(index, s * 7, s), DigestIndex::kNoCell);
  }
}

TEST(DigestIndexTest, ClearKeepsTheCapacity) {
  DigestIndex index;
  for (std::uint32_t s = 0; s < 20; ++s) index.Insert(s, s);
  ASSERT_EQ(index.StatsNow().capacity, 32u);
  index.Clear();
  EXPECT_EQ(index.StatsNow().capacity, 32u);
  EXPECT_EQ(index.StatsNow().used, 0u);
  EXPECT_EQ(index.StatsNow().max_probe, 0u);
  EXPECT_EQ(CellOf(index, 3, 3), DigestIndex::kNoCell);
  index.Insert(3, 3);
  EXPECT_EQ(CellOf(index, 3, 3), 3u);
}

TEST(DigestIndexTest, MatchesUnorderedMultimapUnderChurn) {
  DigestIndex index;
  std::unordered_multimap<std::uint64_t, std::uint32_t> model;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> live;
  std::mt19937_64 rng(38);
  std::uint32_t next_slot = 0;
  // Few distinct low bits: most digests share home cells at every capacity
  // the index reaches, so probe chains run long and erases shift cells.
  auto draw_digest = [&rng] { return ((rng() % 64) << 8) | (rng() % 4); };
  for (int op = 0; op < 10000; ++op) {
    const std::uint64_t r = rng() % 10;
    if (r < 4 && live.size() < 300) {
      const std::uint64_t d = draw_digest();
      index.Insert(d, next_slot);
      model.emplace(d, next_slot);
      live.emplace_back(d, next_slot);
      ++next_slot;
    } else if (r < 7 && !live.empty()) {
      const std::size_t pick = rng() % live.size();
      const auto [d, s] = live[pick];
      const std::size_t cell = CellOf(index, d, s);
      ASSERT_NE(cell, DigestIndex::kNoCell) << "op " << op;
      index.Erase(cell);
      auto range = model.equal_range(d);
      for (auto it = range.first; it != range.second; ++it) {
        if (it->second == s) {
          model.erase(it);
          break;
        }
      }
      live[pick] = live.back();
      live.pop_back();
    } else {
      // A predicate that never matches visits every cell holding `d`.
      const std::uint64_t d = draw_digest();
      std::size_t seen = 0;
      const auto count_all = [&seen](std::uint32_t) {
        ++seen;
        return false;
      };
      EXPECT_EQ(index.Find(d, count_all), DigestIndex::kNoCell);
      ASSERT_EQ(seen, model.count(d)) << "op " << op;
    }
    ASSERT_EQ(index.StatsNow().used, model.size()) << "op " << op;
    if (op % 100 == 0) {
      for (const auto& [d, s] : live) {
        const std::size_t cell = CellOf(index, d, s);
        ASSERT_NE(cell, DigestIndex::kNoCell) << "op " << op;
        ASSERT_EQ(index.slot(cell), s);
      }
    }
  }
}

TEST(DigestIndexTest, FlowTableResetDropsTheIndexMirrorResetKeepsIt) {
  core::FlowTable flows;
  sim::Simulator sim;
  MirrorTable mirror(sim, "m", 64);
  for (std::uint64_t i = 0; i < 20; ++i) {
    flows.GetOrCreateSlot(net::PartitionKey::OfObject(i));
    mirror.Mirror(net::PartitionKey::OfObject(i), 1,
                  std::vector<std::byte>(8), 0);
  }
  ASSERT_EQ(flows.IndexStatsNow().capacity, 32u);
  ASSERT_EQ(mirror.IndexStatsNow().capacity, 32u);
  flows.Reset();
  mirror.Reset();
  EXPECT_EQ(flows.IndexStatsNow().capacity, 0u);
  EXPECT_EQ(mirror.IndexStatsNow().capacity, 32u);
  EXPECT_EQ(mirror.IndexStatsNow().used, 0u);
  EXPECT_EQ(flows.FindSlot(net::PartitionKey::OfObject(3)),
            core::FlowTable::kNilSlot);
}

TEST(DigestIndexTest, MirrorOfAKnownDigestNeverGrowsTheIndex) {
  sim::Simulator sim;
  MirrorTable mirror(sim, "m", 64);
  for (std::uint64_t i = 0; i < 11; ++i) {
    mirror.Mirror(net::PartitionKey::OfObject(i), 1,
                  std::vector<std::byte>(8), 0);
  }
  ASSERT_EQ(mirror.IndexStatsNow().capacity, 16u);
  // A second entry of a mirrored flow joins its chain: no new cell.
  mirror.Mirror(net::PartitionKey::OfObject(0), 2, std::vector<std::byte>(8),
                0);
  EXPECT_EQ(mirror.IndexStatsNow().capacity, 16u);
  EXPECT_EQ(mirror.IndexStatsNow().used, 11u);
  mirror.Acknowledge(net::PartitionKey::OfObject(0), 2);
  EXPECT_EQ(mirror.IndexStatsNow().used, 10u);
  EXPECT_EQ(mirror.NumEntries(), 10u);
}

TEST(ControlPlaneTest, OperationsSerializeFifo) {
  sim::Simulator sim;
  ControlPlaneConfig cfg;
  cfg.pcie_latency = Microseconds(4);
  cfg.pcie_bandwidth_bps = 8e9;
  cfg.table_op_cpu_time = Microseconds(50);
  ControlPlane cp(sim, cfg, "cp");

  std::vector<SimTime> completions;
  cp.Submit(1000, [&]() { completions.push_back(sim.Now()); });
  cp.Submit(1000, [&]() { completions.push_back(sim.Now()); });
  sim.Run();
  ASSERT_EQ(completions.size(), 2u);
  // Each op: 1 µs transfer + 50 µs CPU; completion +8 µs PCIe round trip.
  EXPECT_EQ(completions[0], Microseconds(1 + 50 + 8));
  EXPECT_EQ(completions[1], Microseconds(2 * (1 + 50) + 8));
  EXPECT_EQ(cp.completed(), 2u);
}

TEST(ControlPlaneTest, ResetDropsQueuedWork) {
  sim::Simulator sim;
  ControlPlane cp(sim, {}, "cp");
  bool fired = false;
  cp.Submit(100, [&]() { fired = true; });
  cp.Reset();
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(cp.Pending(), 0u);
}

TEST(PacketGeneratorTest, EmitsBatchesPeriodically) {
  sim::Simulator sim;
  PacketGenerator gen(sim, "pktgen");
  std::vector<std::pair<SimTime, std::uint32_t>> emissions;
  gen.Start(Milliseconds(1), 4, Nanoseconds(100), [&](std::uint32_t i) {
    emissions.emplace_back(sim.Now(), i);
  });
  sim.RunUntil(Milliseconds(3) + Microseconds(10));
  gen.Stop();
  sim.Run();
  ASSERT_EQ(emissions.size(), 12u);  // 3 periods x 4 packets
  EXPECT_EQ(emissions[0].second, 0u);
  EXPECT_EQ(emissions[3].second, 3u);
  EXPECT_GE(emissions[4].first, Milliseconds(2));
}

TEST(PacketGeneratorTest, StopHaltsEmission) {
  sim::Simulator sim;
  PacketGenerator gen(sim, "pktgen");
  int count = 0;
  gen.Start(Milliseconds(1), 1, 0, [&](std::uint32_t) { ++count; });
  sim.RunUntil(Milliseconds(2) + 1);
  gen.Stop();
  sim.RunUntil(Milliseconds(10));
  EXPECT_EQ(count, 2);
}

class CountingHandler : public PipelineHandler {
 public:
  void Process(SwitchContext& ctx, net::Packet pkt) override {
    ++processed;
    ctx.Forward(std::move(pkt));
  }
  void Reset() override { ++resets; }
  void OnRecovery() override { ++recoveries; }
  int processed = 0;
  int resets = 0;
  int recoveries = 0;
};

TEST(SwitchNodeTest, PipelineLatencyAppliedAndForwarderUsed) {
  sim::Simulator sim;
  sim::Network net(sim, 1);
  auto* sw = net.AddNode<SwitchNode>("sw");
  auto* sink = net.AddNode<sim::HostNode>("h", net::Ipv4Addr(2, 2, 2, 2));
  net.Connect(sw, 0, sink, 0);
  CountingHandler handler;
  sw->SetPipeline(&handler);
  sw->SetForwarder([](const net::Packet&, PortId) { return PortId{0}; });

  int received = 0;
  SimTime arrival = 0;
  sink->SetHandler([&](sim::HostNode&, net::Packet) {
    ++received;
    arrival = sim.Now();
  });
  net::FlowKey f{net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2), 1, 2,
                 net::IpProto::kUdp};
  sw->HandlePacket(net::MakeUdpPacket(f, 0), 0);
  sim.Run();
  EXPECT_EQ(handler.processed, 1);
  EXPECT_EQ(received, 1);
  EXPECT_GE(arrival, sw->config().pipeline_latency);
}

TEST(SwitchNodeTest, FailureResetsHandlerAndDropsTraffic) {
  sim::Simulator sim;
  sim::Network net(sim, 1);
  auto* sw = net.AddNode<SwitchNode>("sw");
  CountingHandler handler;
  sw->SetPipeline(&handler);
  sw->SetUp(false);
  EXPECT_EQ(handler.resets, 1);
  net::FlowKey f{net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2), 1, 2,
                 net::IpProto::kUdp};
  sw->HandlePacket(net::MakeUdpPacket(f, 0), 0);
  sim.Run();
  EXPECT_EQ(handler.processed, 0);
  sw->SetUp(true);
  EXPECT_EQ(handler.recoveries, 1);
}

TEST(SwitchNodeTest, PacketInFlightThroughPipelineDroppedOnFailure) {
  sim::Simulator sim;
  sim::Network net(sim, 1);
  auto* sw = net.AddNode<SwitchNode>("sw");
  CountingHandler handler;
  sw->SetPipeline(&handler);
  net::FlowKey f{net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2), 1, 2,
                 net::IpProto::kUdp};
  sw->HandlePacket(net::MakeUdpPacket(f, 0), 0);
  sw->SetUp(false);  // fails before the pipeline pass completes
  sim.Run();
  EXPECT_EQ(handler.processed, 0);
}

TEST(SwitchNodeTest, RecirculationRunsWithFreshContext) {
  sim::Simulator sim;
  sim::Network net(sim, 1);
  auto* sw = net.AddNode<SwitchNode>("sw");
  bool ran = false;
  sw->Recirculate([&](SwitchContext& ctx) {
    ran = true;
    EXPECT_EQ(ctx.in_port(), kInvalidPort);
  });
  sim.Run();
  EXPECT_TRUE(ran);
}

TEST(ResourceModelTest, ChargesAccumulate) {
  ResourceModel model;
  model.AddExactTable("t", 1000, 64, 32);
  model.AddRegisterArray("r", 1000, 32);
  model.AddTernaryTable("tc", 100, 48, 8);
  model.AddGateways("g", 5);
  EXPECT_GT(model.Usage(ResourceKind::kSram), 0.0);
  EXPECT_EQ(model.Usage(ResourceKind::kMeterAlu), 1.0);
  EXPECT_EQ(model.Usage(ResourceKind::kGateway), 5.0);
  EXPECT_GT(model.Usage(ResourceKind::kTcam), 0.0);
  EXPECT_EQ(model.objects().size(), 4u);
}

TEST(ResourceModelTest, RedPlanePlacementMatchesTable2Shape) {
  // Table 2: SRAM is the largest consumer (13.2%), everything else < 14%,
  // TCAM ~12%, and all categories are nonzero.
  ResourceModel model;
  PlaceRedPlaneObjects(model, 100'000);
  const auto usage = model.FractionOfBudget(PipelineBudget::Tofino());
  double sram = 0, max_other = 0;
  for (const auto& [name, frac] : usage) {
    EXPECT_GT(frac, 0.0) << name;
    EXPECT_LT(frac, 0.20) << name;  // "ample resources remain"
    if (name == "SRAM") {
      sram = frac;
    } else {
      max_other = std::max(max_other, frac);
    }
  }
  EXPECT_GT(sram, 0.08);
  EXPECT_GE(sram, max_other - 0.02);  // SRAM is (about) the most used
}

TEST(ResourceModelTest, SramScalesWithFlows) {
  ResourceModel small, large;
  PlaceRedPlaneObjects(small, 10'000);
  PlaceRedPlaneObjects(large, 100'000);
  EXPECT_GT(large.Usage(ResourceKind::kSram),
            5 * small.Usage(ResourceKind::kSram));
  // Non-SRAM resources are flow-count independent (§7.4).
  EXPECT_EQ(large.Usage(ResourceKind::kGateway),
            small.Usage(ResourceKind::kGateway));
  EXPECT_EQ(large.Usage(ResourceKind::kVliw), small.Usage(ResourceKind::kVliw));
}

}  // namespace
}  // namespace redplane::dp
