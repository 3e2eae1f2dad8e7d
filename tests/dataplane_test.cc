#include <gtest/gtest.h>

#include "dataplane/control_plane.h"
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
