#include <gtest/gtest.h>

#include <array>

#include "sim/host.h"
#include "sim/link.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace redplane::sim {
namespace {

net::FlowKey TestFlow() {
  return {net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2), 10, 20,
          net::IpProto::kUdp};
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Microseconds(30), [&]() { order.push_back(3); });
  sim.Schedule(Microseconds(10), [&]() { order.push_back(1); });
  sim.Schedule(Microseconds(20), [&]() { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Microseconds(30));
}

TEST(SimulatorTest, EqualTimestampsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Microseconds(5), [&order, i]() { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1, [&]() {
    ++fired;
    sim.Schedule(1, [&]() { ++fired; });
  });
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 2);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.Schedule(10, [&]() { fired = true; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(SimulatorTest, CancelStress100k) {
  // 100k scheduled events, half of them cancelled (including double-cancels
  // and cancels of already-fired ids): exactly the un-cancelled half fires,
  // in timestamp-then-FIFO order, and the queue fully drains.
  Simulator sim;
  constexpr int kEvents = 100000;
  std::vector<EventId> ids;
  ids.reserve(kEvents);
  std::uint64_t fired = 0;
  std::uint64_t last_time = 0;
  for (int i = 0; i < kEvents; ++i) {
    // Many collisions per timestamp to exercise the same-time tie-break.
    const SimDuration t = static_cast<SimDuration>(i % 1000);
    ids.push_back(sim.Schedule(t, [&fired, &last_time, &sim]() {
      ++fired;
      EXPECT_GE(sim.Now(), last_time);
      last_time = sim.Now();
    }));
  }
  for (int i = 0; i < kEvents; i += 2) {
    sim.Cancel(ids[i]);
    sim.Cancel(ids[i]);  // double-cancel must be harmless
  }
  sim.Cancel(0);                       // invalid id: no-op
  sim.Cancel(ids.back() + kEvents);    // never-issued id: no-op
  sim.Run();
  EXPECT_EQ(fired, static_cast<std::uint64_t>(kEvents) / 2);
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_EQ(sim.EventsProcessed(), static_cast<std::uint64_t>(kEvents) / 2);

  // Cancelling after the run (stale ids) is still a no-op, and the slab is
  // reusable: a fresh burst behaves identically.
  for (const EventId id : ids) sim.Cancel(id);
  std::uint64_t fired2 = 0;
  for (int i = 0; i < 1000; ++i) {
    sim.Schedule(1, [&fired2]() { ++fired2; });
  }
  sim.Run();
  EXPECT_EQ(fired2, 1000u);
}

TEST(SimulatorTest, CancelAfterFireTombstonesStayBounded) {
  // Regression (fuzz-found): cancelling an id that already fired inserted a
  // tombstone into the cancelled-set that nothing ever reclaimed — the id
  // never reappears in the queue, so under protocol-timer churn (arm, fire,
  // cancel-on-teardown, re-arm, ...) the set grew without bound for the
  // lifetime of the simulation.  The purge keeps it proportional to the
  // *live* queue instead.
  Simulator sim;
  for (int round = 0; round < 200; ++round) {
    std::vector<EventId> ids;
    for (int i = 0; i < 50; ++i) {
      ids.push_back(sim.Schedule(1, [] {}));
    }
    sim.Run();
    // Teardown path cancels handles whose events already fired.
    for (const EventId id : ids) sim.Cancel(id);
  }
  // 10k stale cancels total; the tombstone set must stay near-empty (the
  // purge threshold, not the churn volume, bounds it).
  EXPECT_LE(sim.CancelTombstones(), 128u);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(SimulatorTest, WheelCancelRearmChurn) {
  // Mass cancel/re-arm churn over wheel-resident timers (far-future
  // schedules land in the hierarchical wheel; their EventIds pack a wheel
  // slot index + generation sequence).  A stale handle from before a
  // re-arm must never cancel the replacement timer even though the wheel
  // slot index is reused.
  Simulator sim;
  constexpr int kTimers = 64;
  std::array<EventId, kTimers> handle{};
  std::array<int, kTimers> fired{};
  auto arm = [&](int t) {
    // >= coarse threshold so the event is wheel-scheduled.
    handle[static_cast<std::size_t>(t)] =
        sim.ScheduleAt(sim.Now() + Milliseconds(5) + Microseconds(t),
                       [&fired, t] { ++fired[static_cast<std::size_t>(t)]; });
  };
  for (int t = 0; t < kTimers; ++t) arm(t);
  // 100 churn rounds: cancel every timer, immediately re-arm it.
  for (int round = 0; round < 100; ++round) {
    for (int t = 0; t < kTimers; ++t) {
      const EventId stale = handle[static_cast<std::size_t>(t)];
      sim.Cancel(stale);
      arm(t);
      sim.Cancel(stale);  // double-cancel of the old generation: no-op
    }
  }
  sim.Run();
  for (int t = 0; t < kTimers; ++t) {
    EXPECT_EQ(fired[static_cast<std::size_t>(t)], 1)
        << "timer " << t << " lost or double-fired under churn";
  }
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_LE(sim.CancelTombstones(), 2 * kTimers * 2u);
}

TEST(SimulatorTest, RunUntilAdvancesClockEvenWhenIdle) {
  Simulator sim;
  sim.RunUntil(Seconds(5));
  EXPECT_EQ(sim.Now(), Seconds(5));
}

TEST(SimulatorTest, RunUntilLeavesLaterEvents) {
  Simulator sim;
  bool early = false, late = false;
  sim.Schedule(10, [&]() { early = true; });
  sim.Schedule(100, [&]() { late = true; });
  sim.RunUntil(50);
  EXPECT_TRUE(early);
  EXPECT_FALSE(late);
  sim.Run();
  EXPECT_TRUE(late);
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.Schedule(100, [&]() {
    sim.Schedule(-50, [&]() { EXPECT_EQ(sim.Now(), 100); });
  });
  sim.Run();
}

class SinkNode : public Node {
 public:
  using Node::Node;
  void HandlePacket(net::Packet&& pkt, PortId) override {
    arrivals.emplace_back(sim_.Now(), pkt.id);
  }
  std::vector<std::pair<SimTime, net::PacketId>> arrivals;
};

/// Forwards every packet out of port 1 unchanged.
class RelayNode : public Node {
 public:
  using Node::Node;
  void HandlePacket(net::Packet&& pkt, PortId) override {
    SendTo(1, std::move(pkt));
  }
};

TEST(PacketIdTest, SentPacketsCountFromOnePerSimulator) {
  // Two simulations in turn: each numbers its packets from 1, whatever ran
  // before it in the process.
  for (int run = 0; run < 2; ++run) {
    Simulator sim;
    Network net(sim, 1);
    auto* src = net.AddNode<HostNode>("src", net::Ipv4Addr(10, 0, 0, 1));
    auto* relay = net.AddNode<RelayNode>("relay");
    auto* dst = net.AddNode<SinkNode>("dst");
    net.Connect(src, 0, relay, 0);
    net.Connect(relay, 1, dst, 0);
    const net::Packet unsent = net::MakeUdpPacket(TestFlow(), 0);
    EXPECT_EQ(unsent.id, 0u);  // ids are drawn on send, not at creation
    for (int i = 0; i < 3; ++i) src->Send(net::MakeUdpPacket(TestFlow(), 0));
    sim.Run();
    // Distinct and non-zero, and kept across the relay's hop.
    ASSERT_EQ(dst->arrivals.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(dst->arrivals[i].second, i + 1) << "run " << run;
    }
  }
}

TEST(LinkTest, PropagationAndSerializationDelay) {
  Simulator sim;
  Network net(sim, 1);
  auto* a = net.AddNode<SinkNode>("a");
  auto* b = net.AddNode<SinkNode>("b");
  LinkConfig cfg;
  cfg.bandwidth_bps = 8e9;  // 1 byte/ns
  cfg.propagation = Microseconds(5);
  net.Connect(a, 0, b, 0, cfg);

  net::Packet p = net::MakeUdpPacket(TestFlow(), 0);  // 64 B min frame
  const auto size = p.WireSize();
  a->SendTo(0, std::move(p));
  sim.Run();
  ASSERT_EQ(b->arrivals.size(), 1u);
  EXPECT_EQ(b->arrivals[0].first,
            static_cast<SimTime>(size) + Microseconds(5));
}

TEST(LinkTest, BackToBackPacketsQueueBehindSerialization) {
  Simulator sim;
  Network net(sim, 1);
  auto* a = net.AddNode<SinkNode>("a");
  auto* b = net.AddNode<SinkNode>("b");
  LinkConfig cfg;
  cfg.bandwidth_bps = 8e9;
  cfg.propagation = 0;
  net.Connect(a, 0, b, 0, cfg);

  for (int i = 0; i < 3; ++i) {
    a->SendTo(0, net::MakeUdpPacket(TestFlow(), 0));
  }
  sim.Run();
  ASSERT_EQ(b->arrivals.size(), 3u);
  EXPECT_EQ(b->arrivals[1].first - b->arrivals[0].first, 64);
  EXPECT_EQ(b->arrivals[2].first - b->arrivals[1].first, 64);
}

TEST(LinkTest, LossRateDropsApproximately) {
  Simulator sim;
  Network net(sim, 99);
  auto* a = net.AddNode<SinkNode>("a");
  auto* b = net.AddNode<SinkNode>("b");
  LinkConfig cfg;
  cfg.loss_rate = 0.2;
  Link* link = net.Connect(a, 0, b, 0, cfg);

  const int total = 20000;
  for (int i = 0; i < total; ++i) {
    a->SendTo(0, net::MakeUdpPacket(TestFlow(), 0));
  }
  sim.Run();
  EXPECT_NEAR(static_cast<double>(link->packets_dropped()) / total, 0.2, 0.02);
  EXPECT_EQ(link->packets_delivered() + link->packets_dropped(),
            static_cast<std::uint64_t>(total));
}

TEST(LinkTest, ReorderJitterReordersSomePackets) {
  Simulator sim;
  Network net(sim, 7);
  auto* a = net.AddNode<SinkNode>("a");
  auto* b = net.AddNode<SinkNode>("b");
  LinkConfig cfg;
  cfg.bandwidth_bps = 100e9;
  cfg.reorder_jitter = Microseconds(10);
  net.Connect(a, 0, b, 0, cfg);

  for (int i = 0; i < 200; ++i) a->SendTo(0, net::MakeUdpPacket(TestFlow(), 0));
  sim.Run();
  ASSERT_EQ(b->arrivals.size(), 200u);
  bool reordered = false;
  for (std::size_t i = 1; i < b->arrivals.size(); ++i) {
    if (b->arrivals[i].second < b->arrivals[i - 1].second) reordered = true;
  }
  EXPECT_TRUE(reordered);
}

TEST(LinkTest, DownLinkDropsInFlightAndNew) {
  Simulator sim;
  Network net(sim, 1);
  auto* a = net.AddNode<SinkNode>("a");
  auto* b = net.AddNode<SinkNode>("b");
  LinkConfig cfg;
  cfg.propagation = Microseconds(100);
  Link* link = net.Connect(a, 0, b, 0, cfg);

  a->SendTo(0, net::MakeUdpPacket(TestFlow(), 0));
  sim.Schedule(Microseconds(10), [&]() { link->SetUp(false); });
  sim.Run();
  EXPECT_TRUE(b->arrivals.empty());
  // New traffic while down also drops.
  a->SendTo(0, net::MakeUdpPacket(TestFlow(), 0));
  sim.Run();
  EXPECT_TRUE(b->arrivals.empty());
  // Recovery restores delivery.
  link->SetUp(true);
  a->SendTo(0, net::MakeUdpPacket(TestFlow(), 0));
  sim.Run();
  EXPECT_EQ(b->arrivals.size(), 1u);
}

TEST(NodeTest, DownNodeNeitherSendsNorReceives) {
  Simulator sim;
  Network net(sim, 1);
  auto* a = net.AddNode<SinkNode>("a");
  auto* b = net.AddNode<SinkNode>("b");
  net.Connect(a, 0, b, 0);

  b->SetUp(false);
  a->SendTo(0, net::MakeUdpPacket(TestFlow(), 0));
  sim.Run();
  EXPECT_TRUE(b->arrivals.empty());

  a->SetUp(false);
  a->SendTo(0, net::MakeUdpPacket(TestFlow(), 0));
  sim.Run();
  EXPECT_DOUBLE_EQ(a->counters().Get("drop_node_down"), 1.0);
}

TEST(NetworkTest, LookupByNameAndId) {
  Simulator sim;
  Network net(sim, 1);
  auto* a = net.AddNode<SinkNode>("alpha");
  auto* b = net.AddNode<SinkNode>("beta");
  EXPECT_EQ(net.FindNode("alpha"), a);
  EXPECT_EQ(net.GetNode(b->id()), b);
  EXPECT_EQ(net.FindNode("gamma"), nullptr);
  Link* l = net.Connect(a, 0, b, 0);
  EXPECT_EQ(net.FindLink(a, b), l);
  EXPECT_EQ(net.FindLink(b, a), l);
}

TEST(HostTest, HandlerReceivesAndEchoes) {
  Simulator sim;
  Network net(sim, 1);
  auto* h1 = net.AddNode<HostNode>("h1", net::Ipv4Addr(1, 1, 1, 1));
  auto* h2 = net.AddNode<HostNode>("h2", net::Ipv4Addr(2, 2, 2, 2));
  net.Connect(h1, 0, h2, 0);
  int h1_got = 0;
  h1->SetHandler([&](HostNode&, net::Packet) { ++h1_got; });
  h2->SetHandler([&](HostNode& self, net::Packet pkt) {
    self.Send(std::move(pkt));  // echo
  });
  h1->Send(net::MakeUdpPacket(TestFlow(), 0));
  sim.Run();
  EXPECT_EQ(h1_got, 1);
}

}  // namespace
}  // namespace redplane::sim
