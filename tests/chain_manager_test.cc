// Chain reconfiguration tests: the store keeps serving through replica
// failures (head, middle, tail), and recovered replicas rejoin as tails
// after a resync.
#include <gtest/gtest.h>

#include "core/redplane_switch.h"
#include "net/codec.h"
#include "sim/host.h"
#include "sim/network.h"
#include "statestore/chain_manager.h"

namespace redplane::store {
namespace {

constexpr net::Ipv4Addr kSrcIp(10, 0, 0, 1);
constexpr net::Ipv4Addr kDstIp(192, 168, 10, 1);
constexpr net::Ipv4Addr kSwIp(172, 16, 0, 1);

net::FlowKey TheFlow() {
  return {kSrcIp, kDstIp, 1000, 80, net::IpProto::kUdp};
}

class CounterApp : public core::SwitchApp {
 public:
  std::string_view name() const override { return "counter"; }
  core::ProcessResult Process(core::AppContext&, net::Packet pkt,
                              std::vector<std::byte>& state) override {
    core::ProcessResult result;
    core::SetState(state,
                   core::StateAs<std::uint64_t>(state).value_or(0) + 1);
    result.state_modified = true;
    result.outputs.push_back(std::move(pkt));
    return result;
  }
};

/// One RedPlane switch against a managed chain of 3, with a hub routing by
/// destination address so reconfigured chains keep communicating.
struct ChainHarness {
  ChainHarness() {
    net = std::make_unique<sim::Network>(sim, 31);
    src = net->AddNode<sim::HostNode>("src", kSrcIp);
    dst = net->AddNode<sim::HostNode>("dst", kDstIp);
    dp::SwitchConfig cfg;
    cfg.switch_ip = kSwIp;
    sw = net->AddNode<dp::SwitchNode>("sw", cfg);
    hub = net->AddNode<sim::HostNode>("hub", net::Ipv4Addr(9, 9, 9, 9));
    net->Connect(src, 0, sw, 0);
    net->Connect(dst, 0, sw, 1);
    net->Connect(sw, 2, hub, 0);
    StoreConfig store_cfg;
    store_cfg.lease_period = Milliseconds(20);
    for (int i = 0; i < 3; ++i) {
      auto* server = net->AddNode<StateStoreServer>(
          "store" + std::to_string(i), net::Ipv4Addr(172, 16, 1, 1 + i),
          store_cfg);
      net->Connect(server, 0, hub, static_cast<PortId>(1 + i));
      replicas.push_back(server);
    }
    hub->SetHandler([this](sim::HostNode& self, net::Packet pkt) {
      if (!pkt.ip.has_value()) return;
      if (pkt.ip->dst == kSwIp) {
        self.SendTo(0, std::move(pkt));
        return;
      }
      for (std::size_t i = 0; i < replicas.size(); ++i) {
        if (pkt.ip->dst == replicas[i]->ip()) {
          self.SendTo(static_cast<PortId>(1 + i), std::move(pkt));
          return;
        }
      }
    });
    sw->SetForwarder([](const net::Packet& pkt,
                        PortId) -> std::optional<PortId> {
      if (!pkt.ip.has_value()) return std::nullopt;
      if (pkt.ip->dst == kSrcIp) return PortId{0};
      if (pkt.ip->dst == kDstIp) return PortId{1};
      return PortId{2};
    });

    ChainManagerConfig mgr_cfg;
    mgr_cfg.probe_interval = Milliseconds(2);
    mgr_cfg.resync_delay = Milliseconds(1);
    manager = std::make_unique<ChainManager>(sim, replicas, mgr_cfg);
    manager->Start();

    core::RedPlaneConfig rp_cfg;
    rp_cfg.lease_period = Milliseconds(20);
    rp_cfg.renew_interval = Milliseconds(10);
    rp_cfg.request_timeout = Microseconds(300);
    rp = std::make_unique<core::RedPlaneSwitch>(
        *sw, app,
        [this](const net::PartitionKey&) { return manager->HeadIp(); },
        rp_cfg);
    sw->SetPipeline(rp.get());
    dst->SetHandler([this](sim::HostNode&, net::Packet) { ++delivered; });
  }

  /// Sends `n` packets paced 1 ms apart.
  void SendPaced(int n) {
    for (int i = 0; i < n; ++i) {
      src->Send(net::MakeUdpPacket(TheFlow(), 20));
      sim.RunUntil(sim.Now() + Milliseconds(1));
    }
  }

  std::uint64_t StoreSeqAtHead() const {
    const auto* rec =
        manager->ActiveChain().front()->Find(net::PartitionKey::OfFlow(TheFlow()));
    return rec == nullptr ? 0 : rec->last_applied_seq;
  }

  sim::Simulator sim;
  std::unique_ptr<sim::Network> net;
  sim::HostNode* src;
  sim::HostNode* dst;
  sim::HostNode* hub;
  dp::SwitchNode* sw;
  std::vector<StateStoreServer*> replicas;
  std::unique_ptr<ChainManager> manager;
  CounterApp app;
  std::unique_ptr<core::RedPlaneSwitch> rp;
  int delivered = 0;
};

TEST(ChainManagerTest, InitialWiringHeadMiddleTail) {
  ChainHarness h;
  EXPECT_EQ(h.manager->HeadIp(), h.replicas[0]->ip());
  EXPECT_FALSE(h.replicas[0]->IsTail());
  EXPECT_FALSE(h.replicas[1]->IsTail());
  EXPECT_TRUE(h.replicas[2]->IsTail());
}

TEST(ChainManagerTest, TailFailureSplicedAndServiceContinues) {
  ChainHarness h;
  h.SendPaced(5);
  EXPECT_EQ(h.delivered, 5);
  h.replicas[2]->SetUp(false);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(10));
  EXPECT_EQ(h.manager->ActiveChain().size(), 2u);
  EXPECT_TRUE(h.replicas[1]->IsTail());
  h.SendPaced(5);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(50));
  EXPECT_EQ(h.delivered, 10);
  EXPECT_EQ(h.StoreSeqAtHead(), 10u);
}

TEST(ChainManagerTest, MiddleFailureResyncsTail) {
  ChainHarness h;
  h.SendPaced(5);
  h.replicas[1]->SetUp(false);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(10));
  ASSERT_EQ(h.manager->ActiveChain().size(), 2u);
  EXPECT_EQ(h.manager->ActiveChain()[1], h.replicas[2]);
  h.SendPaced(5);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(50));
  EXPECT_EQ(h.delivered, 10);
  // Both survivors agree on the flow.
  const auto key = net::PartitionKey::OfFlow(TheFlow());
  EXPECT_EQ(h.replicas[0]->Find(key)->last_applied_seq, 10u);
  EXPECT_EQ(h.replicas[2]->Find(key)->last_applied_seq, 10u);
}

TEST(ChainManagerTest, HeadFailurePromotesSuccessor) {
  ChainHarness h;
  h.SendPaced(5);
  h.replicas[0]->SetUp(false);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(10));
  EXPECT_EQ(h.manager->HeadIp(), h.replicas[1]->ip());
  // The switch's dynamic shard lookup sends new requests to the new head;
  // the counter continues from the replicated value.
  h.SendPaced(5);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(100));
  EXPECT_EQ(h.delivered, 10);
  EXPECT_EQ(h.StoreSeqAtHead(), 10u);
}

TEST(ChainManagerTest, RecoveredReplicaRejoinsAsTailWithState) {
  ChainHarness h;
  h.SendPaced(5);
  h.replicas[2]->SetUp(false);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(10));
  EXPECT_EQ(h.manager->ActiveChain().size(), 2u);
  h.SendPaced(3);

  h.replicas[2]->SetUp(true);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(20));
  ASSERT_EQ(h.manager->ActiveChain().size(), 3u);
  EXPECT_EQ(h.manager->ActiveChain().back(), h.replicas[2]);
  EXPECT_TRUE(h.replicas[2]->IsTail());
  // The rejoined tail was resynced: it already holds the flow.
  const auto key = net::PartitionKey::OfFlow(TheFlow());
  ASSERT_NE(h.replicas[2]->Find(key), nullptr);
  EXPECT_GE(h.replicas[2]->Find(key)->last_applied_seq, 8u);

  // And participates in new commits.
  h.SendPaced(2);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(50));
  EXPECT_EQ(h.replicas[2]->Find(key)->last_applied_seq, 10u);
}

TEST(ChainManagerTest, ResyncDoesNotMutateSourceReplica) {
  ChainHarness h;
  h.SendPaced(5);

  // ExportFlows is a cheap const view, not a copy: same address every call.
  const auto* export1 = &h.replicas[0]->ExportFlows();
  const auto* export2 = &h.replicas[0]->ExportFlows();
  EXPECT_EQ(export1, export2);

  // Snapshot the head's records before a splice-triggered resync.
  const auto before = *export1;  // deliberate deep copy for comparison
  ASSERT_FALSE(before.empty());

  h.replicas[1]->SetUp(false);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(10));  // probe + resync fire
  ASSERT_EQ(h.manager->ActiveChain().size(), 2u);

  // The resync copied state into the tail without disturbing the source.
  const auto& after = h.replicas[0]->ExportFlows();
  ASSERT_EQ(after.size(), before.size());
  for (const auto& [key, rec] : before) {
    const auto it = after.find(key);
    ASSERT_NE(it, after.end());
    EXPECT_EQ(it->second.last_applied_seq, rec.last_applied_seq);
    EXPECT_EQ(it->second.state, rec.state);
  }
  // The target really did receive the records.
  const auto key = net::PartitionKey::OfFlow(TheFlow());
  ASSERT_NE(h.replicas[2]->Find(key), nullptr);
  EXPECT_EQ(h.replicas[2]->Find(key)->last_applied_seq,
            before.at(key).last_applied_seq);
}

TEST(ChainManagerTest, SurvivesSequentialFailuresDownToOne) {
  ChainHarness h;
  ChainManagerConfig cfg;
  h.SendPaced(3);
  h.replicas[2]->SetUp(false);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(10));
  h.replicas[0]->SetUp(false);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(10));
  ASSERT_EQ(h.manager->ActiveChain().size(), 1u);
  EXPECT_EQ(h.manager->ActiveChain()[0], h.replicas[1]);
  EXPECT_TRUE(h.replicas[1]->IsTail());
  h.SendPaced(3);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(100));
  EXPECT_EQ(h.delivered, 6);
  EXPECT_EQ(h.StoreSeqAtHead(), 6u);
}

TEST(ChainManagerTest, WritesDuringReconfigurationEventuallyDurable) {
  ChainHarness h;
  // Fail the head mid-burst: requests in flight to the old head are lost;
  // retransmission redirects them to the new head.
  for (int i = 0; i < 3; ++i) {
    h.src->Send(net::MakeUdpPacket(TheFlow(), 20));
    h.sim.RunUntil(h.sim.Now() + Milliseconds(1));
  }
  h.replicas[0]->SetUp(false);
  for (int i = 0; i < 3; ++i) {
    h.src->Send(net::MakeUdpPacket(TheFlow(), 20));
    h.sim.RunUntil(h.sim.Now() + Milliseconds(1));
  }
  h.sim.RunUntil(h.sim.Now() + Milliseconds(200));
  // All processed writes are durable at the current head; the mirror is
  // drained.
  const auto key = net::PartitionKey::OfFlow(TheFlow());
  const auto entry = h.rp->flow_table().Find(key);
  ASSERT_TRUE(entry);
  EXPECT_EQ(h.StoreSeqAtHead(), entry.cur_seq());
  EXPECT_EQ(h.sw->mirror().NumEntries(), 0u);
}

}  // namespace
}  // namespace redplane::store
