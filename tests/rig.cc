#include "tests/rig.h"

#include <ostream>
#include <string>

#include "net/codec.h"

namespace redplane::testing {

Rig::Rig(RigOptions opt) : Rig(counter_, std::move(opt)) {}

Rig::Rig(core::SwitchApp& app, RigOptions opt) : net(sim, opt.seed) {
  src = net.AddNode<sim::HostNode>("src", kSrcIp);
  dst = net.AddNode<sim::HostNode>("dst", kDstIp);
  for (int i = 0; i < opt.switches; ++i) {
    dp::SwitchConfig cfg;
    cfg.switch_ip = net::Ipv4Addr(172, 16, 0, static_cast<std::uint8_t>(1 + i));
    sw.push_back(net.AddNode<dp::SwitchNode>(
        opt.switches == 1 ? std::string("sw") : "sw" + std::to_string(1 + i),
        cfg));
  }
  hub = net.AddNode<sim::HostNode>("hub", net::Ipv4Addr(9, 9, 9, 9));
  const auto sw_port = [](int i) { return static_cast<PortId>(i); };
  for (int i = 0; i < opt.switches; ++i) net.Connect(src, sw_port(i), sw[i], 0);
  for (int i = 0; i < opt.switches; ++i) net.Connect(dst, sw_port(i), sw[i], 1);
  for (int i = 0; i < opt.switches; ++i) {
    net.Connect(sw[i], 2, hub, sw_port(i), opt.switch_link);
  }

  opt.store.lease_period = opt.rp.lease_period;
  for (int i = 0; i < opt.stores; ++i) {
    store::StoreConfig cfg = opt.store;
    if (i == 0) cfg.mutations = opt.head_mutations;
    stores.push_back(net.AddNode<store::StateStoreServer>(
        "store" + std::to_string(i),
        net::Ipv4Addr(172, 16, 1, static_cast<std::uint8_t>(1 + i)), cfg));
    net.Connect(stores.back(), 0, hub, sw_port(opt.switches + i));
  }
  if (opt.chain) store::WireChain(stores);

  hub->SetHandler([this](sim::HostNode& self, net::Packet pkt) {
    if (!pkt.ip.has_value()) return;
    if (hub_drop && hub_drop(pkt)) {
      ++hub_dropped;
      return;
    }
    for (std::size_t i = 0; i < sw.size(); ++i) {
      if (pkt.ip->dst == sw[i]->ip()) {
        self.SendTo(static_cast<PortId>(i), std::move(pkt));
        return;
      }
    }
    for (std::size_t i = 0; i < stores.size(); ++i) {
      if (pkt.ip->dst == stores[i]->ip()) {
        self.SendTo(static_cast<PortId>(sw.size() + i), std::move(pkt));
        return;
      }
    }
  });
  const auto forwarder = [](const net::Packet& pkt,
                            PortId) -> std::optional<PortId> {
    if (!pkt.ip.has_value()) return std::nullopt;
    if (pkt.ip->dst == kSrcIp) return PortId{0};
    if (pkt.ip->dst == kDstIp) return PortId{1};
    return PortId{2};
  };
  const auto lookup = [this](const net::PartitionKey& key) {
    return shard_for ? shard_for(key) : stores.front()->ip();
  };
  for (dp::SwitchNode* node : sw) {
    node->SetForwarder(forwarder);
    rp.push_back(
        std::make_unique<core::RedPlaneSwitch>(*node, app, lookup, opt.rp));
    node->SetPipeline(rp.back().get());
  }
  for (store::StateStoreServer* server : stores) {
    server->SetSpec(rp.front()->spec());
  }
  dst->SetHandler([this](sim::HostNode&, net::Packet pkt) {
    ++delivered;
    if (on_deliver) on_deliver(pkt);
  });

  if (opt.audit) {
    sim.AttachTracer(tracer);
    tracer.SetEnabled(true);
    auditor.ArmStandardMonitors();
    auditor.Attach(&tracer);
    tracer_tail_ = audit::DiagToken("tracer tail", [this](std::ostream& os) {
      audit::DumpTracerTail(os, tracer, /*last_n=*/64);
    });
  }
}

// The simulator detaches the tracer, then the auditor unsubscribes from it.
Rig::~Rig() = default;

core::ProcessResult CountingEchoApp::Process(core::AppContext&,
                                             net::Packet pkt,
                                             std::vector<std::byte>& state) {
  core::ProcessResult result;
  const std::uint64_t count =
      core::StateAs<std::uint64_t>(state).value_or(0) + 1;
  core::SetState(state, count);
  result.state_modified = true;
  std::uint64_t marker = 0;
  if (pkt.payload.size() >= 8) {
    net::ByteReader r(pkt.payload);
    marker = r.U64();
  }
  std::vector<std::byte> buf;
  net::ByteWriter w(buf);
  w.U64(marker);
  w.U64(count);
  pkt.payload = std::move(buf);
  result.outputs.push_back(std::move(pkt));
  return result;
}

net::Packet StampedPacket(const net::FlowKey& flow, std::uint64_t marker) {
  net::Packet pkt = net::MakeUdpPacket(flow, 20);
  std::vector<std::byte> buf;
  net::ByteWriter w(buf);
  w.U64(marker);
  pkt.payload = std::move(buf);
  return pkt;
}

std::optional<Echo> ParseEcho(const net::Packet& pkt) {
  if (pkt.payload.size() < 16) return std::nullopt;
  net::ByteReader r(pkt.payload);
  Echo echo;
  echo.marker = r.U64();
  echo.count = r.U64();
  return echo;
}

}  // namespace redplane::testing
