#include "routing/topology.h"

namespace redplane::routing {

net::Ipv4Addr RackServerIp(int rack, int index) {
  return net::Ipv4Addr(192, 168, static_cast<std::uint8_t>(10 + rack),
                       static_cast<std::uint8_t>(10 + index));
}

net::Ipv4Addr ExternalHostIp(int index) {
  return net::Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(10 + index));
}

net::Ipv4Addr AggSwitchIp(int index) {
  return net::Ipv4Addr(172, 16, 0, static_cast<std::uint8_t>(1 + index));
}

net::Ipv4Addr StoreServerIp(int index) {
  return net::Ipv4Addr(172, 16, 1, static_cast<std::uint8_t>(1 + index));
}

Testbed BuildTestbed(sim::Simulator& sim, const TestbedConfig& config) {
  Testbed tb;
  tb.network = std::make_unique<sim::Network>(sim, config.seed);
  sim::Network& net = *tb.network;
  tb.fabric = std::make_unique<RoutingFabric>(net, config.fabric);

  // Switches.  Core and ToR switches are fixed-function (no pipeline
  // handler); the two aggregation switches are the programmable ones.
  tb.core = net.AddNode<dp::SwitchNode>("core", dp::SwitchConfig{});
  for (int i = 0; i < 2; ++i) {
    dp::SwitchConfig agg_cfg = config.programmable;
    agg_cfg.switch_ip = AggSwitchIp(i);
    tb.agg[i] =
        net.AddNode<dp::SwitchNode>("agg" + std::to_string(i), agg_cfg);
    tb.fabric->AssignAddress(tb.agg[i], agg_cfg.switch_ip);
  }
  for (int i = 0; i < 2; ++i) {
    tb.tor[i] =
        net.AddNode<dp::SwitchNode>("tor" + std::to_string(i),
                                    dp::SwitchConfig{});
  }

  // Fabric links: core <-> each aggregation switch <-> each ToR.
  for (int a = 0; a < 2; ++a) {
    net.Connect(tb.core, static_cast<PortId>(a), tb.agg[a], 0,
                config.fabric_link);
    for (int t = 0; t < 2; ++t) {
      net.Connect(tb.agg[a], static_cast<PortId>(1 + t), tb.tor[t],
                  static_cast<PortId>(a), config.fabric_link);
    }
  }

  // Rack servers: two per ToR on ports 2, 3.
  for (int rack = 0; rack < 2; ++rack) {
    for (int i = 0; i < 2; ++i) {
      auto* host = net.AddNode<sim::HostNode>(
          "srv" + std::to_string(rack) + std::to_string(i),
          RackServerIp(rack, i));
      net.Connect(host, 0, tb.tor[rack], static_cast<PortId>(2 + i),
                  config.host_link);
      tb.fabric->AssignAddress(host, host->ip());
      tb.rack_servers[rack][i] = host;
    }
  }

  // External hosts off the core (ports 2..5).
  for (int i = 0; i < 4; ++i) {
    auto* host = net.AddNode<sim::HostNode>("ext" + std::to_string(i),
                                            ExternalHostIp(i));
    net.Connect(host, 0, tb.core, static_cast<PortId>(2 + i),
                config.host_link);
    tb.fabric->AssignAddress(host, host->ip());
    tb.external[i] = host;
  }

  // State store chain: one server per rack plus one core-attached (group of
  // 3 in different racks, §6).  store[0] is the chain head.
  const int chain = std::max(1, config.store_chain_size);
  for (int i = 0; i < chain; ++i) {
    auto* server = net.AddNode<store::StateStoreServer>(
        "store" + std::to_string(i), StoreServerIp(i), config.store);
    if (i < 2) {
      net.Connect(server, 0, tb.tor[i], static_cast<PortId>(4 + i / 2),
                  config.host_link);
    } else {
      net.Connect(server, 0, tb.core, static_cast<PortId>(6 + (i - 2)),
                  config.host_link);
    }
    tb.fabric->AssignAddress(server, server->ip());
    tb.store.push_back(server);
  }
  store::WireChain(tb.store);

  tb.fabric->Install();
  return tb;
}

}  // namespace redplane::routing
