#include "routing/ecmp.h"

#include <algorithm>
#include <deque>

#include "common/hash.h"
#include "common/logging.h"
#include "net/flow.h"

namespace redplane::routing {

RoutingFabric::RoutingFabric(sim::Network& network, FabricConfig config)
    : network_(network), config_(config) {}

namespace {
bool IpLess(const std::pair<std::uint32_t, sim::Node*>& entry,
            std::uint32_t ip) {
  return entry.first < ip;
}
}  // namespace

void RoutingFabric::AssignAddress(sim::Node* node, net::Ipv4Addr ip) {
  auto it = std::lower_bound(by_ip_.begin(), by_ip_.end(), ip.value, IpLess);
  if (it != by_ip_.end() && it->first == ip.value) {
    it->second = node;
  } else {
    by_ip_.insert(it, {ip.value, node});
  }
}

sim::Node* RoutingFabric::NodeFor(net::Ipv4Addr ip) const {
  auto it = std::lower_bound(by_ip_.begin(), by_ip_.end(), ip.value, IpLess);
  return it != by_ip_.end() && it->first == ip.value ? it->second : nullptr;
}

void RoutingFabric::Install() {
  RecomputeNow();
  for (std::size_t i = 0; i < network_.NumNodes(); ++i) {
    auto* sw = dynamic_cast<dp::SwitchNode*>(
        network_.GetNode(static_cast<NodeId>(i)));
    if (sw == nullptr) continue;
    sw->SetForwarder([this, sw](const net::Packet& pkt,
                                PortId in_port) -> std::optional<PortId> {
      (void)in_port;
      return NextHop(sw, pkt);
    });
  }
}

void RoutingFabric::NotifyTopologyChange() {
  if (recompute_pending_) return;
  recompute_pending_ = true;
  network_.sim().Schedule(config_.failure_detection_delay, [this]() {
    recompute_pending_ = false;
    Rebuild();
  });
}

void RoutingFabric::RecomputeNow() { Rebuild(); }

void RoutingFabric::Rebuild() {
  // Recovery forensics: route re-convergence closes the failure-detection
  // phase of an episode (obs/recovery.h).
  if (trace_.armed(obs::Ev::kReroute)) {
    trace_.Emit(obs::Ev::kReroute, 0, 0,
                static_cast<double>(network_.NumNodes()));
  }
  const std::size_t n = network_.NumNodes();
  num_nodes_ = n;
  routes_.assign(n * n, PortRange{});
  route_ports_.clear();

  // Adjacency over currently-up links and nodes.
  struct Edge {
    NodeId neighbor;
    PortId out_port;
  };
  std::vector<std::vector<Edge>> adj(n);
  for (std::size_t li = 0; li < network_.NumLinks(); ++li) {
    sim::Link* link = network_.GetLink(li);
    if (!link->IsUp()) continue;
    sim::Node* a = link->endpoint_a();
    sim::Node* b = link->endpoint_b();
    if (!a->IsUp() || !b->IsUp()) continue;
    // Find the port each side uses for this link.
    for (PortId p = 0; p < a->NumPorts(); ++p) {
      if (a->LinkAt(p) == link) {
        adj[a->id()].push_back({b->id(), p});
        break;
      }
    }
    for (PortId p = 0; p < b->NumPorts(); ++p) {
      if (b->LinkAt(p) == link) {
        adj[b->id()].push_back({a->id(), p});
        break;
      }
    }
  }

  // For each destination (any addressed node), BFS distances, then record
  // every port on a shortest path at every node.
  std::vector<char> routed(n, 0);
  for (const auto& [ip, dest] : by_ip_) {
    (void)ip;
    if (!dest->IsUp()) continue;
    const NodeId dest_id = dest->id();
    if (routed[dest_id] != 0) continue;  // a node with several addresses
    routed[dest_id] = 1;
    std::vector<int> dist(n, -1);
    std::deque<NodeId> queue;
    dist[dest_id] = 0;
    queue.push_back(dest_id);
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      for (const Edge& e : adj[u]) {
        if (dist[e.neighbor] < 0) {
          dist[e.neighbor] = dist[u] + 1;
          queue.push_back(e.neighbor);
        }
      }
    }
    for (std::size_t u = 0; u < n; ++u) {
      if (dist[u] <= 0) continue;  // unreachable or the destination itself
      PortRange& range = routes_[u * n + dest_id];
      range.begin = static_cast<std::uint32_t>(route_ports_.size());
      for (const Edge& e : adj[u]) {
        if (dist[e.neighbor] == dist[u] - 1) {
          route_ports_.push_back(e.out_port);
        }
      }
      std::sort(route_ports_.begin() + range.begin, route_ports_.end());
      range.count =
          static_cast<std::uint32_t>(route_ports_.size() - range.begin);
    }
  }
}

std::optional<PortId> RoutingFabric::NextHop(sim::Node* at,
                                             const net::Packet& pkt) const {
  if (!pkt.ip.has_value()) return std::nullopt;
  sim::Node* dest = NodeFor(pkt.ip->dst);
  if (dest == nullptr || dest == at) return std::nullopt;
  if (at->id() >= num_nodes_ || dest->id() >= num_nodes_) return std::nullopt;
  const PortRange range = routes_[at->id() * num_nodes_ + dest->id()];
  if (range.count == 0) return std::nullopt;
  // ECMP keyed to the deployment's partition key (see FabricConfig).
  std::uint64_t h;
  if (config_.ecmp_hash == FabricConfig::EcmpHash::kDstAddress) {
    h = Mix64(pkt.ip->dst.value);
  } else if (auto flow = pkt.Flow()) {
    h = net::HashFlowKey(*flow);
  } else {
    h = (static_cast<std::uint64_t>(pkt.ip->src.value) << 32) |
        pkt.ip->dst.value;
  }
  if (config_.ecmp_salt != 0) h = Mix64(h ^ config_.ecmp_salt);
  return route_ports_[range.begin + h % range.count];
}

}  // namespace redplane::routing
