#include "apps/load_balancer.h"

namespace redplane::apps {

std::vector<std::byte> LbGlobalState::InitializeFlow(
    const net::PartitionKey& key) {
  if (key.kind != net::PartitionKey::Kind::kFlow) return {};
  if (key.flow.dst_ip != vip_ || key.flow.dst_port != vip_port_) return {};
  auto backend = pool_.Pick();
  if (!backend.has_value()) return {};
  LbEntry entry;
  entry.backend_ip = backend->ip.value;
  entry.backend_port = backend->port;
  std::vector<std::byte> out;
  core::SetState(out, entry);
  return out;
}

std::optional<net::PartitionKey> LoadBalancerApp::KeyOf(
    const net::Packet& pkt) const {
  auto flow = pkt.Flow();
  if (!flow.has_value()) return std::nullopt;
  if (flow->dst_ip == global_.vip() && flow->dst_port == global_.vip_port()) {
    // Client -> VIP direction: the canonical key.
    return net::PartitionKey::OfFlow(*flow);
  }
  // Backend -> client direction: reconstruct the canonical key (the VIP
  // endpoint is configuration; the client endpoint is this packet's dst).
  net::FlowKey canonical;
  canonical.src_ip = flow->dst_ip;
  canonical.src_port = flow->dst_port;
  canonical.dst_ip = global_.vip();
  canonical.dst_port = global_.vip_port();
  canonical.proto = flow->proto;
  return net::PartitionKey::OfFlow(canonical);
}

core::ProcessResult LoadBalancerApp::Process(core::AppContext& ctx,
                                             net::Packet pkt,
                                             std::vector<std::byte>& state) {
  (void)ctx;
  core::ProcessResult result;
  if (!pkt.ip.has_value()) return result;
  const auto entry = core::StateAs<LbEntry>(state);
  if (!entry.has_value()) return result;  // no backend: drop

  const bool to_vip =
      pkt.ip->dst == global_.vip() &&
      ((pkt.tcp && pkt.tcp->dst_port == global_.vip_port()) ||
       (pkt.udp && pkt.udp->dst_port == global_.vip_port()));
  if (to_vip) {
    pkt.ip->dst = net::Ipv4Addr(entry->backend_ip);
    if (pkt.tcp) pkt.tcp->dst_port = entry->backend_port;
    if (pkt.udp) pkt.udp->dst_port = entry->backend_port;
  } else {
    // Return traffic: present the VIP to the client.
    pkt.ip->src = global_.vip();
    if (pkt.tcp) pkt.tcp->src_port = global_.vip_port();
    if (pkt.udp) pkt.udp->src_port = global_.vip_port();
  }
  result.output = std::move(pkt);
  return result;
}

}  // namespace redplane::apps
