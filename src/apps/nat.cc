#include "apps/nat.h"

namespace redplane::apps {

NatGlobalState::NatGlobalState(net::Ipv4Addr external_ip,
                               std::uint16_t first_port,
                               std::uint16_t port_count,
                               net::Ipv4Addr internal_prefix,
                               std::uint32_t internal_mask)
    : pool_(external_ip, first_port, port_count),
      internal_prefix_(internal_prefix),
      internal_mask_(internal_mask) {}

std::vector<std::byte> NatGlobalState::InitializeFlow(
    const net::PartitionKey& key) {
  if (key.kind != net::PartitionKey::Kind::kFlow) return {};
  const net::FlowKey& flow = key.flow;
  std::vector<std::byte> out;

  if (IsInternal(flow.src_ip)) {
    // Outbound flow: allocate (or reuse) an external port.
    std::uint16_t port;
    auto it = by_flow_.find(flow);
    if (it != by_flow_.end()) {
      port = it->second;
    } else {
      auto allocated = pool_.Allocate();
      if (!allocated.has_value()) return {};  // pool exhausted
      port = *allocated;
      by_flow_.emplace(flow, port);
      by_port_[port] = {flow.src_ip, flow.src_port};
    }
    NatEntry entry;
    entry.direction = 0;
    entry.rewrite_ip = pool_.external_ip().value;
    entry.rewrite_port = port;
    core::SetState(out, entry);
    return out;
  }

  if (flow.dst_ip == pool_.external_ip()) {
    // Inbound flow: resolve the registry.
    auto it = by_port_.find(flow.dst_port);
    if (it == by_port_.end()) return {};  // no mapping: drop at switch
    NatEntry entry;
    entry.direction = 1;
    entry.rewrite_ip = it->second.first.value;
    entry.rewrite_port = it->second.second;
    core::SetState(out, entry);
    return out;
  }
  return {};
}

core::ProcessResult NatApp::Process(core::AppContext& ctx, net::Packet pkt,
                                    std::vector<std::byte>& state) {
  (void)ctx;
  core::ProcessResult result;
  const auto entry = core::StateAs<NatEntry>(state);
  if (!entry.has_value()) {
    // No translation (unknown inbound flow or exhausted pool): drop.  This
    // is exactly the paper's Fig. 1 failure symptom when state is lost.
    return result;
  }
  if (!pkt.ip.has_value()) return result;
  if (entry->direction == 0) {
    pkt.ip->src = net::Ipv4Addr(entry->rewrite_ip);
    if (pkt.tcp) pkt.tcp->src_port = entry->rewrite_port;
    if (pkt.udp) pkt.udp->src_port = entry->rewrite_port;
  } else {
    pkt.ip->dst = net::Ipv4Addr(entry->rewrite_ip);
    if (pkt.tcp) pkt.tcp->dst_port = entry->rewrite_port;
    if (pkt.udp) pkt.udp->dst_port = entry->rewrite_port;
  }
  pkt.ip->ttl = pkt.ip->ttl > 0 ? pkt.ip->ttl - 1 : 0;
  result.output = std::move(pkt);
  return result;
}

}  // namespace redplane::apps
