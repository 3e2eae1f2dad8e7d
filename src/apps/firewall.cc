#include "apps/firewall.h"

namespace redplane::apps {

std::optional<net::PartitionKey> FirewallApp::KeyOf(
    const net::Packet& pkt) const {
  auto flow = pkt.Flow();
  if (!flow.has_value()) return std::nullopt;
  if (IsInternal(flow->src_ip)) {
    return net::PartitionKey::OfFlow(*flow);
  }
  return net::PartitionKey::OfFlow(flow->Reversed());
}

core::ProcessResult FirewallApp::Process(core::AppContext& ctx,
                                         net::Packet pkt,
                                         std::vector<std::byte>& state) {
  (void)ctx;
  core::ProcessResult result;
  if (!pkt.ip.has_value()) return result;
  const bool outbound = IsInternal(pkt.ip->src);
  auto entry = core::StateAs<FirewallEntry>(state);

  if (outbound) {
    if (!entry.has_value() || entry->established == 0) {
      // First outbound packet establishes the connection state — the one
      // write this read-centric app performs.
      FirewallEntry fresh;
      fresh.established = 1;
      core::SetState(state, fresh);
      result.state_modified = true;
    } else if (pkt.tcp && pkt.tcp->fin()) {
      FirewallEntry updated = *entry;
      updated.fin_seen = 1;
      core::SetState(state, updated);
      result.state_modified = true;
    }
    result.output = std::move(pkt);
    return result;
  }

  // Inbound: admit only established connections.
  if (entry.has_value() && entry->established != 0) {
    result.output = std::move(pkt);
  }
  return result;
}

}  // namespace redplane::apps
