#include "baselines/switch_chain.h"

#include "core/protocol.h"

namespace redplane::baselines {

SwitchChainPipeline::SwitchChainPipeline(dp::SwitchNode& node,
                                         core::SwitchApp& app,
                                         std::optional<net::Ipv4Addr> next_hop_ip,
                                         std::uint16_t chain_port)
    : node_(node),
      app_(app),
      next_hop_ip_(next_hop_ip),
      chain_port_(chain_port) {
  stats_.set_component(node.name() + "/chain");
  m_.app_pkts = stats_.RegisterCounter("app_pkts");
  m_.chain_updates_sent = stats_.RegisterCounter("chain_updates_sent");
  m_.chain_updates_applied = stats_.RegisterCounter("chain_updates_applied");
  m_.malformed_chain_updates =
      stats_.RegisterCounter("malformed_chain_updates");
}

void SwitchChainPipeline::Process(dp::SwitchContext& ctx, net::Packet pkt) {
  if (pkt.IsUdpTo(chain_port_)) {
    if (pkt.ip.has_value() && pkt.ip->dst == node_.ip()) {
      ApplyChainUpdate(ctx, std::move(pkt));
    } else {
      ctx.Forward(std::move(pkt));  // transit chain traffic
    }
    return;
  }

  const auto key = app_.KeyOf(pkt);
  if (!key.has_value()) {
    ctx.Forward(std::move(pkt));
    return;
  }
  core::AppContext actx;
  actx.now = ctx.Now();
  actx.switch_ip = node_.ip();
  auto& state = state_[*key];
  core::ProcessResult result = app_.Process(actx, std::move(pkt), state);
  m_.app_pkts.Add();

  if (result.state_modified && next_hop_ip_.has_value()) {
    // Forward the update (and the withheld output) down the chain; the
    // tail releases it.  There is no ack and no retransmission — the data
    // plane has neither — so a drop on the inter-switch link silently
    // desynchronizes the replicas.
    core::Msg update;
    update.type = core::MsgType::kLeaseRenewReq;
    update.key = *key;
    update.state = state;
    update.piggyback = std::move(result.output);
    net::Packet chain_pkt =
        core::MakeProtocolPacket(node_.ip(), *next_hop_ip_, update);
    chain_pkt.udp->dst_port = chain_port_;
    chain_pkt.udp->src_port = chain_port_;
    m_.chain_updates_sent.Add();
    ctx.Forward(std::move(chain_pkt));
    return;
  }

  if (result.output) ctx.Forward(std::move(*result.output));
}

void SwitchChainPipeline::ApplyChainUpdate(dp::SwitchContext& ctx,
                                           net::Packet pkt) {
  auto msg = core::MsgView::Parse(pkt.payload);
  if (!msg.has_value()) {
    m_.malformed_chain_updates.Add();
    return;
  }
  state_[msg->key()].assign(msg->state().begin(), msg->state().end());
  m_.chain_updates_applied.Add();
  if (next_hop_ip_.has_value()) {
    // Forward the received bytes verbatim — the replica never re-encodes.
    net::Packet fwd =
        core::MakeProtocolPacketRaw(node_.ip(), *next_hop_ip_, msg->bytes());
    fwd.udp->dst_port = chain_port_;
    fwd.udp->src_port = chain_port_;
    ctx.Forward(std::move(fwd));
    return;
  }
  // Tail: the update is replicated everywhere; release the output (parsed
  // here for the first time — transit hops never touched it).
  if (msg->has_piggyback()) {
    if (auto piggy = msg->PiggybackPacket()) {
      ctx.Forward(std::move(*piggy));
    } else {
      m_.malformed_chain_updates.Add();
    }
  }
}

std::size_t SwitchChainPipeline::ReplicaStateBytes() const {
  std::size_t total = 0;
  for (const auto& [key, bytes] : state_) {
    total += sizeof(key) + bytes.size();
  }
  return total;
}

void SwitchChainPipeline::Reset() {
  state_.clear();
  app_.Reset();
}

}  // namespace redplane::baselines
