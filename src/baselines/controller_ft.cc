#include "baselines/controller_ft.h"

#include "core/protocol.h"

namespace redplane::baselines {

void ControllerNode::HandlePacket(net::Packet&& pkt, PortId in_port) {
  (void)in_port;
  if (!core::IsProtocolPacket(pkt)) return;
  auto msg = core::DecodeFromPacket(pkt);
  if (!msg.has_value()) return;
  // Commit after the internal replication latency, then ack.
  sim_.Schedule(commit_latency_, [this, m = std::move(*msg)]() {
    committed_[m.key] = m.state;
    ++commits_;
    core::Msg ack;
    ack.type = core::MsgType::kAck;
    ack.ack = core::AckKind::kWriteAck;
    ack.key = m.key;
    ack.seq = m.seq;
    ack.piggyback = m.piggyback;
    SendTo(0, core::MakeProtocolPacket(net::Ipv4Addr(), m.reply_to, ack));
  });
}

ControllerFtPipeline::ControllerFtPipeline(
    dp::SwitchNode& node, core::SwitchApp& app, ControllerNode& controller,
    SimDuration mgmt_rtt,
    std::function<std::vector<std::byte>(const net::PartitionKey&)>
        initializer)
    : node_(node),
      app_(app),
      controller_(controller),
      mgmt_rtt_(mgmt_rtt),
      initializer_(std::move(initializer)) {
  stats_.set_component(node.name() + "/ctrl_ft");
  m_.app_pkts = stats_.RegisterCounter("app_pkts");
  m_.controller_commits = stats_.RegisterCounter("controller_commits");
  m_.controller_refreshes = stats_.RegisterCounter("controller_refreshes");
  m_.commit_pending_drops = stats_.RegisterCounter("commit_pending_drops");
}

void ControllerFtPipeline::Process(dp::SwitchContext& ctx, net::Packet pkt) {
  const auto key = app_.KeyOf(pkt);
  if (!key.has_value()) {
    ctx.Forward(std::move(pkt));
    return;
  }
  auto [it, inserted] = state_.try_emplace(*key);
  Entry& entry = it->second;

  if (inserted) {
    if (initializer_) entry.state = initializer_(*key);
    // New state commits to the controller synchronously: PCIe to the switch
    // CPU, management network to the controller, controller replication,
    // and back.  The first packet waits for the full chain.
    m_.controller_commits.Add();
    node_.control_plane().Submit(
        entry.state.size() + 64, [this, key = *key, pkt = std::move(pkt)]() mutable {
          node_.sim().Schedule(mgmt_rtt_, [this, key, p = std::move(pkt)]() mutable {
            auto eit = state_.find(key);
            if (eit == state_.end()) return;
            controller_.NoteCommitReceived();
            eit->second.committed = true;
            node_.Recirculate([this, key, p2 = std::move(p)](
                                  dp::SwitchContext& rctx) mutable {
              auto it2 = state_.find(key);
              if (it2 == state_.end()) return;
              RunApp(rctx, key, it2->second, std::move(p2));
            });
          });
        });
    return;
  }

  if (!entry.committed) {
    m_.commit_pending_drops.Add();
    ctx.Drop(pkt);
    return;
  }
  RunApp(ctx, *key, entry, std::move(pkt));
}

void ControllerFtPipeline::RunApp(dp::SwitchContext& ctx,
                                  const net::PartitionKey& key, Entry& entry,
                                  net::Packet pkt) {
  core::AppContext actx;
  actx.now = ctx.Now();
  actx.switch_ip = node_.ip();
  core::ProcessResult result = app_.Process(actx, std::move(pkt), entry.state);
  m_.app_pkts.Add();
  if (result.state_modified) {
    // Asynchronously refresh the controller copy (write-back).  The paper's
    // controller approaches cannot do this per packet at line rate; the
    // rollback baseline demonstrates that failure mode.
    m_.controller_refreshes.Add();
    node_.sim().Schedule(mgmt_rtt_, [this, key, state = entry.state]() mutable {
      controller_.CommitDirect(key, std::move(state));
    });
  }
  if (result.output) ctx.Forward(std::move(*result.output));
}

std::size_t ControllerFtPipeline::RestoreFromController() {
  std::size_t restored = 0;
  for (const auto& [key, bytes] : controller_.committed()) {
    Entry entry;
    entry.state = bytes;
    entry.committed = true;
    state_[key] = entry;
    ++restored;
  }
  return restored;
}

void ControllerFtPipeline::Reset() {
  state_.clear();
  app_.Reset();
}

}  // namespace redplane::baselines
