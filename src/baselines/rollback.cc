#include "baselines/rollback.h"

namespace redplane::baselines {

RollbackPipeline::RollbackPipeline(dp::SwitchNode& node, core::SwitchApp& app,
                                   std::size_t max_queued_logs)
    : node_(node), app_(app), max_queued_logs_(max_queued_logs) {
  stats_.set_component(node.name() + "/rollback");
  app_pkts_ = stats_.RegisterCounter("app_pkts");
}

void RollbackPipeline::Process(dp::SwitchContext& ctx, net::Packet pkt) {
  const auto key = app_.KeyOf(pkt);
  if (!key.has_value()) {
    ctx.Forward(std::move(pkt));
    return;
  }
  // Attempt to log via the control-plane channel; shed when it is saturated.
  if (node_.control_plane().Pending() < max_queued_logs_) {
    net::Packet copy = pkt;
    node_.control_plane().Submit(pkt.WireSize(),
                                 [this, c = std::move(copy)]() mutable {
                                   log_.push_back(std::move(c));
                                   ++logged_;
                                 });
  } else {
    ++not_logged_;
  }

  core::AppContext actx;
  actx.now = ctx.Now();
  actx.switch_ip = node_.ip();
  auto& state = state_[*key];
  core::ProcessResult result = app_.Process(actx, std::move(pkt), state);
  app_pkts_.Add();
  if (result.output) ctx.Forward(std::move(*result.output));
}

std::unordered_map<net::PartitionKey, std::vector<std::byte>>
RollbackPipeline::Replay(core::SwitchApp& fresh_app) const {
  std::unordered_map<net::PartitionKey, std::vector<std::byte>> rebuilt;
  core::AppContext actx;
  for (const net::Packet& pkt : log_) {
    const auto key = fresh_app.KeyOf(pkt);
    if (!key.has_value()) continue;
    fresh_app.Process(actx, pkt, rebuilt[*key]);
  }
  return rebuilt;
}

void RollbackPipeline::Reset() {
  state_.clear();
  app_.Reset();
}

}  // namespace redplane::baselines
