#include "baselines/plain_pipeline.h"

namespace redplane::baselines {

PlainAppPipeline::PlainAppPipeline(
    dp::SwitchNode& node, core::SwitchApp& app,
    std::function<std::vector<std::byte>(const net::PartitionKey&)>
        initializer)
    : node_(node), app_(app), initializer_(std::move(initializer)) {
  stats_.set_component(node.name() + "/plain");
  m_.app_pkts = stats_.RegisterCounter("app_pkts");
  m_.state_writes = stats_.RegisterCounter("state_writes");
  m_.cp_installs = stats_.RegisterCounter("cp_installs");
  m_.install_pending_drops = stats_.RegisterCounter("install_pending_drops");
}

void PlainAppPipeline::Process(dp::SwitchContext& ctx, net::Packet pkt) {
  const auto key = app_.KeyOf(pkt);
  if (!key.has_value()) {
    ctx.Forward(std::move(pkt));
    return;
  }
  auto [it, inserted] = state_.try_emplace(*key);
  Entry& entry = it->second;

  if (inserted) {
    if (initializer_) entry.state = initializer_(*key);
    if (app_.StateInMatchTable()) {
      // Table-backed state must be installed by the switch CPU before the
      // data plane can use it; the first packet waits for that install.
      entry.install_pending = true;
      m_.cp_installs.Add();
      node_.control_plane().Submit(
          entry.state.size() + 64,
          [this, key = *key, pkt = std::move(pkt)]() mutable {
            auto eit = state_.find(key);
            if (eit == state_.end()) return;
            eit->second.installed = true;
            eit->second.install_pending = false;
            node_.Recirculate([this, key, p = std::move(pkt)](
                                  dp::SwitchContext& rctx) mutable {
              auto it2 = state_.find(key);
              if (it2 == state_.end()) return;
              RunApp(rctx, it2->second, std::move(p));
            });
          });
      return;
    }
    entry.installed = true;
  }

  if (entry.install_pending) {
    // A burst arrived before the control plane finished; without RedPlane's
    // network buffering the switch can only drop (or punt) these.
    m_.install_pending_drops.Add();
    ctx.Drop(pkt);
    return;
  }
  RunApp(ctx, entry, std::move(pkt));
}

void PlainAppPipeline::RunApp(dp::SwitchContext& ctx, Entry& entry,
                              net::Packet pkt) {
  core::AppContext actx;
  actx.now = ctx.Now();
  actx.switch_ip = node_.ip();
  core::ProcessResult result = app_.Process(actx, std::move(pkt), entry.state);
  m_.app_pkts.Add();
  if (result.state_modified) m_.state_writes.Add();
  if (result.output) ctx.Forward(std::move(*result.output));
}

void PlainAppPipeline::Reset() {
  state_.clear();
  app_.Reset();
}

}  // namespace redplane::baselines
