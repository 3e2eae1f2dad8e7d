#include "baselines/server_nf.h"

#include <algorithm>

namespace redplane::baselines {

ServerNfNode::ServerNfNode(
    sim::Simulator& sim, NodeId id, std::string name, net::Ipv4Addr ip,
    core::SwitchApp& app, ServerNfConfig config,
    std::function<std::vector<std::byte>(const net::PartitionKey&)>
        initializer)
    : Node(sim, id, std::move(name)),
      ip_(ip),
      app_(app),
      config_(config),
      initializer_(std::move(initializer)) {
  stats_.set_component(this->name() + "/nf");
  m_.app_pkts = stats_.RegisterCounter("app_pkts");
  m_.replications = stats_.RegisterCounter("replications");
}

void ServerNfNode::HandlePacket(net::Packet&& pkt, PortId in_port) {
  (void)in_port;
  if (!IsUp()) return;
  // NIC ingress, then FIFO CPU service.
  const SimTime ready = sim_.Now() + config_.nic_latency;
  const SimTime start = std::max(ready, busy_until_);
  busy_until_ = start + config_.service_time;
  sim_.ScheduleAt(busy_until_,
                  [this, p = std::move(pkt)]() mutable { RunApp(std::move(p)); });
}

void ServerNfNode::RunApp(net::Packet pkt) {
  const auto key = app_.KeyOf(pkt);
  if (!key.has_value()) {
    SendTo(0, std::move(pkt));
    return;
  }
  auto [it, inserted] = state_.try_emplace(*key);
  if (inserted && initializer_) {
    it->second = initializer_(*key);
  }
  core::AppContext actx;
  actx.now = sim_.Now();
  actx.switch_ip = ip_;
  core::ProcessResult result =
      app_.Process(actx, std::move(pkt), it->second);
  m_.app_pkts.Add();

  const bool must_replicate =
      (result.state_modified || inserted) && config_.replication_latency > 0;
  const SimDuration release_delay =
      config_.nic_latency +
      (must_replicate ? config_.replication_latency : 0);
  if (must_replicate) m_.replications.Add();

  if (result.output) {
    sim_.Schedule(release_delay,
                  [this, o = std::move(*result.output)]() mutable {
                    SendTo(0, std::move(o));
                  });
  }
}

}  // namespace redplane::baselines
