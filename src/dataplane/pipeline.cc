#include "dataplane/pipeline.h"

#include "common/logging.h"

namespace redplane::dp {

SimTime SwitchContext::Now() const { return sw_.sim().Now(); }

void SwitchContext::Forward(net::Packet&& pkt) {
  sw_.ForwardPacket(std::move(pkt), in_port_);
}

void SwitchContext::Emit(PortId port, net::Packet&& pkt) {
  sw_.SendTo(port, std::move(pkt));
}

void SwitchContext::Drop(const net::Packet& pkt) {
  (void)pkt;
  sw_.counters().Add("pipeline_drops");
}

SwitchNode::SwitchNode(sim::Simulator& sim, NodeId id, std::string name,
                       SwitchConfig config)
    : Node(sim, id, std::move(name)),
      config_(config),
      control_plane_(sim, config.control_plane, this->name() + "/cp"),
      pktgen_(sim, this->name() + "/pktgen"),
      // RedPlane truncates mirrored requests to the replication header; 64
      // bytes comfortably covers Ethernet+IP+UDP+RedPlane header.
      mirror_(sim, this->name() + "/mirror", 64) {}

SwitchNode::~SwitchNode() = default;

void SwitchNode::HandlePacket(net::Packet&& pkt, PortId in_port) {
  if (!IsUp()) return;
  sim_.StampPacketId(pkt.id);
  const std::uint64_t epoch = epoch_;
  // One traversal of parser + match-action stages + deparser.
  sim_.Schedule(config_.pipeline_latency, [this, epoch, in_port,
                                           pkt = std::move(pkt)]() mutable {
    if (epoch != epoch_ || !IsUp()) return;
    if (trace().armed(obs::Ev::kPipeline)) {
      const auto flow = pkt.Flow();
      trace().Emit(obs::Ev::kPipeline, flow ? net::HashFlowKey(*flow) : 0,
                   pkt.id, static_cast<double>(pkt.WireSize()));
    }
    if (handler_ != nullptr) {
      SwitchContext ctx(*this, in_port);
      handler_->Process(ctx, std::move(pkt));
    } else {
      ForwardPacket(std::move(pkt), in_port);
    }
  });
}

void SwitchNode::SetUp(bool up) {
  const bool was_up = IsUp();
  Node::SetUp(up);
  if (was_up && !up) {
    // Fail-stop: all volatile data-plane state is lost.
    ++epoch_;
    if (handler_ != nullptr) handler_->Reset();
    control_plane_.Reset();
    mirror_.Reset();
    pktgen_.Stop();
    counters().Add("failures");
  } else if (!was_up && up) {
    if (handler_ != nullptr) handler_->OnRecovery();
    counters().Add("recoveries");
  }
}

void SwitchNode::SetForwarder(
    std::function<std::optional<PortId>(const net::Packet&, PortId)> fwd) {
  forwarder_ = std::move(fwd);
}

void SwitchNode::ForwardPacket(net::Packet&& pkt, PortId in_port) {
  if (!forwarder_) {
    counters().Add("drop_no_forwarder");
    return;
  }
  const auto out = forwarder_(pkt, in_port);
  if (!out.has_value()) {
    counters().Add("drop_no_route");
    return;
  }
  SendTo(*out, std::move(pkt));
}

void SwitchNode::Recirculate(std::function<void(SwitchContext&)> fn) {
  const std::uint64_t epoch = epoch_;
  trace().Emit(obs::Ev::kRecirculate);
  sim_.Schedule(config_.recirculation_latency, [this, epoch,
                                                fn = std::move(fn)]() {
    if (epoch != epoch_ || !IsUp()) return;
    SwitchContext ctx(*this, kInvalidPort);
    fn(ctx);
  });
}

}  // namespace redplane::dp
