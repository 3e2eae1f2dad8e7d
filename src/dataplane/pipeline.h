// The programmable switch node: ports, pipeline, and fixed-function routing.
//
// A SwitchNode owns the forwarding fabric (an externally-installed forwarder
// function, normally ECMP from src/routing) and an optional PipelineHandler,
// the P4-program analogue.  Packets traverse: parser -> pipeline handler ->
// traffic manager -> egress, modeled as a fixed pipeline latency.  A handler
// may emit zero or more packets per input (Definition 1's transition
// function).  On failure (SetUp(false)) the handler's volatile state is
// reset, the defining problem RedPlane solves.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/types.h"
#include "dataplane/control_plane.h"
#include "dataplane/mirror.h"
#include "dataplane/packet_generator.h"
#include "dataplane/register_array.h"
#include "net/headers.h"
#include "net/packet.h"
#include "sim/node.h"

namespace redplane::dp {

class SwitchNode;

/// Per-packet context handed to the pipeline handler.
class SwitchContext {
 public:
  SwitchContext(SwitchNode& sw, PortId in_port)
      : sw_(sw), in_port_(in_port) {}

  SwitchNode& node() { return sw_; }
  PortId in_port() const { return in_port_; }
  SimTime Now() const;

  /// The single-access-per-register-array token for this packet.
  const PipelinePass& pass() const { return pass_; }

  /// Emits a packet through the switch's forwarder (normal L3 output).
  void Forward(net::Packet&& pkt);

  /// Emits a packet out of a specific port.
  void Emit(PortId port, net::Packet&& pkt);

  /// Drops the packet (bookkeeping only; handlers drop by not emitting).
  void Drop(const net::Packet& pkt);

 private:
  SwitchNode& sw_;
  PortId in_port_;
  PipelinePass pass_;
};

/// The P4-program seam.  RedPlane-enabled applications, the baselines, and
/// plain apps all implement this.
class PipelineHandler {
 public:
  virtual ~PipelineHandler() = default;

  /// Processes one packet; emit outputs via `ctx`.
  virtual void Process(SwitchContext& ctx, net::Packet pkt) = 0;

  /// Clears all volatile (data-plane) state; called on switch failure.
  virtual void Reset() = 0;

  /// Optional hook invoked once when the switch comes back up.
  virtual void OnRecovery() {}
};

struct SwitchConfig {
  /// Parser-to-deparser latency for one pass of the pipeline.
  SimDuration pipeline_latency = Nanoseconds(400);
  /// Latency of one recirculation (egress back to ingress).
  SimDuration recirculation_latency = Nanoseconds(700);
  ControlPlaneConfig control_plane;
  /// IP address assigned to the switch for RedPlane protocol traffic (§5.1.2).
  net::Ipv4Addr switch_ip;
};

class SwitchNode : public sim::Node {
 public:
  SwitchNode(sim::Simulator& sim, NodeId id, std::string name,
             SwitchConfig config = {});
  ~SwitchNode() override;

  /// Stamps a packet injected here rather than over a link, then runs the
  /// pipeline.
  void HandlePacket(net::Packet&& pkt, PortId in_port) override;

  /// Fails or recovers the switch.  Failure clears the pipeline handler's
  /// state, pending control-plane work, and mirror buffers.
  void SetUp(bool up) override;

  /// Installs the forwarding function: (packet, in_port) -> output port, or
  /// nullopt to drop.  Installed by the routing substrate.
  void SetForwarder(
      std::function<std::optional<PortId>(const net::Packet&, PortId)> fwd);

  /// Installs the P4-program analogue.  May be null (pure L3 switch).
  void SetPipeline(PipelineHandler* handler) { handler_ = handler; }
  PipelineHandler* pipeline() const { return handler_; }

  /// Forwards `pkt` using the installed forwarder (drops if none/no route).
  void ForwardPacket(net::Packet&& pkt, PortId in_port);

  ControlPlane& control_plane() { return control_plane_; }
  PacketGenerator& packet_generator() { return pktgen_; }
  MirrorTable& mirror() { return mirror_; }
  const SwitchConfig& config() const { return config_; }
  net::Ipv4Addr ip() const { return config_.switch_ip; }

  /// Runs `fn` after one recirculation delay with a fresh pipeline pass,
  /// modeling a packet re-entering the ingress pipeline.
  void Recirculate(std::function<void(SwitchContext&)> fn);

 private:
  SwitchConfig config_;
  ControlPlane control_plane_;
  PacketGenerator pktgen_;
  MirrorTable mirror_;
  PipelineHandler* handler_ = nullptr;
  std::function<std::optional<PortId>(const net::Packet&, PortId)> forwarder_;
  std::uint64_t epoch_ = 0;
};

}  // namespace redplane::dp
