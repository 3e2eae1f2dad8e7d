// End hosts and servers.
//
// A HostNode is a single-homed endpoint with an IP address and a pluggable
// receive handler; traffic generators, echo reflectors, latency probes, TCP
// endpoints and server-based NFs are all built on it.
#pragma once

#include <functional>

#include "net/headers.h"
#include "net/packet.h"
#include "sim/node.h"

namespace redplane::sim {

class HostNode : public Node {
 public:
  HostNode(Simulator& sim, NodeId id, std::string name, net::Ipv4Addr ip)
      : Node(sim, id, std::move(name)), ip_(ip) {}

  net::Ipv4Addr ip() const { return ip_; }

  /// Installs the receive handler.  Without one, packets are counted and
  /// dropped (a pure sink).
  void SetHandler(std::function<void(HostNode&, net::Packet)> handler) {
    handler_ = std::move(handler);
  }

  /// Transmits out of the host's single uplink; the ingress record
  /// carries the packet id.
  void Send(net::Packet pkt) {
    sim_.StampPacketId(pkt.id);
    if (trace().armed(obs::Ev::kIngress)) {
      const auto flow = pkt.Flow();
      trace().Emit(obs::Ev::kIngress, flow ? net::HashFlowKey(*flow) : 0, pkt.id,
                   static_cast<double>(pkt.WireSize()));
    }
    SendTo(0, std::move(pkt));
  }

  void HandlePacket(net::Packet pkt, PortId in_port) override {
    (void)in_port;
    if (!IsUp()) return;
    if (trace().armed(obs::Ev::kHostRecv)) {
      const auto flow = pkt.Flow();
      trace().Emit(obs::Ev::kHostRecv, flow ? net::HashFlowKey(*flow) : 0,
                   pkt.id, static_cast<double>(pkt.WireSize()));
    }
    if (handler_) {
      handler_(*this, std::move(pkt));
    } else {
      counters().Add("sink_pkts");
    }
  }

 private:
  net::Ipv4Addr ip_;
  std::function<void(HostNode&, net::Packet)> handler_;
};

}  // namespace redplane::sim
