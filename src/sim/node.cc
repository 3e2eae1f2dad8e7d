#include "sim/node.h"

#include "sim/link.h"

namespace redplane::sim {

Node::Node(Simulator& sim, NodeId id, std::string name)
    : sim_(sim), id_(id), name_(std::move(name)), metrics_(name_),
      trace_(sim.tracer_slot(), name_) {
  tx_pkts_ = metrics_.RegisterCounter("tx_pkts");
  tx_bytes_ = metrics_.RegisterCounter("tx_bytes");
  rx_pkts_ = metrics_.RegisterCounter("rx_pkts");
  rx_bytes_ = metrics_.RegisterCounter("rx_bytes");
  drop_node_down_ = metrics_.RegisterCounter("drop_node_down");
  drop_no_link_ = metrics_.RegisterCounter("drop_no_link");
}

Node::~Node() = default;

void Node::SetUp(bool up) {
  if (up_ != up) {
    trace_.Emit(up ? obs::Ev::kNodeRecovery : obs::Ev::kNodeFailure);
  }
  up_ = up;
}

void Node::AttachLink(PortId port, Link* link) {
  if (port >= links_.size()) links_.resize(port + 1, nullptr);
  links_[port] = link;
}

Link* Node::LinkAt(PortId port) const {
  return port < links_.size() ? links_[port] : nullptr;
}

void Node::SendTo(PortId port, net::Packet&& pkt) {
  if (!up_) {
    drop_node_down_.Add();
    return;
  }
  Link* link = LinkAt(port);
  if (link == nullptr) {
    drop_no_link_.Add();
    return;
  }
  tx_pkts_.Add();
  tx_bytes_.Add(static_cast<double>(pkt.WireSize()));
  sim_.StampPacketId(pkt.id);
  link->Transmit(id_, std::move(pkt));
}

}  // namespace redplane::sim
