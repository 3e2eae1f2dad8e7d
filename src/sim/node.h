// Base class for simulated network elements (switches, servers, hosts).
#pragma once

#include <string>
#include <vector>

#include "common/types.h"
#include "net/packet.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sim/simulator.h"

namespace redplane::sim {

class Link;

class Node {
 public:
  Node(Simulator& sim, NodeId id, std::string name);
  virtual ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  Simulator& sim() { return sim_; }

  /// Delivers a packet arriving on `in_port`.  Called by Link.
  virtual void HandlePacket(net::Packet pkt, PortId in_port) = 0;

  /// Marks this node as failed/recovered.  A failed node silently drops all
  /// deliveries; subclasses may also clear volatile state on failure.
  virtual void SetUp(bool up);
  bool IsUp() const { return up_; }

  /// Registers `link` on `port` (called by Link::Connect).
  void AttachLink(PortId port, Link* link);

  /// Link attached to `port`, or nullptr.
  Link* LinkAt(PortId port) const;

  /// Number of ports with a link attached (ports are dense from 0).
  std::size_t NumPorts() const { return links_.size(); }

  /// Transmits `pkt` out of `port`.  Drops silently (with a counter) if the
  /// port has no link or the node is down.  Stamps the packet id.
  void SendTo(PortId port, net::Packet pkt);

  /// Per-node metric registry ("tx_pkts", "rx_pkts", "drop_no_link", ...).
  /// Typed handles for the hot-path counters are pre-registered; ad-hoc
  /// counters still work through the string API.
  obs::MetricRegistry& counters() { return metrics_; }
  const obs::MetricRegistry& counters() const { return metrics_; }

  /// Accounts a delivery into this node (called by Link on the hot path).
  void NoteRx(std::size_t wire_bytes) {
    rx_pkts_.Add();
    rx_bytes_.Add(static_cast<double>(wire_bytes));
  }

 protected:
  /// Per-node trace emitter (component name = node name).
  const obs::TraceHandle& trace() const { return trace_; }

  Simulator& sim_;

 private:
  NodeId id_;
  std::string name_;
  bool up_ = true;
  std::vector<Link*> links_;
  obs::MetricRegistry metrics_;
  obs::TraceHandle trace_;
  // Typed hot-path counters into metrics_.
  obs::Counter tx_pkts_;
  obs::Counter tx_bytes_;
  obs::Counter rx_pkts_;
  obs::Counter rx_bytes_;
  obs::Counter drop_node_down_;
  obs::Counter drop_no_link_;
};

}  // namespace redplane::sim
