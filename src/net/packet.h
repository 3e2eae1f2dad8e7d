// The packet value type passed through the simulated network.
//
// The simulator moves structured packets (parsed headers + payload bytes)
// rather than raw buffers; net/codec.h round-trips packets to wire bytes and
// is exercised at encapsulation boundaries and in tests.  A packet's payload
// has two parts: `payload`, real bytes that components interpret (RedPlane
// protocol messages, app-specific headers), and `pad_bytes`, a count of
// opaque application bytes that contribute to the wire size but are never
// inspected — this keeps multi-gigabyte workloads cheap to simulate without
// distorting bandwidth accounting.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "net/buffer.h"
#include "net/flow.h"
#include "net/headers.h"

namespace redplane::net {

/// A packet's id within its simulation, used for tracing: 0 until the
/// packet first enters the network, when the simulator's counter stamps it
/// (sim::Node::SendTo).  Copies keep the id; a packet built afresh (a
/// re-injected or decapsulated one) gets a new one when it is sent.
using PacketId = std::uint64_t;

struct Packet {
  PacketId id = 0;

  std::optional<EthernetHeader> eth;
  std::optional<Ipv4Header> ip;
  std::optional<UdpHeader> udp;
  std::optional<TcpHeader> tcp;
  /// 802.1Q VLAN id, if tagged (0 = untagged).
  std::uint16_t vlan = 0;

  /// Interpreted payload bytes (e.g. an encoded RedPlane message).  A view:
  /// copying the packet shares the payload's backing store (see buffer.h),
  /// so per-hop forwarding never copies payload bytes.
  BufferView payload;
  /// Additional opaque payload bytes counted in the wire size only.
  std::uint32_t pad_bytes = 0;

  /// Simulation metadata (not serialized).
  SimTime created_at = 0;
  NodeId origin = kInvalidNode;

  /// Total bytes this packet occupies on the wire.  Inline: every link
  /// hop charges it.
  std::size_t WireSize() const {
    std::size_t size = 0;
    if (eth) size += EthernetHeader::kWireSize;
    if (vlan != 0) size += 4;  // 802.1Q tag
    if (ip) size += Ipv4Header::kWireSize;
    if (udp) size += UdpHeader::kWireSize;
    if (tcp) size += TcpHeader::kWireSize;
    size += payload.size();
    size += pad_bytes;
    // Minimum Ethernet frame size.
    if (eth && size < 64) size = 64;
    return size;
  }

  /// Extracts the 5-tuple, if the packet has IP + L4 headers.
  std::optional<FlowKey> Flow() const;

  /// True if this packet carries a UDP datagram to the given port.
  bool IsUdpTo(std::uint16_t port) const {
    return udp.has_value() && udp->dst_port == port;
  }
};

/// Does nothing: packet ids are per simulation now.  Kept only because
/// perfbench/packet_workloads.cc still calls it.
void ResetPacketIds();

/// Convenience builders used throughout tests and workloads.
Packet MakeUdpPacket(const FlowKey& flow, std::uint32_t pad_bytes);
Packet MakeTcpPacket(const FlowKey& flow, std::uint8_t flags,
                     std::uint32_t seq, std::uint32_t ack,
                     std::uint32_t pad_bytes);

std::string Describe(const Packet& p);

}  // namespace redplane::net
