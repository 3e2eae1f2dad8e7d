#include "net/packet.h"

namespace redplane::net {

void ResetPacketIds() {}

std::optional<FlowKey> Packet::Flow() const {
  if (!ip) return std::nullopt;
  FlowKey key;
  key.src_ip = ip->src;
  key.dst_ip = ip->dst;
  key.proto = ip->protocol;
  if (udp) {
    key.src_port = udp->src_port;
    key.dst_port = udp->dst_port;
  } else if (tcp) {
    key.src_port = tcp->src_port;
    key.dst_port = tcp->dst_port;
  } else {
    return std::nullopt;
  }
  return key;
}

Packet MakeUdpPacket(const FlowKey& flow, std::uint32_t pad_bytes) {
  Packet p;
  p.eth = EthernetHeader{};
  Ipv4Header ip;
  ip.src = flow.src_ip;
  ip.dst = flow.dst_ip;
  ip.protocol = IpProto::kUdp;
  p.ip = ip;
  UdpHeader udp;
  udp.src_port = flow.src_port;
  udp.dst_port = flow.dst_port;
  p.udp = udp;
  p.pad_bytes = pad_bytes;
  return p;
}

Packet MakeTcpPacket(const FlowKey& flow, std::uint8_t flags,
                     std::uint32_t seq, std::uint32_t ack,
                     std::uint32_t pad_bytes) {
  Packet p;
  p.eth = EthernetHeader{};
  Ipv4Header ip;
  ip.src = flow.src_ip;
  ip.dst = flow.dst_ip;
  ip.protocol = IpProto::kTcp;
  p.ip = ip;
  TcpHeader tcp;
  tcp.src_port = flow.src_port;
  tcp.dst_port = flow.dst_port;
  tcp.flags = flags;
  tcp.seq = seq;
  tcp.ack = ack;
  p.tcp = tcp;
  p.pad_bytes = pad_bytes;
  return p;
}

std::string Describe(const Packet& p) {
  std::string s = "pkt#";
  s += std::to_string(p.id);
  if (auto flow = p.Flow()) {
    s += ' ';
    s += ToString(*flow);
  }
  s += " (";
  s += std::to_string(p.WireSize());
  s += "B)";
  return s;
}

}  // namespace redplane::net
