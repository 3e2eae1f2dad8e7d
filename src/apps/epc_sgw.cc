#include "apps/epc_sgw.h"

#include "net/codec.h"

namespace redplane::apps {

std::optional<net::PartitionKey> EpcSgwApp::KeyOf(
    const net::Packet& pkt) const {
  if (!pkt.ip.has_value() || !pkt.udp.has_value()) return std::nullopt;
  if (pkt.udp->dst_port != kSgwSignalingPort &&
      pkt.udp->dst_port != kSgwDataPort) {
    return std::nullopt;  // not SGW traffic
  }
  // Both signaling and downlink data identify the user by destination IP.
  return net::PartitionKey::OfObject(pkt.ip->dst.value);
}

core::ProcessResult EpcSgwApp::Process(core::AppContext& ctx, net::Packet pkt,
                                       std::vector<std::byte>& state) {
  (void)ctx;
  core::ProcessResult result;
  if (!pkt.udp.has_value()) return result;

  if (pkt.udp->dst_port == kSgwSignalingPort) {
    // Signaling: install/refresh the bearer from the message body.
    net::ByteReader r(pkt.payload);
    SgwBearer bearer;
    bearer.teid = r.U32();
    bearer.enb_ip = r.U32();
    bearer.attached = 1;
    if (!r.ok()) return result;
    core::SetState(state, bearer);
    result.state_modified = true;
    result.output = std::move(pkt);  // ack toward the MME path
    return result;
  }

  // Data: forward through the user's tunnel.  Without bearer state the SGW
  // cannot encapsulate — the paper's "active session broken" failure mode.
  const auto bearer = core::StateAs<SgwBearer>(state);
  if (!bearer.has_value() || bearer->attached == 0) return result;
  // Model GTP-U encapsulation: route toward the eNodeB, tag with the TEID.
  pkt.ip->dscp = 1;
  pkt.ip->identification = static_cast<std::uint16_t>(bearer->teid);
  result.output = std::move(pkt);
  return result;
}

net::Packet MakeSgwSignalingPacket(net::Ipv4Addr src, net::Ipv4Addr user_ip,
                                   std::uint32_t teid, net::Ipv4Addr enb_ip) {
  net::FlowKey flow;
  flow.src_ip = src;
  flow.dst_ip = user_ip;
  flow.src_port = 9000;
  flow.dst_port = kSgwSignalingPort;
  flow.proto = net::IpProto::kUdp;
  net::Packet pkt = net::MakeUdpPacket(flow, 0);
  std::vector<std::byte> buf;
  net::ByteWriter w(buf);
  w.U32(teid);
  w.U32(enb_ip.value);
  pkt.payload = std::move(buf);
  return pkt;
}

}  // namespace redplane::apps
