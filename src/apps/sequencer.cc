#include "apps/sequencer.h"

#include "net/codec.h"

namespace redplane::apps {

net::Packet MakeSequencedPacket(const net::FlowKey& flow,
                                std::uint64_t group) {
  net::Packet pkt = net::MakeUdpPacket(flow, 0);
  pkt.udp->dst_port = kSequencerPort;
  std::vector<std::byte> buf;
  net::ByteWriter w(buf);
  w.U64(group);
  w.U64(0);  // stamp placeholder, filled by the sequencer
  pkt.payload = std::move(buf);
  return pkt;
}

std::optional<SequencedHeader> ParseSequencedPacket(const net::Packet& pkt) {
  if (pkt.payload.size() < 16) return std::nullopt;
  net::ByteReader r(pkt.payload);
  SequencedHeader hdr;
  hdr.group = r.U64();
  hdr.stamp = r.U64();
  return hdr;
}

std::optional<net::PartitionKey> SequencerApp::KeyOf(
    const net::Packet& pkt) const {
  if (!pkt.udp.has_value() || pkt.udp->dst_port != kSequencerPort ||
      pkt.payload.size() < 16) {
    return std::nullopt;
  }
  net::ByteReader r(pkt.payload);
  return net::PartitionKey::OfObject(r.U64());
}

core::ProcessResult SequencerApp::Process(core::AppContext& ctx,
                                          net::Packet pkt,
                                          std::vector<std::byte>& state) {
  (void)ctx;
  core::ProcessResult result;
  if (pkt.payload.size() < 16) return result;

  // Increment the group counter and stamp the message (every packet is a
  // write: the sequencer is the paper's worst-case access pattern with
  // application semantics attached).
  const std::uint64_t stamp =
      core::StateAs<std::uint64_t>(state).value_or(0) + 1;
  core::SetState(state, stamp);
  result.state_modified = true;

  net::ByteReader r(pkt.payload);
  const std::uint64_t group = r.U64();
  std::vector<std::byte> buf;
  net::ByteWriter w(buf);
  w.U64(group);
  w.U64(stamp);
  pkt.payload = std::move(buf);
  result.output = std::move(pkt);
  return result;
}

}  // namespace redplane::apps
