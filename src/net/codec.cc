#include "net/codec.h"

#include <cassert>

#include "obs/profiler.h"

namespace redplane::net {

namespace {
// Serialize/Parse run per packet on every link hop; sample 1-in-64 so the
// armed cost is a countdown decrement on the other 63.
obs::ProfSite g_prof_serialize("net.serialize", /*stride=*/64);
obs::ProfSite g_prof_parse("net.parse", /*stride=*/64);
}  // namespace

void ByteWriter::U8(std::uint8_t v) { out_.push_back(std::byte{v}); }

void ByteWriter::U16(std::uint16_t v) {
  U8(static_cast<std::uint8_t>(v >> 8));
  U8(static_cast<std::uint8_t>(v));
}

void ByteWriter::U32(std::uint32_t v) {
  U16(static_cast<std::uint16_t>(v >> 16));
  U16(static_cast<std::uint16_t>(v));
}

void ByteWriter::U64(std::uint64_t v) {
  U32(static_cast<std::uint32_t>(v >> 32));
  U32(static_cast<std::uint32_t>(v));
}

void ByteWriter::Bytes(std::span<const std::byte> data) {
  out_.insert(out_.end(), data.begin(), data.end());
}

void ByteWriter::PatchU16(std::size_t offset, std::uint16_t v) {
  assert(offset + 2 <= out_.size());
  out_[offset] = std::byte{static_cast<std::uint8_t>(v >> 8)};
  out_[offset + 1] = std::byte{static_cast<std::uint8_t>(v)};
}

bool ByteReader::Ensure(std::size_t n) {
  if (pos_ + n > data_.size()) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t ByteReader::U8() {
  if (!Ensure(1)) return 0;
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint16_t ByteReader::U16() {
  std::uint16_t hi = U8();
  return static_cast<std::uint16_t>((hi << 8) | U8());
}

std::uint32_t ByteReader::U32() {
  std::uint32_t hi = U16();
  return (hi << 16) | U16();
}

std::uint64_t ByteReader::U64() {
  std::uint64_t hi = U32();
  return (hi << 32) | U32();
}

std::vector<std::byte> ByteReader::Bytes(std::size_t n) {
  if (!Ensure(n)) return {};
  std::vector<std::byte> out(data_.begin() + pos_, data_.begin() + pos_ + n);
  pos_ += n;
  return out;
}

void ByteReader::Skip(std::size_t n) {
  if (Ensure(n)) pos_ += n;
}

namespace {

void WriteIpv4(ByteWriter& w, const Ipv4Header& ip, std::size_t l4_size,
               std::vector<std::byte>& buf) {
  const std::size_t start = buf.size();
  const std::uint16_t total =
      static_cast<std::uint16_t>(Ipv4Header::kWireSize + l4_size);
  w.U8(0x45);  // version 4, IHL 5
  w.U8(ip.dscp << 2);
  w.U16(total);
  w.U16(ip.identification);
  w.U16(0);  // flags/fragment
  w.U8(ip.ttl);
  w.U8(static_cast<std::uint8_t>(ip.protocol));
  w.U16(0);  // checksum placeholder
  w.U32(ip.src.value);
  w.U32(ip.dst.value);
  const std::uint16_t csum = InternetChecksum(
      reinterpret_cast<const std::uint8_t*>(buf.data() + start),
      Ipv4Header::kWireSize);
  w.PatchU16(start + 10, csum);
}

}  // namespace

std::vector<std::byte> Serialize(const Packet& p) {
  obs::ProfScope prof(g_prof_serialize);
  std::vector<std::byte> out;
  ByteWriter w(out);

  if (p.eth) {
    w.Bytes(std::as_bytes(std::span(p.eth->dst.bytes)));
    w.Bytes(std::as_bytes(std::span(p.eth->src.bytes)));
    if (p.vlan != 0) {
      w.U16(0x8100);
      w.U16(p.vlan & 0x0fff);
    }
    w.U16(static_cast<std::uint16_t>(p.eth->ethertype));
  }

  const std::size_t payload_size = p.payload.size() + p.pad_bytes;
  std::size_t l4_size = payload_size;
  if (p.udp) l4_size += UdpHeader::kWireSize;
  if (p.tcp) l4_size += TcpHeader::kWireSize;

  if (p.ip) WriteIpv4(w, *p.ip, l4_size, out);

  if (p.udp) {
    w.U16(p.udp->src_port);
    w.U16(p.udp->dst_port);
    w.U16(static_cast<std::uint16_t>(UdpHeader::kWireSize + payload_size));
    w.U16(0);  // UDP checksum optional in IPv4; we transmit 0
  } else if (p.tcp) {
    w.U16(p.tcp->src_port);
    w.U16(p.tcp->dst_port);
    w.U32(p.tcp->seq);
    w.U32(p.tcp->ack);
    w.U8(0x50);  // data offset 5 words
    w.U8(p.tcp->flags);
    w.U16(p.tcp->window);
    w.U16(0);  // checksum (not validated by the simulator)
    w.U16(0);  // urgent pointer
  }

  w.Bytes(p.payload);
  out.resize(out.size() + p.pad_bytes, std::byte{0});
  return out;
}

bool IsBatchFrame(const BufferView& payload) {
  return payload.size() >= 2 && payload.U16At(0) == kBatchMagic;
}

BufferView EncodeBatchEnvelope(std::span<const BufferView> msgs) {
  std::size_t total = BatchOverheadBytes(msgs.size());
  for (const BufferView& m : msgs) total += m.size();
  std::vector<std::byte> out;
  out.reserve(total);
  ByteWriter w(out);
  w.U16(kBatchMagic);
  w.U16(static_cast<std::uint16_t>(msgs.size()));
  for (const BufferView& m : msgs) {
    w.U32(static_cast<std::uint32_t>(m.size()));
    w.Bytes(m);
  }
  return Buffer::FromVector(std::move(out));
}

std::optional<BatchView> BatchView::Parse(BufferView frame) {
  if (frame.size() < 4 || frame.U16At(0) != kBatchMagic) return std::nullopt;
  const std::size_t count = frame.U16At(2);
  // Bound the claimed count against the bytes actually present (each sub
  // costs at least its 4-byte length prefix) before reserving: a 4-byte
  // frame claiming 65535 subs used to reserve ~1.5 MB and then fail on the
  // first sub anyway (fuzz-found allocation amplification).
  if (frame.size() < 4 + 4 * count) return std::nullopt;
  BatchView v;
  v.subs_.reserve(count);
  std::size_t pos = 4;
  for (std::size_t i = 0; i < count; ++i) {
    if (pos + 4 > frame.size()) return std::nullopt;
    const std::size_t len = frame.U32At(pos);
    pos += 4;
    if (pos + len > frame.size()) return std::nullopt;
    v.subs_.push_back(frame.Slice(pos, len));
    pos += len;
  }
  if (pos != frame.size()) return std::nullopt;  // trailing garbage
  return v;
}

std::optional<Packet> Parse(std::span<const std::byte> wire) {
  obs::ProfScope prof(g_prof_parse);
  ByteReader r(wire);
  Packet p;

  EthernetHeader eth;
  auto dst = r.Bytes(6);
  auto src = r.Bytes(6);
  std::uint16_t ethertype = r.U16();
  if (!r.ok()) return std::nullopt;
  std::copy(dst.begin(), dst.end(),
            reinterpret_cast<std::byte*>(eth.dst.bytes.data()));
  std::copy(src.begin(), src.end(),
            reinterpret_cast<std::byte*>(eth.src.bytes.data()));
  if (ethertype == 0x8100) {
    p.vlan = r.U16() & 0x0fff;
    ethertype = r.U16();
  }
  eth.ethertype = static_cast<EtherType>(ethertype);
  p.eth = eth;
  if (eth.ethertype != EtherType::kIpv4) return std::nullopt;

  const std::size_t ip_start = wire.size() - r.Remaining();
  const std::uint8_t ver_ihl = r.U8();
  if ((ver_ihl >> 4) != 4 || (ver_ihl & 0x0f) != 5) return std::nullopt;
  Ipv4Header ip;
  ip.dscp = r.U8() >> 2;
  ip.total_length = r.U16();
  ip.identification = r.U16();
  r.Skip(2);  // flags/fragment
  ip.ttl = r.U8();
  ip.protocol = static_cast<IpProto>(r.U8());
  r.Skip(2);  // checksum (validated below over the raw bytes)
  ip.src = Ipv4Addr(r.U32());
  ip.dst = Ipv4Addr(r.U32());
  if (!r.ok()) return std::nullopt;
  if (InternetChecksum(
          reinterpret_cast<const std::uint8_t*>(wire.data() + ip_start),
          Ipv4Header::kWireSize) != 0) {
    return std::nullopt;
  }
  p.ip = ip;
  if (ip.total_length < Ipv4Header::kWireSize) return std::nullopt;
  std::size_t l4_len = ip.total_length - Ipv4Header::kWireSize;

  if (ip.protocol == IpProto::kUdp) {
    UdpHeader udp;
    udp.src_port = r.U16();
    udp.dst_port = r.U16();
    udp.length = r.U16();
    r.Skip(2);
    if (!r.ok() || udp.length < UdpHeader::kWireSize) return std::nullopt;
    // The UDP header's own length must agree with what the IP total length
    // leaves for L4; a mismatch used to be silently accepted, letting a
    // crafted datagram smuggle payload bytes past length-based accounting
    // (fuzz-found silent-accept).  Serialize always emits them equal.
    if (udp.length != l4_len) return std::nullopt;
    p.udp = udp;
    p.payload = r.Bytes(udp.length - UdpHeader::kWireSize);
  } else if (ip.protocol == IpProto::kTcp) {
    TcpHeader tcp;
    tcp.src_port = r.U16();
    tcp.dst_port = r.U16();
    tcp.seq = r.U32();
    tcp.ack = r.U32();
    const std::uint8_t offset = r.U8() >> 4;
    tcp.flags = r.U8();
    tcp.window = r.U16();
    r.Skip(4);  // checksum + urgent
    if (!r.ok() || offset < 5) return std::nullopt;
    r.Skip((offset - 5) * 4);
    p.tcp = tcp;
    if (l4_len < static_cast<std::size_t>(offset) * 4) return std::nullopt;
    p.payload = r.Bytes(l4_len - offset * 4);
  } else {
    return std::nullopt;
  }
  if (!r.ok()) return std::nullopt;
  return p;
}

}  // namespace redplane::net
