#include "core/protocol.h"

#include <atomic>

#include "common/logging.h"

namespace redplane::core {

namespace {

constexpr std::uint16_t kMagic = 0x9D1A;

std::atomic<std::uint64_t> g_encode_count{0};

void EncodeKey(net::ByteWriter& w, const net::PartitionKey& key) {
  w.U8(static_cast<std::uint8_t>(key.kind));
  switch (key.kind) {
    case net::PartitionKey::Kind::kFlow:
      w.U32(key.flow.src_ip.value);
      w.U32(key.flow.dst_ip.value);
      w.U16(key.flow.src_port);
      w.U16(key.flow.dst_port);
      w.U8(static_cast<std::uint8_t>(key.flow.proto));
      break;
    case net::PartitionKey::Kind::kVlan:
      w.U16(key.vlan);
      break;
    case net::PartitionKey::Kind::kObject:
      w.U64(key.object);
      break;
  }
}

bool DecodeKey(net::ByteReader& r, net::PartitionKey& key) {
  key.kind = static_cast<net::PartitionKey::Kind>(r.U8());
  switch (key.kind) {
    case net::PartitionKey::Kind::kFlow:
      key.flow.src_ip = net::Ipv4Addr(r.U32());
      key.flow.dst_ip = net::Ipv4Addr(r.U32());
      key.flow.src_port = r.U16();
      key.flow.dst_port = r.U16();
      key.flow.proto = static_cast<net::IpProto>(r.U8());
      return r.ok();
    case net::PartitionKey::Kind::kVlan:
      key.vlan = r.U16();
      return r.ok();
    case net::PartitionKey::Kind::kObject:
      key.object = r.U64();
      return r.ok();
  }
  return false;
}

}  // namespace

std::size_t HeaderWireSize(const net::PartitionKey& key) {
  // magic(2) + type(1) + ack(1) + seq(8) + snapshot_index(4) + reply_to(4) +
  // chain_hop(1) + span_id(8) + mode(1) + key-kind(1) + key body +
  // state-len(2) + piggy-len(2).
  std::size_t key_size = 0;
  switch (key.kind) {
    case net::PartitionKey::Kind::kFlow: key_size = 13; break;
    case net::PartitionKey::Kind::kVlan: key_size = 2; break;
    case net::PartitionKey::Kind::kObject: key_size = 8; break;
  }
  return 2 + 1 + 1 + 8 + 4 + 4 + 1 + 8 + 1 + 1 + key_size + 2 + 2;
}

net::Buffer EncodeMsg(const Msg& msg) {
  g_encode_count.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::byte> out;
  net::ByteWriter w(out);
  w.U16(kMagic);
  w.U8(static_cast<std::uint8_t>(msg.type));
  w.U8(static_cast<std::uint8_t>(msg.ack));
  w.U64(msg.seq);
  w.U32(msg.snapshot_index);
  w.U32(msg.reply_to.value);
  w.U8(msg.chain_hop);
  w.U64(msg.span_id);
  w.U8(static_cast<std::uint8_t>(msg.mode));
  EncodeKey(w, msg.key);
  w.U16(static_cast<std::uint16_t>(msg.state.size()));
  if (msg.piggyback.has_value()) {
    const std::vector<std::byte> piggy = net::Serialize(*msg.piggyback);
    w.U16(static_cast<std::uint16_t>(piggy.size()));
    w.Bytes(msg.state);
    w.Bytes(piggy);
  } else {
    // Splice pre-serialized piggyback bytes verbatim (echo paths).
    w.U16(static_cast<std::uint16_t>(msg.piggyback_raw.size()));
    w.Bytes(msg.state);
    w.Bytes(msg.piggyback_raw);
  }
  return net::Buffer::FromVector(std::move(out));
}

std::optional<MsgView> MsgView::Parse(net::BufferView payload) {
  if (payload.size() < wire::kOffKeyKind + 1) return std::nullopt;
  if (payload.U16At(wire::kOffMagic) != kMagic) return std::nullopt;
  if (payload.U8At(wire::kOffMode) >= kNumConsistencyModes) return std::nullopt;
  // Enum-range validation: an out-of-range type or ack byte used to be
  // silently accepted and then fall through every dispatch switch after
  // paying full service time (fuzz-found silent-accept).  Reject at parse.
  const std::uint8_t type_byte = payload.U8At(wire::kOffType);
  if (type_byte < static_cast<std::uint8_t>(MsgType::kLeaseNewReq) ||
      type_byte > static_cast<std::uint8_t>(MsgType::kReplicaSubscribe)) {
    return std::nullopt;
  }
  if (payload.U8At(wire::kOffAck) >
      static_cast<std::uint8_t>(AckKind::kReplicaPush)) {
    return std::nullopt;
  }
  MsgView v;
  // Decode the key eagerly (it is read on every dispatch) and derive the
  // fixed section offsets from its size.
  net::ByteReader r(payload.span().subspan(wire::kOffKeyKind));
  if (!DecodeKey(r, v.key_)) return std::nullopt;
  const std::size_t key_end =
      wire::kOffKeyKind + (payload.size() - wire::kOffKeyKind - r.Remaining());
  if (payload.size() < key_end + 4) return std::nullopt;
  v.state_len_ = payload.U16At(key_end);
  v.piggy_len_ = payload.U16At(key_end + 2);
  v.state_off_ = static_cast<std::uint32_t>(key_end + 4);
  if (payload.size() <
      v.state_off_ + static_cast<std::size_t>(v.state_len_) + v.piggy_len_) {
    return std::nullopt;
  }
  v.bytes_ = std::move(payload);
  return v;
}

std::optional<net::Packet> MsgView::PiggybackPacket() const {
  if (piggy_len_ == 0) return std::nullopt;
  return net::Parse(piggyback_bytes());
}

Msg MsgView::ToMsg() const {
  Msg msg;
  msg.type = type();
  msg.ack = ack();
  msg.seq = seq();
  msg.snapshot_index = snapshot_index();
  msg.reply_to = reply_to();
  msg.chain_hop = chain_hop();
  msg.span_id = span_id();
  msg.mode = mode();
  msg.key = key_;
  msg.state = state().ToVector();
  msg.piggyback_raw = piggyback_bytes();
  return msg;
}

std::optional<Msg> DecodeMsg(std::span<const std::byte> payload) {
  // Compatibility decoder over a non-owning span: copy once into an owned
  // buffer, then view-parse.  Callers that already hold a BufferView should
  // prefer MsgView::Parse (zero-copy).
  auto view = MsgView::Parse(net::Buffer::CopyOf(payload));
  if (!view.has_value()) return std::nullopt;
  Msg msg = view->ToMsg();
  if (view->has_piggyback()) {
    auto inner = view->PiggybackPacket();
    if (!inner.has_value()) {
      RP_LOG(kWarn) << "RedPlane message with malformed piggyback";
      return std::nullopt;
    }
    msg.piggyback = std::move(inner);
    msg.piggyback_raw.clear();
  }
  return msg;
}

net::Packet MakeProtocolPacket(net::Ipv4Addr src_ip, net::Ipv4Addr dst_ip,
                               const Msg& msg) {
  return MakeProtocolPacketRaw(src_ip, dst_ip, EncodeMsg(msg));
}

net::Packet MakeProtocolPacketRaw(net::Ipv4Addr src_ip, net::Ipv4Addr dst_ip,
                                  net::BufferView payload) {
  net::Packet p;
  p.eth = net::EthernetHeader{};
  net::Ipv4Header ip;
  ip.src = src_ip;
  ip.dst = dst_ip;
  ip.protocol = net::IpProto::kUdp;
  p.ip = ip;
  net::UdpHeader udp;
  udp.src_port = kRedPlaneUdpPort;
  udp.dst_port = kRedPlaneUdpPort;
  p.udp = udp;
  p.payload = std::move(payload);
  return p;
}

bool IsProtocolPacket(const net::Packet& pkt) {
  if (!pkt.udp.has_value() || pkt.udp->dst_port != kRedPlaneUdpPort ||
      pkt.payload.size() < 2) {
    return false;
  }
  // Either a single message or a batch envelope of messages.
  const std::uint16_t magic = pkt.payload.U16At(0);
  return magic == kMagic || magic == net::kBatchMagic;
}

std::optional<Msg> DecodeFromPacket(const net::Packet& pkt) {
  auto view = MsgView::Parse(pkt.payload);
  if (!view.has_value()) return std::nullopt;
  Msg msg = view->ToMsg();
  if (view->has_piggyback()) {
    auto inner = view->PiggybackPacket();
    if (!inner.has_value()) {
      RP_LOG(kWarn) << "RedPlane message with malformed piggyback";
      return std::nullopt;
    }
    msg.piggyback = std::move(inner);
    msg.piggyback_raw.clear();
  }
  return msg;
}

std::uint64_t EncodeCount() {
  return g_encode_count.load(std::memory_order_relaxed);
}

void ResetEncodeCount() {
  g_encode_count.store(0, std::memory_order_relaxed);
}

}  // namespace redplane::core
