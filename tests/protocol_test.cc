#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "core/protocol.h"

namespace redplane::core {
namespace {

net::PartitionKey FlowKey1() {
  net::FlowKey f{net::Ipv4Addr(10, 0, 0, 1), net::Ipv4Addr(192, 168, 10, 1),
                 4321, 1234, net::IpProto::kTcp};
  return net::PartitionKey::OfFlow(f);
}

TEST(ProtocolTest, RoundTripPlainRequest) {
  Msg msg;
  msg.type = MsgType::kLeaseNewReq;
  msg.key = FlowKey1();
  msg.seq = 0;
  msg.reply_to = net::Ipv4Addr(172, 16, 0, 1);
  const auto bytes = EncodeMsg(msg);
  const auto decoded = DecodeMsg(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, MsgType::kLeaseNewReq);
  EXPECT_EQ(decoded->key, msg.key);
  EXPECT_EQ(decoded->reply_to, msg.reply_to);
  EXPECT_FALSE(decoded->piggyback.has_value());
}

TEST(ProtocolTest, RoundTripWriteWithStateAndPiggyback) {
  Msg msg;
  msg.type = MsgType::kLeaseRenewReq;
  msg.key = FlowKey1();
  msg.seq = 42;
  msg.reply_to = net::Ipv4Addr(172, 16, 0, 2);
  msg.state = {std::byte{1}, std::byte{2}, std::byte{3}};
  net::FlowKey inner{net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2), 7,
                     8, net::IpProto::kUdp};
  msg.piggyback = net::MakeUdpPacket(inner, 50);

  const auto decoded = DecodeMsg(EncodeMsg(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seq, 42u);
  EXPECT_EQ(decoded->state, msg.state);
  ASSERT_TRUE(decoded->piggyback.has_value());
  ASSERT_TRUE(decoded->piggyback->Flow().has_value());
  EXPECT_EQ(*decoded->piggyback->Flow(), inner);
  // Pad bytes come back as payload bytes; wire size is preserved.
  EXPECT_EQ(decoded->piggyback->WireSize(), msg.piggyback->WireSize());
}

class ProtocolTypeRoundTrip : public ::testing::TestWithParam<MsgType> {};

TEST_P(ProtocolTypeRoundTrip, AllTypesSurvive) {
  Msg msg;
  msg.type = GetParam();
  msg.ack = AckKind::kWriteAck;
  msg.key = net::PartitionKey::OfVlan(9);
  msg.seq = 7;
  msg.snapshot_index = 13;
  msg.chain_hop = 2;
  const auto decoded = DecodeMsg(EncodeMsg(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, GetParam());
  EXPECT_EQ(decoded->ack, AckKind::kWriteAck);
  EXPECT_EQ(decoded->snapshot_index, 13u);
  EXPECT_EQ(decoded->chain_hop, 2);
}

INSTANTIATE_TEST_SUITE_P(
    Types, ProtocolTypeRoundTrip,
    ::testing::Values(MsgType::kLeaseNewReq, MsgType::kLeaseRenewReq,
                      MsgType::kLeaseRenewOnly, MsgType::kReadBufferReq,
                      MsgType::kSnapshotRepl, MsgType::kAck));

TEST(ProtocolTest, AllKeyKindsRoundTrip) {
  for (const auto& key :
       {FlowKey1(), net::PartitionKey::OfVlan(42),
        net::PartitionKey::OfObject(0x1122334455667788ull)}) {
    Msg msg;
    msg.type = MsgType::kAck;
    msg.key = key;
    const auto decoded = DecodeMsg(EncodeMsg(msg));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->key, key);
  }
}

TEST(ProtocolTest, HeaderWireSizeMatchesEncodedSize) {
  Msg msg;
  msg.type = MsgType::kLeaseRenewOnly;
  msg.key = FlowKey1();
  EXPECT_EQ(EncodeMsg(msg).size(), HeaderWireSize(msg.key));
  msg.key = net::PartitionKey::OfVlan(3);
  EXPECT_EQ(EncodeMsg(msg).size(), HeaderWireSize(msg.key));
  msg.key = net::PartitionKey::OfObject(5);
  EXPECT_EQ(EncodeMsg(msg).size(), HeaderWireSize(msg.key));
}

TEST(ProtocolTest, MalformedRejected) {
  EXPECT_FALSE(DecodeMsg({}).has_value());
  std::vector<std::byte> junk(10, std::byte{0x5a});
  EXPECT_FALSE(DecodeMsg(junk).has_value());
  // Valid magic but truncated body.
  Msg msg;
  msg.type = MsgType::kLeaseNewReq;
  msg.key = FlowKey1();
  const net::Buffer bytes = EncodeMsg(msg);
  EXPECT_FALSE(
      DecodeMsg(bytes.span().subspan(0, bytes.size() - 4)).has_value());
}

TEST(ProtocolTest, ProtocolPacketDetection) {
  Msg msg;
  msg.type = MsgType::kLeaseNewReq;
  msg.key = FlowKey1();
  const auto pkt = MakeProtocolPacket(net::Ipv4Addr(172, 16, 0, 1),
                                      net::Ipv4Addr(172, 16, 1, 1), msg);
  EXPECT_TRUE(IsProtocolPacket(pkt));
  EXPECT_EQ(pkt.ip->src, net::Ipv4Addr(172, 16, 0, 1));
  EXPECT_EQ(pkt.udp->dst_port, kRedPlaneUdpPort);

  net::FlowKey f{net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2), 7,
                 kRedPlaneUdpPort, net::IpProto::kUdp};
  const auto fake = net::MakeUdpPacket(f, 10);
  EXPECT_FALSE(IsProtocolPacket(fake));  // right port, wrong magic

  const auto decoded = DecodeFromPacket(pkt);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->key, msg.key);
}

TEST(ProtocolTest, PiggybackedProtocolPacketSurvivesWireRoundTrip) {
  // Full nesting: protocol packet -> wire bytes -> parse -> decode msg ->
  // inner packet intact.  This is the path a replication request takes
  // through the fabric.
  Msg msg;
  msg.type = MsgType::kLeaseRenewReq;
  msg.key = FlowKey1();
  msg.seq = 3;
  msg.state = {std::byte{0xaa}};
  net::FlowKey inner{net::Ipv4Addr(3, 3, 3, 3), net::Ipv4Addr(4, 4, 4, 4), 5,
                     6, net::IpProto::kTcp};
  msg.piggyback = net::MakeTcpPacket(inner, net::TcpFlags::kAck, 9, 10, 200);

  const auto pkt = MakeProtocolPacket(net::Ipv4Addr(172, 16, 0, 1),
                                      net::Ipv4Addr(172, 16, 1, 1), msg);
  const auto wire = net::Serialize(pkt);
  const auto parsed = net::Parse(wire);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(IsProtocolPacket(*parsed));
  const auto decoded = DecodeFromPacket(*parsed);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(decoded->piggyback.has_value());
  EXPECT_EQ(*decoded->piggyback->Flow(), inner);
  EXPECT_EQ(decoded->piggyback->tcp->seq, 9u);
}

// --- One-pass encoding and zero-copy piggyback release ----------------------

/// Appends `v` big-endian, byte by byte: an encoder independent of
/// net::ByteWriter, for the reference encoding below.
void PutBE(std::vector<std::byte>& out, std::uint64_t v, int bytes) {
  for (int i = bytes - 1; i >= 0; --i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

/// The wire layout of core/protocol.h written out field by field, with the
/// piggyback serialized on its own and appended.
std::vector<std::byte> ReferenceEncoding(const Msg& m) {
  std::vector<std::byte> out;
  PutBE(out, 0x9D1A, 2);
  PutBE(out, static_cast<std::uint8_t>(m.type), 1);
  PutBE(out, static_cast<std::uint8_t>(m.ack), 1);
  PutBE(out, m.seq, 8);
  PutBE(out, m.snapshot_index, 4);
  PutBE(out, m.reply_to.value, 4);
  PutBE(out, m.chain_hop, 1);
  PutBE(out, m.span_id, 8);
  PutBE(out, static_cast<std::uint8_t>(m.mode), 1);
  PutBE(out, static_cast<std::uint8_t>(m.key.kind), 1);
  switch (m.key.kind) {
    case net::PartitionKey::Kind::kFlow:
      PutBE(out, m.key.flow.src_ip.value, 4);
      PutBE(out, m.key.flow.dst_ip.value, 4);
      PutBE(out, m.key.flow.src_port, 2);
      PutBE(out, m.key.flow.dst_port, 2);
      PutBE(out, static_cast<std::uint8_t>(m.key.flow.proto), 1);
      break;
    case net::PartitionKey::Kind::kVlan: PutBE(out, m.key.vlan, 2); break;
    case net::PartitionKey::Kind::kObject: PutBE(out, m.key.object, 8); break;
  }
  const std::vector<std::byte> piggy =
      m.piggyback ? net::Serialize(*m.piggyback) : m.piggyback_raw.ToVector();
  PutBE(out, m.state.size(), 2);
  PutBE(out, piggy.size(), 2);
  out.insert(out.end(), m.state.begin(), m.state.end());
  out.insert(out.end(), piggy.begin(), piggy.end());
  return out;
}

net::Packet InnerPacket(std::uint32_t pad_bytes) {
  net::FlowKey inner{net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2), 7,
                     8, net::IpProto::kUdp};
  net::Packet p = net::MakeUdpPacket(inner, pad_bytes);
  p.payload = {std::byte{0x11}, std::byte{0x22}, std::byte{0x33}};
  return p;
}

TEST(EncodeSizeTest, ExactSizeAndReferenceBytesForEveryKeyAndPiggyback) {
  const net::PartitionKey keys[] = {FlowKey1(), net::PartitionKey::OfVlan(77),
                                    net::PartitionKey::OfObject(0xabcdef01)};
  for (const net::PartitionKey& key : keys) {
    for (int piggy = 0; piggy < 4; ++piggy) {
      SCOPED_TRACE(::testing::Message()
                   << "key " << net::ToString(key) << " piggy " << piggy);
      Msg m;
      m.type = MsgType::kLeaseRenewReq;
      m.ack = AckKind::kWriteAck;
      m.seq = 0x0102030405060708ull;
      m.snapshot_index = 9;
      m.reply_to = net::Ipv4Addr(172, 16, 0, 1);
      m.chain_hop = 2;
      m.span_id = 0xfeedfacecafebeefull;
      m.mode = ConsistencyMode::kReplicatedRead;
      m.key = key;
      m.state = {std::byte{1}, std::byte{2}, std::byte{3}, std::byte{4}};
      std::size_t piggy_size = 0;
      if (piggy == 1) m.piggyback = InnerPacket(0);
      if (piggy == 2) m.piggyback = InnerPacket(100);  // pad bytes
      if (piggy == 3) m.piggyback_raw = net::Serialize(InnerPacket(5));
      if (m.piggyback) piggy_size = net::SerializedSize(*m.piggyback);
      if (piggy == 3) piggy_size = m.piggyback_raw.size();
      if (m.piggyback) {
        EXPECT_EQ(piggy_size, net::Serialize(*m.piggyback).size());
      }

      const net::Buffer bytes = EncodeMsg(m);
      EXPECT_EQ(bytes.size(),
                HeaderWireSize(key) + m.state.size() + piggy_size);
      const std::vector<std::byte> want = ReferenceEncoding(m);
      EXPECT_TRUE(std::equal(bytes.data(), bytes.data() + bytes.size(),
                             want.begin(), want.end()));
    }
  }
}

TEST(PiggybackReleaseTest, ZeroCopySliceThatCopiesOnWrite) {
  Msg m;
  m.type = MsgType::kAck;
  m.ack = AckKind::kWriteAck;
  m.key = FlowKey1();
  m.seq = 5;
  m.state = {std::byte{9}};
  m.piggyback = InnerPacket(0);
  const auto view = MsgView::Parse(EncodeMsg(m));
  ASSERT_TRUE(view.has_value());
  const std::vector<std::byte> before = view->bytes().ToVector();
  const net::BufferView want = m.piggyback->payload;

  net::Buffer::ResetCounters();
  std::optional<net::Packet> out = view->PiggybackPacket();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(net::Buffer::Allocations(), 0u);
  EXPECT_EQ(out->payload, want);
  // The payload is a window onto the message's own buffer.
  const std::byte* msg_begin = view->bytes().data();
  const std::byte* msg_end = msg_begin + view->bytes().size();
  EXPECT_GE(out->payload.data(), msg_begin);
  EXPECT_LE(out->payload.data() + out->payload.size(), msg_end);
  EXPECT_EQ(out->payload.buffer().data(), view->bytes().buffer().data());

  // Patching the released packet clones its payload and leaves the message
  // bytes alone.
  out->payload.PatchU8(0, 0xee);
  EXPECT_EQ(net::Buffer::DeepCopies(), 1u);
  EXPECT_EQ(out->payload.U8At(0), 0xee);
  EXPECT_NE(out->payload.buffer().data(), view->bytes().buffer().data());
  EXPECT_EQ(view->bytes().ToVector(), before);
}

TEST(PiggybackReleaseTest, TruncatedOrLengthMismatchedPiggybackRejected) {
  const std::vector<std::byte> wire = net::Serialize(InnerPacket(0));
  Msg m;
  m.type = MsgType::kAck;
  m.ack = AckKind::kWriteAck;
  m.key = FlowKey1();

  // Cut off the last payload byte: the message still frames, the inner
  // packet does not parse.
  m.piggyback_raw = std::vector<std::byte>(wire.begin(), wire.end() - 1);
  auto view = MsgView::Parse(EncodeMsg(m));
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(view->has_piggyback());
  EXPECT_FALSE(view->PiggybackPacket().has_value());
  EXPECT_FALSE(DecodeMsg(view->bytes()).has_value());

  // A UDP length that disagrees with the IP total length.
  std::vector<std::byte> bad = wire;
  const std::size_t udp_len_at = net::EthernetHeader::kWireSize +
                                 net::Ipv4Header::kWireSize + 4;
  bad[udp_len_at + 1] = static_cast<std::byte>(
      std::to_integer<std::uint8_t>(bad[udp_len_at + 1]) + 1);
  m.piggyback_raw = bad;
  view = MsgView::Parse(EncodeMsg(m));
  ASSERT_TRUE(view.has_value());
  EXPECT_FALSE(view->PiggybackPacket().has_value());

  // The untouched wire image still parses.
  m.piggyback_raw = wire;
  view = MsgView::Parse(EncodeMsg(m));
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(view->PiggybackPacket().has_value());
}

}  // namespace
}  // namespace redplane::core
