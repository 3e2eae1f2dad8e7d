#include <gtest/gtest.h>

#include "net/codec.h"
#include "net/flow.h"
#include "net/headers.h"
#include "net/packet.h"

namespace redplane::net {
namespace {

TEST(AddrTest, DottedQuadFormatting) {
  EXPECT_EQ(ToString(Ipv4Addr(10, 0, 0, 1)), "10.0.0.1");
  EXPECT_EQ(ToString(Ipv4Addr(255, 255, 255, 255)), "255.255.255.255");
  EXPECT_EQ(Ipv4Addr(192, 168, 1, 2).value, 0xc0a80102u);
}

TEST(AddrTest, MacFormatting) {
  MacAddr mac{{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}};
  EXPECT_EQ(ToString(mac), "de:ad:be:ef:00:01");
}

TEST(ChecksumTest, KnownVector) {
  // RFC 1071 example-style: checksum of a buffer then verifying gives 0.
  std::uint8_t data[] = {0x45, 0x00, 0x00, 0x1c, 0x00, 0x00, 0x00, 0x00,
                         0x40, 0x11, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x01,
                         0x0a, 0x00, 0x00, 0x02};
  const std::uint16_t csum = InternetChecksum(data, sizeof(data));
  data[10] = static_cast<std::uint8_t>(csum >> 8);
  data[11] = static_cast<std::uint8_t>(csum & 0xff);
  EXPECT_EQ(InternetChecksum(data, sizeof(data)), 0);
}

TEST(FlowTest, ReversedSwapsEndpoints) {
  FlowKey f{Ipv4Addr(1, 2, 3, 4), Ipv4Addr(5, 6, 7, 8), 100, 200,
            IpProto::kTcp};
  const FlowKey r = f.Reversed();
  EXPECT_EQ(r.src_ip, f.dst_ip);
  EXPECT_EQ(r.dst_port, f.src_port);
  EXPECT_EQ(r.Reversed(), f);
}

TEST(FlowTest, HashDistinguishesFields) {
  FlowKey f{Ipv4Addr(1, 2, 3, 4), Ipv4Addr(5, 6, 7, 8), 100, 200,
            IpProto::kTcp};
  FlowKey g = f;
  g.src_port = 101;
  EXPECT_NE(HashFlowKey(f), HashFlowKey(g));
  EXPECT_EQ(HashFlowKey(f), HashFlowKey(f));
}

TEST(PartitionKeyTest, KindsCompareDistinct) {
  FlowKey f{Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2), 1, 2, IpProto::kUdp};
  const auto a = PartitionKey::OfFlow(f);
  const auto b = PartitionKey::OfVlan(7);
  const auto c = PartitionKey::OfObject(7);
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(HashPartitionKey(b), HashPartitionKey(c));
  EXPECT_EQ(ToString(b), "vlan:7");
}

TEST(PacketTest, WireSizeAccountsForHeadersAndPad) {
  FlowKey f{Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2), 1, 2, IpProto::kUdp};
  Packet p = MakeUdpPacket(f, 100);
  // eth(14) + ip(20) + udp(8) + 100 pad = 142.
  EXPECT_EQ(p.WireSize(), 142u);
}

TEST(PacketTest, MinimumFrameSizeEnforced) {
  FlowKey f{Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2), 1, 2, IpProto::kUdp};
  Packet p = MakeUdpPacket(f, 0);
  EXPECT_EQ(p.WireSize(), 64u);
}

TEST(PacketTest, VlanTagAddsFourBytes) {
  FlowKey f{Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2), 1, 2, IpProto::kUdp};
  Packet p = MakeUdpPacket(f, 100);
  const std::size_t before = p.WireSize();
  p.vlan = 5;
  EXPECT_EQ(p.WireSize(), before + 4);
}

TEST(PacketTest, FlowExtraction) {
  FlowKey f{Ipv4Addr(9, 9, 9, 9), Ipv4Addr(8, 8, 8, 8), 123, 456,
            IpProto::kTcp};
  Packet p = MakeTcpPacket(f, TcpFlags::kSyn, 1, 0, 0);
  ASSERT_TRUE(p.Flow().has_value());
  EXPECT_EQ(*p.Flow(), f);
  EXPECT_TRUE(p.tcp->syn());
  EXPECT_FALSE(p.tcp->ack_flag());
}

struct CodecCase {
  const char* name;
  IpProto proto;
  std::uint32_t pad;
  std::uint16_t vlan;
  std::size_t payload_bytes;
};

// gtest's default printer dumps the struct's raw bytes, which include the
// (ASLR-randomised) address of `name`; test IDs listed by
// --gtest_list_tests would then change on every run.
void PrintTo(const CodecCase& c, std::ostream* os) { *os << c.name; }

class CodecRoundTrip : public ::testing::TestWithParam<CodecCase> {};

TEST_P(CodecRoundTrip, SerializeParsePreservesFields) {
  const CodecCase& c = GetParam();
  FlowKey f{Ipv4Addr(10, 1, 2, 3), Ipv4Addr(10, 4, 5, 6), 1111, 2222, c.proto};
  Packet p = c.proto == IpProto::kTcp
                 ? MakeTcpPacket(f, TcpFlags::kSyn | TcpFlags::kAck, 42, 43,
                                 c.pad)
                 : MakeUdpPacket(f, c.pad);
  p.vlan = c.vlan;
  std::vector<std::byte> body;
  for (std::size_t i = 0; i < c.payload_bytes; ++i) {
    body.push_back(std::byte{static_cast<std::uint8_t>(i * 7)});
  }
  p.payload = std::move(body);

  const auto wire = Serialize(p);
  const auto parsed = Parse(wire);
  ASSERT_TRUE(parsed.has_value()) << c.name;
  EXPECT_EQ(parsed->vlan, c.vlan);
  ASSERT_TRUE(parsed->Flow().has_value());
  EXPECT_EQ(*parsed->Flow(), f);
  // Payload round trip: pad comes back as zero bytes appended.
  ASSERT_GE(parsed->payload.size(), c.payload_bytes);
  for (std::size_t i = 0; i < c.payload_bytes; ++i) {
    EXPECT_EQ(parsed->payload[i], p.payload[i]);
  }
  EXPECT_EQ(parsed->payload.size(), c.payload_bytes + c.pad);
  if (c.proto == IpProto::kTcp) {
    EXPECT_EQ(parsed->tcp->seq, 42u);
    EXPECT_EQ(parsed->tcp->ack, 43u);
    EXPECT_TRUE(parsed->tcp->syn());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CodecRoundTrip,
    ::testing::Values(CodecCase{"udp_min", IpProto::kUdp, 0, 0, 0},
                      CodecCase{"udp_pad", IpProto::kUdp, 100, 0, 0},
                      CodecCase{"udp_payload", IpProto::kUdp, 0, 0, 37},
                      CodecCase{"udp_vlan", IpProto::kUdp, 10, 42, 5},
                      CodecCase{"tcp_min", IpProto::kTcp, 0, 0, 0},
                      CodecCase{"tcp_big", IpProto::kTcp, 1400, 0, 0},
                      CodecCase{"tcp_vlan", IpProto::kTcp, 64, 7, 11}),
    [](const auto& info) { return info.param.name; });

TEST(CodecTest, CorruptedIpChecksumRejected) {
  FlowKey f{Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2), 1, 2, IpProto::kUdp};
  auto wire = Serialize(MakeUdpPacket(f, 10));
  wire[14 + 12] ^= std::byte{0xff};  // flip a source-address byte
  EXPECT_FALSE(Parse(wire).has_value());
}

TEST(CodecTest, TruncatedFrameRejected) {
  FlowKey f{Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2), 1, 2, IpProto::kUdp};
  auto wire = Serialize(MakeUdpPacket(f, 10));
  wire.resize(20);
  EXPECT_FALSE(Parse(wire).has_value());
}

TEST(CodecTest, EmptyInputRejected) {
  EXPECT_FALSE(Parse({}).has_value());
}

TEST(ByteIoTest, WriterReaderRoundTrip) {
  std::vector<std::byte> buf;
  ByteWriter w(buf);
  w.U8(0xab);
  w.U16(0x1234);
  w.U32(0xdeadbeef);
  w.U64(0x0102030405060708ull);
  ByteReader r(buf);
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U16(), 0x1234);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0102030405060708ull);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.Remaining(), 0u);
}

TEST(ByteIoTest, OverrunSetsStickyError) {
  std::vector<std::byte> buf(3, std::byte{0});
  ByteReader r(buf);
  r.U32();
  EXPECT_FALSE(r.ok());
  // Still safe to keep reading.
  r.U64();
  EXPECT_FALSE(r.ok());
}

TEST(ByteIoTest, PatchU16) {
  std::vector<std::byte> buf;
  ByteWriter w(buf);
  w.U16(0);
  w.U16(0xffff);
  w.PatchU16(0, 0xbeef);
  ByteReader r(buf);
  EXPECT_EQ(r.U16(), 0xbeef);
}

}  // namespace
}  // namespace redplane::net
