// Copy/alloc regression tests for the zero-copy message core.
//
// The contract under test (DESIGN.md §8): a replication request is encoded
// exactly once at the switch, chain replicas forward the same bytes after
// patching header fields in place, and hop-to-hop packet forwarding never
// duplicates payload bytes.  The Buffer instrumentation counters make any
// regression (an accidental re-encode or deep copy on the forwarding path)
// an immediate test failure instead of a silent slowdown.
#include <gtest/gtest.h>

#include "core/protocol.h"
#include "net/buffer.h"
#include "net/codec.h"
#include "tests/rig.h"

namespace redplane {
namespace {

// --- Buffer/BufferView unit coverage ---------------------------------------

TEST(BufferTest, CopyAndSliceShareBackingStore) {
  std::vector<std::byte> bytes(64, std::byte{0x5c});
  net::BufferView v(std::move(bytes));  // adopts, no copy
  net::BufferView copy = v;
  net::BufferView slice = v.Slice(8, 16);
  EXPECT_EQ(copy.data(), v.data());
  EXPECT_EQ(slice.data(), v.data() + 8);
  EXPECT_EQ(slice.size(), 16u);
  EXPECT_EQ(v.Prefix(1000).size(), 64u);  // Prefix clamps
}

TEST(BufferTest, PatchInPlaceWhenUniqueCopiesWhenShared) {
  std::vector<std::byte> bytes(32, std::byte{0});
  net::BufferView unique_view(std::move(bytes));
  net::Buffer::ResetCounters();
  unique_view.PatchU16(4, 0xBEEF);  // sole owner: in place
  EXPECT_EQ(net::Buffer::DeepCopies(), 0u);
  EXPECT_EQ(unique_view.U16At(4), 0xBEEF);

  net::BufferView shared = unique_view;  // now two owners
  shared.PatchU16(4, 0x1234);            // must copy-on-write
  EXPECT_EQ(net::Buffer::DeepCopies(), 1u);
  EXPECT_EQ(shared.U16At(4), 0x1234);
  EXPECT_EQ(unique_view.U16At(4), 0xBEEF);  // original undisturbed
}

TEST(BufferTest, PacketCopySharesPayload) {
  net::FlowKey f{net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2), 7, 8,
                 net::IpProto::kUdp};
  net::Packet pkt = net::MakeUdpPacket(f, 0);
  pkt.payload = std::vector<std::byte>(256, std::byte{0xab});
  net::Buffer::ResetCounters();
  net::Packet hop1 = pkt;  // what every link/pipeline hop does
  net::Packet hop2 = hop1;
  EXPECT_EQ(hop2.payload.data(), pkt.payload.data());
  EXPECT_EQ(net::Buffer::DeepCopies(), 0u);
  EXPECT_EQ(net::Buffer::Allocations(), 0u);
}

// --- End-to-end: multi-hop write replication -------------------------------

net::FlowKey TheFlow() {
  return {testing::kSrcIp, testing::kDstIp, 1000, 80, net::IpProto::kUdp};
}

/// Sends `n` packets paced 1 ms apart.  Every packet of the rig's counter
/// app mutates the flow's state, so each leaves the switch as a replication
/// request with the output piggybacked (the paper's linearizable write
/// path).
void SendPaced(testing::Rig& h, int n) {
  for (int i = 0; i < n; ++i) {
    h.src->Send(net::MakeUdpPacket(TheFlow(), 20));
    h.Run(Milliseconds(1));
  }
}

struct WriteCosts {
  std::uint64_t encodes = 0;
  std::uint64_t deep_copies = 0;
};

/// Runs `writes` steady-state writes through a chain of `chain_size` and
/// returns the protocol-encode and byte-copy counts they incurred.
WriteCosts MeasureWrites(int chain_size, int writes) {
  // One RedPlane switch (seed 7) against a fixed store chain; a 5 ms
  // request timeout leaves no room for spurious retransmits.
  testing::Rig h({.seed = 7,
                  .switches = 1,
                  .stores = chain_size,
                  .chain = true,
                  .rp = {.lease_period = Seconds(2),
                         .renew_interval = Seconds(1),
                         .request_timeout = Milliseconds(5)}});
  // Warm up: lease acquisition plus the first write settle out of band.
  SendPaced(h, 2);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(20));
  EXPECT_EQ(h.delivered, 2);

  core::ResetEncodeCount();
  net::Buffer::ResetCounters();
  SendPaced(h, writes);
  h.sim.RunUntil(h.sim.Now() + Milliseconds(50));
  EXPECT_EQ(h.delivered, 2 + writes);
  // Every write is durable at every replica before its output released.
  const auto key = net::PartitionKey::OfFlow(TheFlow());
  for (auto* replica : h.stores) {
    const auto* rec = replica->Find(key);
    EXPECT_NE(rec, nullptr);
    if (rec != nullptr) {
      EXPECT_EQ(rec->last_applied_seq, static_cast<std::uint64_t>(2 + writes));
    }
  }
  return {core::EncodeCount(), net::Buffer::DeepCopies()};
}

TEST(ZeroCopyWriteTest, OneEncodePerRequestZeroPerForward) {
  constexpr int kWrites = 10;
  const WriteCosts single = MeasureWrites(1, kWrites);
  const WriteCosts chain3 = MeasureWrites(3, kWrites);

  // Exactly two encodes per write — the request (once, at the switch) and
  // the tail's ack.  Replicas forward patched views, never re-encoding, so
  // the count is independent of chain length.
  EXPECT_EQ(single.encodes, 2u * kWrites);
  EXPECT_EQ(chain3.encodes, 2u * kWrites);

  // The only byte copy per write is the mirror's truncated retransmit copy
  // (header + state, never the piggybacked output).  Forwarding through two
  // extra replicas adds zero copies.
  EXPECT_EQ(single.deep_copies, static_cast<std::uint64_t>(kWrites));
  EXPECT_EQ(chain3.deep_copies, static_cast<std::uint64_t>(kWrites));
}

}  // namespace
}  // namespace redplane
