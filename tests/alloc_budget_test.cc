// Heap allocations per packet on the steady-state paths, counted exactly.
//
// This binary replaces the global operator new with a counting one, so the
// counts cover every allocation the simulator makes (buffers, vectors,
// control blocks), not only those net::Buffer instruments.  The counter is
// plain and per thread: each test resets and reads it only around its
// measured window, on the thread that runs the simulation.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "tests/rig.h"

namespace {
thread_local std::uint64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace redplane {
namespace {

net::FlowKey TheFlow() {
  return {testing::kSrcIp, testing::kDstIp, 1000, 80, net::IpProto::kUdp};
}

/// Options for one switch against `stores` chained stores, with a lease and
/// a renew interval far longer than the measured window (no renewals fall
/// inside it) and a 5 ms request timeout (no spurious retransmits).
testing::RigOptions SteadyRig(int stores) {
  return {.seed = 7,
          .switches = 1,
          .stores = stores,
          .chain = true,
          .rp = {.lease_period = Seconds(2),
                 .renew_interval = Seconds(1),
                 .request_timeout = Milliseconds(5)}};
}

/// Sends `n` packets paced 1 ms apart.  The packets carry only pad bytes,
/// so building them allocates nothing.
void SendPaced(testing::Rig& h, int n) {
  for (int i = 0; i < n; ++i) {
    h.src->Send(net::MakeUdpPacket(TheFlow(), 20));
    h.Run(Milliseconds(1));
  }
}

/// Runs `warmup` packets out of band (lease acquisition, first writes, the
/// tables' and the event pool's growth), then `packets` more, and returns
/// the heap allocations the second batch made.
std::uint64_t AllocationsFor(testing::Rig& h, int warmup, int packets) {
  SendPaced(h, warmup);
  h.Run(Milliseconds(20));
  EXPECT_EQ(h.delivered, warmup);
  t_allocations = 0;
  SendPaced(h, packets);
  h.Run(Milliseconds(20));
  const std::uint64_t allocations = t_allocations;
  EXPECT_EQ(h.delivered, warmup + packets);
  return allocations;
}

TEST(AllocBudgetTest, ReplicatedWriteAllocatesSixTimesAtAnyChainLength) {
  constexpr int kWrites = 20;
  for (int chain : {1, 3}) {
    SCOPED_TRACE(::testing::Message() << "chain of " << chain);
    // Every packet of the rig's counter app is a write: a replication
    // request with the output piggybacked, acked by the tail.
    testing::Rig h(SteadyRig(chain));
    // Per write: the request's encode and the tail's ack encode are one
    // exactly-sized vector plus its shared control block each (4); the
    // mirror's truncated retransmit copy is one more buffer (2).  Replicas
    // apply state in place and forward the same bytes; the ack's piggyback
    // is released as a slice of the ack, with no allocation at all.
    EXPECT_EQ(AllocationsFor(h, 3, kWrites), 6u * kWrites);
  }
}

TEST(AllocBudgetTest, LeaseHoldingReadAllocatesNothing) {
  constexpr int kReads = 20;
  testing::ReadEchoApp app;
  testing::Rig h(app, SteadyRig(3));
  // A read under a live lease runs the app and releases its output at
  // once: no request, no buffer, no allocation.
  EXPECT_EQ(AllocationsFor(h, 3, kReads), 0u);
}

}  // namespace
}  // namespace redplane
