// Microbenchmarks (google-benchmark): the per-packet primitives on the hot
// paths of the simulator and the RedPlane protocol.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "apps/sketch.h"
#include "audit/auditor.h"
#include "core/protocol.h"
#include "core/snapshot.h"
#include "dataplane/register_array.h"
#include "core/app.h"
#include "core/consistency.h"
#include "net/buffer.h"
#include "net/codec.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/tracer.h"
#include "core/flow_table.h"
#include "dataplane/mirror.h"
#include "sim/simulator.h"
#include "sim/timer_wheel.h"

// Process-wide heap-allocation counter, used to prove the steady-state event
// dispatch path allocates nothing (BM_EventDispatchSteadyState).
static std::atomic<std::uint64_t> g_heap_allocs{0};

// The replacements stay out of line: inlined into this file's
// new/delete-expressions, GCC would see malloc'd memory released through a
// matching operator delete as a bare free() and report a mismatch.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

using namespace redplane;

namespace {

net::Packet SamplePacket() {
  net::FlowKey f{net::Ipv4Addr(10, 0, 0, 1), net::Ipv4Addr(192, 168, 10, 1),
                 4321, 1234, net::IpProto::kTcp};
  return net::MakeTcpPacket(f, net::TcpFlags::kAck, 42, 43, 512);
}

void BM_PacketSerialize(benchmark::State& state) {
  const net::Packet pkt = SamplePacket();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::Serialize(pkt));
  }
}
BENCHMARK(BM_PacketSerialize);

void BM_PacketParse(benchmark::State& state) {
  // Adopted once: parsing slices the payload out of these bytes.
  const net::BufferView wire = net::Serialize(SamplePacket());
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::Parse(wire));
  }
}
BENCHMARK(BM_PacketParse);

void BM_ProtocolEncode(benchmark::State& state) {
  core::Msg msg;
  msg.type = core::MsgType::kLeaseRenewReq;
  msg.key = net::PartitionKey::OfFlow(*SamplePacket().Flow());
  msg.seq = 42;
  msg.state.resize(16);
  msg.piggyback = SamplePacket();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::EncodeMsg(msg));
  }
}
BENCHMARK(BM_ProtocolEncode);

void BM_ProtocolDecode(benchmark::State& state) {
  core::Msg msg;
  msg.type = core::MsgType::kLeaseRenewReq;
  msg.key = net::PartitionKey::OfFlow(*SamplePacket().Flow());
  msg.state.resize(16);
  msg.piggyback = SamplePacket();
  const auto bytes = core::EncodeMsg(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::DecodeMsg(bytes));
  }
}
BENCHMARK(BM_ProtocolDecode);

void BM_FlowKeyHash(benchmark::State& state) {
  const auto flow = *SamplePacket().Flow();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::HashFlowKey(flow));
  }
}
BENCHMARK(BM_FlowKeyHash);

void BM_SketchUpdate(benchmark::State& state) {
  apps::CountMinSketch sketch("bm", 3, 64);
  std::uint64_t key = 0;
  for (auto _ : state) {
    dp::PipelinePass pass;
    benchmark::DoNotOptimize(sketch.Update(pass, ++key, 1));
  }
}
BENCHMARK(BM_SketchUpdate);

void BM_LazySnapshotUpdate(benchmark::State& state) {
  core::LazySnapshotter<std::uint32_t> snap("bm", 64);
  std::size_t i = 0;
  for (auto _ : state) {
    dp::PipelinePass pass;
    benchmark::DoNotOptimize(
        snap.Update(pass, i++ % 64, [](std::uint32_t v) { return v + 1; }));
  }
}
BENCHMARK(BM_LazySnapshotUpdate);

// --- Zero-copy message core ------------------------------------------------

// Hop-to-hop packet forwarding: copying a queued packet is a refcount bump on
// the shared payload buffer, not a memcpy of the bytes.
void BM_LinkHopForward(benchmark::State& state) {
  net::Packet pkt = SamplePacket();
  std::vector<std::byte> body(512, std::byte{0xAB});
  pkt.payload = std::move(body);
  for (auto _ : state) {
    net::Packet hop = pkt;  // what each link/pipeline hop does
    benchmark::DoNotOptimize(hop.payload.data());
  }
}
BENCHMARK(BM_LinkHopForward);

// The same hop with the pre-zero-copy payload representation (a value
// vector): every hop memcpys the body.
void BM_LinkHopForwardDeepCopy(benchmark::State& state) {
  net::Packet pkt = SamplePacket();
  std::vector<std::byte> body(512, std::byte{0xAB});
  for (auto _ : state) {
    net::Packet hop = pkt;
    std::vector<std::byte> copied = body;  // what a value payload cost
    hop.payload = std::move(copied);
    benchmark::DoNotOptimize(hop.payload.data());
  }
}
BENCHMARK(BM_LinkHopForwardDeepCopy);

core::Msg SampleChainMsg() {
  core::Msg msg;
  msg.type = core::MsgType::kLeaseRenewReq;
  msg.key = net::PartitionKey::OfFlow(*SamplePacket().Flow());
  msg.seq = 42;
  msg.state.resize(16);
  msg.piggyback = SamplePacket();
  return msg;
}

// A chain replica's per-hop work, zero-copy style: parse a view over the
// received bytes, patch the mutable header field in place, hand the same
// buffer to the successor.
inline void ChainHopForward(net::BufferView& payload) {
  auto v = core::MsgView::Parse(std::move(payload));
  v->SetChainHop(static_cast<std::uint8_t>(v->chain_hop() + 1));
  payload = v->bytes();  // "send": the buffer moves on unchanged
  benchmark::DoNotOptimize(payload.data());
}

void BM_ChainHopForwardZeroCopy(benchmark::State& state) {
  net::BufferView payload{core::EncodeMsg(SampleChainMsg())};
  for (auto _ : state) ChainHopForward(payload);
}
BENCHMARK(BM_ChainHopForwardZeroCopy);

// The same hop the way the code did it before the zero-copy core: fully
// decode the message (materializing state + piggyback), bump the hop count,
// and re-encode everything.
void BM_ChainHopReencode(benchmark::State& state) {
  const net::Buffer payload = core::EncodeMsg(SampleChainMsg());
  for (auto _ : state) {
    auto msg = core::DecodeMsg(payload);
    msg->chain_hop = static_cast<std::uint8_t>(msg->chain_hop + 1);
    benchmark::DoNotOptimize(core::EncodeMsg(*msg));
  }
}
BENCHMARK(BM_ChainHopReencode);

// Wrapping N already-encoded requests into one batch envelope (DESIGN.md
// §10): one length-prefixed memcpy per sub-message, no re-serialization of
// headers, state, or piggybacked packets.
void BM_BatchEncode(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<net::BufferView> subs;
  for (std::size_t i = 0; i < n; ++i) {
    core::Msg msg = SampleChainMsg();
    msg.seq = 42 + i;
    subs.emplace_back(core::EncodeMsg(msg));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::EncodeBatchEnvelope(subs).data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BatchEncode)->Arg(4)->Arg(16);

// A pure chain replica's per-envelope work: parse the envelope, view every
// sub-message in place, and hand the same received bytes to the successor —
// the envelope is never rebuilt and no sub-message is copied or re-encoded.
void BM_BatchChainHop(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<net::BufferView> subs;
  for (std::size_t i = 0; i < n; ++i) {
    core::Msg msg = SampleChainMsg();
    msg.seq = 42 + i;
    msg.chain_hop = 1;  // head-decided
    subs.emplace_back(core::EncodeMsg(msg));
  }
  const net::BufferView frame = net::EncodeBatchEnvelope(subs);
  for (auto _ : state) {
    auto batch = net::BatchView::Parse(frame);
    std::uint64_t applied = 0;
    for (std::size_t i = 0; i < batch->size(); ++i) {
      auto v = core::MsgView::Parse(batch->at(i));
      applied += v->seq();  // stand-in for the local apply
    }
    benchmark::DoNotOptimize(applied);
    benchmark::DoNotOptimize(frame.data());  // "send": same bytes move on
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BatchChainHop)->Arg(4)->Arg(16);

// Steady-state event dispatch: after warm-up the slab free list satisfies
// every Schedule and the inline callable storage absorbs the lambda, so one
// schedule+dispatch round trip performs zero heap allocations.
void BM_EventDispatchSteadyState(benchmark::State& state) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  for (int i = 0; i < 64; ++i) {
    sim.Schedule(i, [&fired]() { ++fired; });
  }
  sim.Run();  // warm the slab, the queue and the free list
  const std::uint64_t allocs_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    sim.Schedule(1, [&fired]() { ++fired; });
    sim.Run();
  }
  const std::uint64_t allocs_after =
      g_heap_allocs.load(std::memory_order_relaxed);
  benchmark::DoNotOptimize(fired);
  state.counters["heap_allocs_per_dispatch"] = benchmark::Counter(
      static_cast<double>(allocs_after - allocs_before) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_EventDispatchSteadyState);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(i, [&fired]() { ++fired; });
    }
    sim.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEventThroughput);


// --- Timing wheel and SoA table primitives ----------------------------------

// O(1) schedule into the hierarchical wheel, across all levels (the delay
// sweeps from one tick to days of simulated time).
void BM_TimerWheelSchedule(benchmark::State& state) {
  sim::TimerWheel wheel;
  std::vector<sim::TimerWheel::Due> drained;
  std::uint64_t seq = 1;
  SimTime t = 2048;  // monotonic: always ahead of the cursor
  std::size_t scheduled = 0;
  for (auto _ : state) {
    wheel.Schedule(t, seq++, 0);
    // Sweep levels 0-3: steps from one tick up to ~2^30 ns.
    t += SimTime(1) << (10 + (seq % 20));
    if (++scheduled == 4096) {
      state.PauseTiming();
      drained.clear();
      wheel.DrainAll(drained);
      scheduled = 0;
      state.ResumeTiming();
    }
  }
  benchmark::DoNotOptimize(wheel.Size());
}
BENCHMARK(BM_TimerWheelSchedule);

// Advance: pop every due slot of a 4096-timer wheel (amortized cascade +
// bitmap scan per slot).
void BM_TimerWheelAdvance(benchmark::State& state) {
  sim::TimerWheel wheel;
  std::vector<sim::TimerWheel::Due> due;
  std::uint64_t seq = 1;
  SimTime base = 0;  // advances past the cursor on every refill
  std::size_t popped = 0;
  for (auto _ : state) {
    if (wheel.Empty()) {
      state.PauseTiming();
      base += 4096 * 131072;
      for (std::uint64_t i = 0; i < 4096; ++i) {
        wheel.Schedule(base + static_cast<SimTime>(i) * 131072, seq++, 0);
      }
      state.ResumeTiming();
    }
    due.clear();
    wheel.PopNextSlot(due);
    popped += due.size();
  }
  benchmark::DoNotOptimize(popped);
  state.SetItemsProcessed(static_cast<std::int64_t>(popped));
}
BENCHMARK(BM_TimerWheelAdvance);

// O(1) cancel via the (idx, seq) slot handle — the ack path's operation.
void BM_TimerWheelCancel(benchmark::State& state) {
  sim::TimerWheel wheel;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> handles;
  std::size_t next = 0;
  std::uint64_t seq = 1;
  SimTime base = 4096;  // cancels never move the cursor, but stay ahead
  for (auto _ : state) {
    if (next == handles.size()) {
      state.PauseTiming();
      handles.clear();
      base += 4096;
      for (int i = 0; i < 4096; ++i, ++seq) {
        const SimTime t = base + (SimTime(i % 24) << 12);
        handles.emplace_back(wheel.Schedule(t, seq, 0), seq);
      }
      next = 0;
      state.ResumeTiming();
    }
    std::uint32_t payload;
    wheel.Cancel(handles[next].first, handles[next].second, &payload);
    ++next;
  }
  benchmark::DoNotOptimize(wheel.Size());
}
BENCHMARK(BM_TimerWheelCancel);

// Per-packet flow lookup against the open-addressed SoA table: digest probe
// + one key compare + one hot-lane read.
void BM_FlowTableLookup(benchmark::State& state) {
  core::FlowTable table;
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint32_t slot =
        table.GetOrCreateSlot(net::PartitionKey::OfObject(i));
    table.set_status(slot, core::FlowStatus::kActive);
    table.set_lease_expiry(slot, Seconds(10));
  }
  std::uint64_t i = 0;
  std::uint64_t live = 0;
  for (auto _ : state) {
    const std::uint32_t slot =
        table.FindSlot(net::PartitionKey::OfObject(i % n));
    live += table.LeaseActive(slot, Seconds(1)) ? 1 : 0;
    i += 7919;  // stride co-prime with n: spread probes across the index
  }
  benchmark::DoNotOptimize(live);
}
BENCHMARK(BM_FlowTableLookup)->Arg(10240)->Arg(1 << 20);

// --- Consistency-spec single-owner A/B (DESIGN.md §14) ---------------------
//
// Reading the resolved StateTraits must not tax the default mode.  Both twins
// run the same single-owner per-packet sequencing core: flow lookup, lease
// check, seq bump on writes, writes-in-flight check on reads (a quarter of
// the flows have an un-acked write pending, so the contended-read branch is
// exercised).  The "Inline" twin has the single-owner decisions hard-wired;
// the "Spec" twin branches on a resolved spec exactly the way RedPlaneSwitch
// does — the spec's mode per packet, and its staleness bound on the
// contended-read path.  BM_SingleOwnerSequencingAB measures the pair in
// alternating short rounds of one benchmark, so a slow spell of the host
// falls on both twins alike; ci/perf_smoke.py gates its median per-round
// ratio at 2% + 0.5 ns.

namespace {

constexpr std::uint64_t kSeqFlows = 1024;
constexpr std::uint64_t kSeqStride = 7919;

void FillSequencingTable(core::FlowTable& table) {
  for (std::uint64_t i = 0; i < kSeqFlows; ++i) {
    const std::uint32_t slot =
        table.GetOrCreateSlot(net::PartitionKey::OfObject(i));
    table.set_status(slot, core::FlowStatus::kActive);
    table.set_lease_expiry(slot, Seconds(10));
    if ((i & 3) == 0) {
      // An un-acked write: reads on this flow hit the in-flight branch.
      table.NoteSend(slot, 1, Seconds(0), Seconds(100));
    }
  }
}

/// One packet through the hard-wired single-owner core.
inline void InlineSequencingStep(core::FlowTable& table, std::uint64_t i,
                                 std::uint64_t& acc) {
  const std::uint32_t slot =
      table.FindSlot(net::PartitionKey::OfObject(i % kSeqFlows));
  if (table.LeaseActive(slot, Seconds(1))) {
    if ((i & 1) != 0) {  // write: bump the sequence (Sync-Counter shape)
      acc += table.NextSeq(slot);
    } else if (table.WritesInFlight(slot)) {
      acc += table.cur_seq(slot);  // read buffers behind the write
    } else {
      ++acc;  // read releases immediately
    }
  }
}

/// The same packet, branching on the resolved spec as RedPlaneSwitch does:
/// the mergeable check comes before the flow lookup, and the snapshot check
/// gates synchronous writes and read buffering.
inline void SpecSequencingStep(core::FlowTable& table,
                               const core::StateTraits& spec, std::uint64_t i,
                               std::uint64_t& acc) {
  if (spec.mode == core::ConsistencyMode::kMergeable) {
    ++acc;  // never taken under single-owner; the branch is the cost
    return;
  }
  const std::uint32_t slot =
      table.FindSlot(net::PartitionKey::OfObject(i % kSeqFlows));
  if (!table.LeaseActive(slot, Seconds(1))) return;
  const bool sync_writes = spec.mode != core::ConsistencyMode::kSnapshot;
  if ((i & 1) != 0 && sync_writes) {
    acc += table.NextSeq(slot);
  } else if (sync_writes && table.WritesInFlight(slot)) {
    if (spec.mode == core::ConsistencyMode::kReplicatedRead &&
        spec.staleness_bound >= 0) {
      ++acc;
    } else {
      acc += table.cur_seq(slot);
    }
  } else {
    ++acc;
  }
}

double Median(std::vector<double> v) {
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

/// An A/B pair measured in one benchmark: each iteration is one round in
/// which `step(twin, i)` runs for items i of the round, 2048 times with
/// twin 0 (the base) and 2048 times with twin 1, base first on even rounds
/// and twin first on odd ones, each side timed on its own, so a slow spell
/// of the host falls on both alike.  Counters: the median per-item time of
/// each (base_ns, twin_ns), and the median over rounds of
/// twin / (base * (1 + slack) + eps_ns) — the gate's budget, met while it
/// stays at or below 1.
template <typename Step>
void RunAlternatingRounds(benchmark::State& state, Step step, double slack,
                          double eps_ns) {
  constexpr std::uint64_t kRoundItems = 2048;
  std::vector<double> ns[2];  // per-round ns per item: base, twin
  std::vector<double> budget_ratio;
  std::uint64_t i = 0;
  for (auto _ : state) {
    const int first = static_cast<int>(budget_ratio.size() & 1);
    for (const int twin : {first, 1 - first}) {
      const auto t0 = std::chrono::steady_clock::now();
      for (std::uint64_t n = 0; n < kRoundItems; ++n) step(twin, i + n);
      const std::chrono::duration<double, std::nano> spent =
          std::chrono::steady_clock::now() - t0;
      ns[twin].push_back(spent.count() / static_cast<double>(kRoundItems));
    }
    budget_ratio.push_back(ns[1].back() /
                           (ns[0].back() * (1.0 + slack) + eps_ns));
    i += kRoundItems;
  }
  state.counters["base_ns"] = Median(ns[0]);
  state.counters["twin_ns"] = Median(ns[1]);
  state.counters["budget_ratio"] = Median(budget_ratio);
}

}  // namespace

/// Runs one twin, one packet per iteration.
template <typename Step>
void RunSequencingTwin(benchmark::State& state, Step step) {
  core::FlowTable table;
  FillSequencingTable(table);
  std::uint64_t i = 0;
  std::uint64_t acc = 0;
  for (auto _ : state) {
    step(table, i, acc);
    i += kSeqStride;
  }
  benchmark::DoNotOptimize(acc);
}

void BM_SingleOwnerSequencingInline(benchmark::State& state) {
  RunSequencingTwin(state, InlineSequencingStep);
}
BENCHMARK(BM_SingleOwnerSequencingInline);

void BM_SingleOwnerSequencingSpec(benchmark::State& state) {
  const core::StateTraits spec =
      core::ResolveSpec({}, std::nullopt, /*snapshottable=*/false);
  RunSequencingTwin(state, [&spec](core::FlowTable& table, std::uint64_t i,
                                   std::uint64_t& acc) {
    SpecSequencingStep(table, spec, i, acc);
  });
}
BENCHMARK(BM_SingleOwnerSequencingSpec);

/// The inline twin (base) against the spec twin, the same packets through
/// each per round; budget 2% + 0.5 ns.
void BM_SingleOwnerSequencingAB(benchmark::State& state) {
  core::FlowTable table;
  FillSequencingTable(table);
  const core::StateTraits spec =
      core::ResolveSpec({}, std::nullopt, /*snapshottable=*/false);
  std::uint64_t acc = 0;
  RunAlternatingRounds(
      state,
      [&](int twin, std::uint64_t i) {
        if (twin == 0) {
          InlineSequencingStep(table, i * kSeqStride, acc);
        } else {
          SpecSequencingStep(table, spec, i * kSeqStride, acc);
        }
      },
      0.02, 0.5);
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_SingleOwnerSequencingAB);

namespace {

/// Builds a mirror table with `n` live entries enqueued at distinct times.
void FillMirror(dp::MirrorTable& mirror, std::uint64_t n) {
  std::vector<std::byte> payload(64);
  for (std::uint64_t i = 0; i < n; ++i) {
    mirror.Mirror(net::PartitionKey::OfObject(i), 1,
                  net::BufferView(std::vector<std::byte>(payload)),
                  static_cast<SimTime>(i));
  }
}

}  // namespace

// The retired design's per-tick cost: walk the WHOLE mirror table comparing
// each entry's last-send time against the timeout — O(table size) even when
// nothing is due.  Kept as the before-twin of BM_MirrorDueScan.
void BM_MirrorFullScan(benchmark::State& state) {
  sim::Simulator sim;
  dp::MirrorTable mirror(sim, "bench", 128);
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  FillMirror(mirror, n);
  const SimTime now = static_cast<SimTime>(n / 2);
  std::size_t due = 0;
  for (auto _ : state) {
    mirror.ForEach([&](dp::MirrorTable::Handle h) {
      if (now - mirror.last_sent_at(h) >= 0) ++due;
    });
  }
  benchmark::DoNotOptimize(due);
}
BENCHMARK(BM_MirrorFullScan)->Arg(10240)->Arg(1 << 20);

// The replacement's per-tick cost: with every entry holding its own wheel
// timer, finding the due set costs O(due entries), independent of how many
// non-due entries sit in the table.  A small rotating set keeps firing
// while `n` timers stay parked — perf_smoke.py guards that time/item at
// n = 1M stays within 10% of n = 10k.
void BM_MirrorDueScan(benchmark::State& state) {
  sim::TimerWheel wheel;
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  // The parked majority: deadlines far beyond the cursor's travel during
  // the measured loop (~4 ticks per pop), so they never fire or cascade —
  // exactly the "not currently due" retransmit population.
  for (std::uint64_t i = 0; i < n; ++i) {
    wheel.Schedule((SimTime(1) << 45) + static_cast<SimTime>(i) * 1024,
                   n + i, 0);
  }
  // The rotating due set: 64 entries near the cursor that keep re-arming
  // ahead of it, modeling the handful of unacked requests whose timers fire.
  std::uint64_t seq = 1;
  for (std::uint64_t i = 0; i < 64; ++i) {
    wheel.Schedule(SimTime(2048) + SimTime(i) * 4096, seq++, 0);
  }
  std::vector<sim::TimerWheel::Due> due;
  std::size_t fired = 0;
  for (auto _ : state) {
    due.clear();
    wheel.PopNextSlot(due);
    for (const auto& d : due) {
      // Re-arm, as the retransmit path does, staying well below the parked
      // set's deadlines.
      wheel.Schedule(d.time + 64 * 4096, seq++, 0);
      ++fired;
    }
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}
BENCHMARK(BM_MirrorDueScan)->Arg(10240)->Arg(1 << 20);

// --- Online auditor overhead -----------------------------------------------

/// The armed-audit state of a campaign run, minus the ring: the standard
/// monitors subscribed to a simulator's tracer whose ring stays disabled.
struct ArmedAuditor {
  ArmedAuditor() {
    auditor.ArmStandardMonitors();
    auditor.Attach(&tracer);
    sim.AttachTracer(tracer);
  }
  obs::Tracer tracer{1};  // the ring stays disabled
  audit::Auditor auditor;
  sim::Simulator sim;
};

// Hop forwarding with the auditor armed (standard monitors subscribed, no
// violations).  Hop paths carry only the armed(ev) guard — subscriber kinds
// are protocol milestones (lease grant, store apply, ack release), never
// per-hop facts — so the armed cost on a hop is two loads and a
// predictable branch.  ci/perf_smoke.py holds this within 5% of
// BM_LinkHopForward.
void BM_LinkHopForwardAuditorArmed(benchmark::State& state) {
  ArmedAuditor armed;
  obs::TraceHandle handle(armed.sim.tracer_slot(), "bench-hop");
  net::Packet pkt = SamplePacket();
  std::vector<std::byte> body(512, std::byte{0xAB});
  pkt.payload = std::move(body);
  for (auto _ : state) {
    net::Packet hop = pkt;
    if (handle.armed(obs::Ev::kLeaseAcquired)) {
      benchmark::DoNotOptimize(&handle);
    }
    benchmark::DoNotOptimize(hop.payload.data());
  }
}
BENCHMARK(BM_LinkHopForwardAuditorArmed);

// Chain-replica hop with the auditor armed: same in-place patch-and-forward
// as BM_ChainHopForwardZeroCopy plus the armed guard.  Its relative gate is
// BM_ChainHopAuditorAB below.
void BM_ChainHopForwardAuditorArmed(benchmark::State& state) {
  ArmedAuditor armed;
  obs::TraceHandle handle(armed.sim.tracer_slot(), "bench-chain");
  net::BufferView payload{core::EncodeMsg(SampleChainMsg())};
  for (auto _ : state) {
    ChainHopForward(payload);
    if (handle.armed(obs::Ev::kLeaseAcquired)) {
      benchmark::DoNotOptimize(&handle);
    }
  }
}
BENCHMARK(BM_ChainHopForwardAuditorArmed);

// The chain-hop pair ci/perf_smoke.py gates: the unarmed hop (base) against
// the auditor-armed one in alternating rounds; budget 5% + 0.5 ns.
void BM_ChainHopAuditorAB(benchmark::State& state) {
  ArmedAuditor armed;
  obs::TraceHandle handle(armed.sim.tracer_slot(), "bench-chain");
  net::BufferView payload{core::EncodeMsg(SampleChainMsg())};
  RunAlternatingRounds(
      state,
      [&](int twin, std::uint64_t) {
        ChainHopForward(payload);
        if (twin == 1 && handle.armed(obs::Ev::kLeaseAcquired)) {
          benchmark::DoNotOptimize(&handle);
        }
      },
      0.05, 0.5);
}
BENCHMARK(BM_ChainHopAuditorAB);

// Hop forwarding with the profiler armed: a stride-256 ProfScope on the hop
// (the discipline per-packet sites like net.serialize use), so 255 of 256
// entries cost one countdown decrement and the 256th pays the two clock
// reads.  ci/perf_smoke.py holds this within 5% of BM_LinkHopForward.
void BM_LinkHopForwardProfilerArmed(benchmark::State& state) {
  obs::Profiler profiler;
  profiler.SetEnabled(true);
  obs::Profiler* prev = obs::SetGlobalProfiler(&profiler);
  static obs::ProfSite site("bench.hop", /*stride=*/256);
  net::Packet pkt = SamplePacket();
  std::vector<std::byte> body(512, std::byte{0xAB});
  pkt.payload = std::move(body);
  for (auto _ : state) {
    obs::ProfScope prof(site);
    net::Packet hop = pkt;
    benchmark::DoNotOptimize(hop.payload.data());
  }
  obs::SetGlobalProfiler(prev);
}
BENCHMARK(BM_LinkHopForwardProfilerArmed);

// Chain-replica hop with the profiler armed: the unarmed hop (base) against
// the same patch-and-forward under a sampled ProfScope, in alternating
// rounds.  ci/perf_smoke.py holds the median round within 5% + 3 ns.
void BM_ChainHopProfilerAB(benchmark::State& state) {
  obs::Profiler profiler;
  profiler.SetEnabled(true);
  obs::Profiler* prev = obs::SetGlobalProfiler(&profiler);
  static obs::ProfSite site("bench.chain_hop", /*stride=*/256);
  net::BufferView payload{core::EncodeMsg(SampleChainMsg())};
  RunAlternatingRounds(
      state,
      [&](int twin, std::uint64_t) {
        if (twin == 1) {
          obs::ProfScope prof(site);
          ChainHopForward(payload);
        } else {
          ChainHopForward(payload);
        }
      },
      0.05, 3.0);
  obs::SetGlobalProfiler(prev);
}
BENCHMARK(BM_ChainHopProfilerAB);

// A full milestone publish: one Emit dispatched synchronously through the
// tracer's subscriber list to all standard monitors.  Same-component lease
// renewals never violate, so this is the steady-state (silent)
// per-milestone cost.
void BM_AuditTapDispatch(benchmark::State& state) {
  ArmedAuditor armed;
  obs::TraceHandle handle(armed.sim.tracer_slot(), "bench-switch");
  for (auto _ : state) {
    if (handle.armed(obs::Ev::kLeaseAcquired)) {
      handle.Emit(obs::Ev::kLeaseAcquired, 0xabcdef0123456789ull, 0, 0.0, 0,
                  0, /*aux=believed expiry*/ 1'000'000'000ull);
    }
  }
  benchmark::DoNotOptimize(armed.auditor.events_seen());
}
BENCHMARK(BM_AuditTapDispatch);

// --- Observability-layer overhead -----------------------------------------

// The default state: no tracer attached / tracing disabled.  A TraceHandle
// emit must cost no more than a couple of loads and a predictable branch.
void BM_TraceEmitDisabled(benchmark::State& state) {
  sim::Simulator sim;
  obs::TraceHandle handle(sim.tracer_slot(), "bench");
  for (auto _ : state) {
    if (handle.armed(obs::Ev::kIngress)) {
      handle.Emit(obs::Ev::kIngress, 0x1234, 1, 64.0);
    }
    benchmark::DoNotOptimize(&handle);
  }
}
BENCHMARK(BM_TraceEmitDisabled);

void BM_TraceEmitEnabled(benchmark::State& state) {
  obs::Tracer tracer(1u << 12);
  tracer.SetEnabled(true);
  sim::Simulator sim;
  sim.AttachTracer(tracer);
  obs::TraceHandle handle(sim.tracer_slot(), "bench");
  std::uint64_t seq = 0;
  for (auto _ : state) {
    if (handle.armed(obs::Ev::kIngress)) {
      handle.Emit(obs::Ev::kIngress, 0x1234, ++seq, 64.0);
    }
  }
  benchmark::DoNotOptimize(tracer.size());
}
BENCHMARK(BM_TraceEmitEnabled);

// Typed handle vs the string-keyed APIs it replaced on the hot path.
void BM_MetricCounterAdd(benchmark::State& state) {
  obs::MetricRegistry registry("bench");
  obs::Counter counter = registry.RegisterCounter("pkts");
  for (auto _ : state) {
    counter.Add();
  }
  benchmark::DoNotOptimize(registry.Get("pkts"));
}
BENCHMARK(BM_MetricCounterAdd);

void BM_MetricRegistryStringAdd(benchmark::State& state) {
  obs::MetricRegistry registry("bench");
  for (auto _ : state) {
    registry.Add("pkts");
  }
  benchmark::DoNotOptimize(registry.Get("pkts"));
}
BENCHMARK(BM_MetricRegistryStringAdd);

void BM_MetricHistogramRecord(benchmark::State& state) {
  obs::MetricRegistry registry("bench");
  obs::Histogram hist = registry.RegisterHistogram("rtt_us");
  double v = 1.0;
  for (auto _ : state) {
    hist.Record(v);
    v = v < 1e6 ? v * 1.1 : 1.0;
  }
  benchmark::DoNotOptimize(hist.Count());
}
BENCHMARK(BM_MetricHistogramRecord);

}  // namespace

BENCHMARK_MAIN();
