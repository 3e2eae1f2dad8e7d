// Randomized whole-protocol property tests.
//
// Each case wires two RedPlane switches, a store, a source and a sink, then
// drives a per-flow counter through an adversarial schedule drawn from the
// seed: random request/ack loss, link reordering jitter, traffic randomly
// shifting between switches, and random fail-stop switch failures and
// recoveries.  At quiescence the invariants the paper proves must hold:
//
//  * per-flow linearizability of the observed output history (Definition 3),
//  * durability: every observed output's count is <= the store's applied
//    sequence number, and no two outputs share a count,
//  * convergence: the mirror buffers drain and the store holds the counter
//    value equal to the number of processed packets.
#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <span>
#include <string>
#include <string_view>

#include "apps/counter.h"
#include "apps/heavy_hitter.h"
#include "apps/spreader.h"
#include "common/rng.h"
#include "core/consistency.h"
#include "modelcheck/linearizability.h"
#include "net/codec.h"
#include "tests/rig.h"

namespace redplane {
namespace {

net::FlowKey TheFlow() {
  return {testing::kSrcIp, testing::kDstIp, 1000, 80, net::IpProto::kUdp};
}

struct FuzzParams {
  std::uint64_t seed;
  double store_loss;
  SimDuration reorder_jitter;
  bool failures;
};

std::string FuzzName(const FuzzParams& p) {
  return "seed" + std::to_string(p.seed) + "_loss" +
         std::to_string(int(p.store_loss * 100)) + "_jit" +
         std::to_string(p.reorder_jitter / 1000) +
         (p.failures ? "_fail" : "_nofail");
}

// gtest's default printer dumps the struct's raw bytes, padding included,
// so the listed test IDs would carry uninitialised memory.
void PrintTo(const FuzzParams& p, std::ostream* os) { *os << FuzzName(p); }

class ProtocolFuzz : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(ProtocolFuzz, AdversarialScheduleStaysLinearizable) {
  const FuzzParams& params = GetParam();
  Rng rng(params.seed);

  sim::LinkConfig lossy;
  lossy.loss_rate = params.store_loss;
  lossy.reorder_jitter = params.reorder_jitter;
  testing::CountingEchoApp app;
  testing::Rig h(app, {.seed = params.seed,
                       .rp = {.lease_period = Milliseconds(2),
                              .renew_interval = Milliseconds(1),
                              .request_timeout = Microseconds(300)},
                       .switch_link = lossy});

  modelcheck::HistoryRecorder history;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> outputs;  // marker, count
  h.on_deliver = [&](const net::Packet& pkt) {
    const auto echo = testing::ParseEcho(pkt);
    if (!echo.has_value()) return;
    history.Output(echo->marker, h.sim.Now(), echo->count);
    outputs.emplace_back(echo->marker, echo->count);
  };

  // The adversarial schedule: 150 packets with random pacing and switch
  // choice; random failure/recovery events interleaved.
  int current_switch = 0;
  bool sw_down[2] = {false, false};
  for (int i = 0; i < 150; ++i) {
    h.Run(static_cast<SimDuration>(rng.Exponential(200'000)));
    // Occasionally flip which switch carries the flow (reroute).
    if (rng.Bernoulli(0.1)) current_switch ^= 1;
    // Occasionally fail/recover a switch.
    if (params.failures && rng.Bernoulli(0.05)) {
      const int victim = static_cast<int>(rng.NextBounded(2));
      dp::SwitchNode* node = h.sw[victim];
      if (sw_down[victim]) {
        node->SetUp(true);
        sw_down[victim] = false;
      } else if (!sw_down[victim ^ 1]) {  // keep one switch alive
        node->SetUp(false);
        sw_down[victim] = true;
      }
    }
    const int use = sw_down[current_switch] ? current_switch ^ 1
                                            : current_switch;
    if (sw_down[use]) continue;  // both down is excluded above
    const auto marker = static_cast<std::uint64_t>(i + 1);
    history.Input(marker, h.sim.Now());
    h.src->SendTo(use == 0 ? 0 : 1, testing::StampedPacket(TheFlow(), marker));
  }

  // Recover everything and let the system quiesce (retransmissions drain).
  if (sw_down[0]) h.sw[0]->SetUp(true);
  if (sw_down[1]) h.sw[1]->SetUp(true);
  h.Run(Milliseconds(200));
  h.sim.Run();

  // --- Invariants ---
  std::string why;
  EXPECT_TRUE(modelcheck::CheckCounterLinearizable(history.Sorted(), &why))
      << "seed " << params.seed << ": " << why;

  const auto* rec = h.stores[0]->Find(net::PartitionKey::OfFlow(TheFlow()));
  ASSERT_NE(rec, nullptr);
  std::set<std::uint64_t> counts;
  for (const auto& [id, count] : outputs) {
    EXPECT_TRUE(counts.insert(count).second)
        << "duplicate count " << count << " (seed " << params.seed << ")";
    EXPECT_LE(count, rec->last_applied_seq);
  }

  // Mirror buffers drained (every surviving request eventually acked or
  // abandoned with its flow).
  EXPECT_EQ(h.sw[0]->mirror().NumEntries(), 0u) << "seed " << params.seed;
  EXPECT_EQ(h.sw[1]->mirror().NumEntries(), 0u) << "seed " << params.seed;

  // The durable count equals each live switch's view of the flow.
  for (const auto& rp : h.rp) {
    const auto entry =
        rp->flow_table().Find(net::PartitionKey::OfFlow(TheFlow()));
    if (entry && entry.has_state()) {
      EXPECT_LE(entry.last_acked_seq(), rec->last_applied_seq);
    }
  }
}

std::vector<FuzzParams> MakeParams() {
  std::vector<FuzzParams> params;
  // Loss x jitter x failures grid, several seeds each.
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 5ull, 8ull, 13ull}) {
    params.push_back({seed, 0.0, 0, true});
    params.push_back({seed + 100, 0.05, Microseconds(5), false});
    params.push_back({seed + 200, 0.15, Microseconds(10), true});
    params.push_back({seed + 300, 0.0, Microseconds(20), true});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Schedules, ProtocolFuzz,
                         ::testing::ValuesIn(MakeParams()),
                         [](const auto& info) { return FuzzName(info.param); });

// ------------------- merge-law property tests (DESIGN.md §14) -------------
//
// Mergeable mode is only safe if every declared StateTraits::merge is a
// join-semilattice operation: commutative, associative, and idempotent.
// Idempotence is what makes retransmitted or replayed deltas (including a
// full resync replay after store failover) harmless — re-merging bytes the
// store already folded in must be a no-op.  These tests check the laws on
// randomized states shaped like each app's actual encoding.

/// One mergeable app's declared join plus a generator of random states in
/// that app's wire encoding.
struct MergeLawCase {
  const char* name;
  core::MergeFn merge;
  core::MeasureFn measure;
  std::vector<std::byte> (*gen)(Rng& rng);
};

// gtest's default printer dumps the struct's raw bytes, which include the
// (ASLR-randomised) address of `name`; test IDs listed by
// --gtest_list_tests would then change on every run.
void PrintTo(const MergeLawCase& c, std::ostream* os) { *os << c.name; }

std::vector<std::byte> GenCounterState(Rng& rng) {
  // SyncCounter/AsyncCounter: one LE u64 (occasionally absent = brand new).
  std::vector<std::byte> state;
  if (rng.Bernoulli(0.1)) return state;
  net::ByteWriter w(state);
  w.U64(rng.NextBounded(1'000'000));
  return state;
}

std::vector<std::byte> GenSketchState(Rng& rng) {
  // HeavyHitter / CountMinSketch slot: one LE u32 counter per row; rows
  // vary so the lane-wise join's length handling is exercised too.
  std::vector<std::byte> state;
  net::ByteWriter w(state);
  const std::size_t rows = 1 + rng.NextBounded(4);
  for (std::size_t i = 0; i < rows; ++i) {
    w.U32(static_cast<std::uint32_t>(rng.NextBounded(100'000)));
  }
  return state;
}

std::vector<std::byte> GenBitmapState(Rng& rng) {
  // Spreader bitmaps / Bloom filter cells: raw bit bytes.
  std::vector<std::byte> state(4 + rng.NextBounded(29));
  for (std::byte& b : state) {
    b = static_cast<std::byte>(rng.NextBounded(256));
  }
  return state;
}

std::vector<std::byte> Join(core::MergeFn merge, std::vector<std::byte> a,
                            const std::vector<std::byte>& b) {
  merge(a, std::span<const std::byte>(b.data(), b.size()));
  return a;
}

class MergeLaws : public ::testing::TestWithParam<MergeLawCase> {};

TEST_P(MergeLaws, CommutativeAssociativeIdempotent) {
  const MergeLawCase& mc = GetParam();
  Rng rng(0x9d1a0000 + std::string_view(mc.name).size());
  for (int trial = 0; trial < 200; ++trial) {
    const auto a = mc.gen(rng);
    const auto b = mc.gen(rng);
    const auto c = mc.gen(rng);
    EXPECT_EQ(Join(mc.merge, a, b), Join(mc.merge, b, a))
        << mc.name << " not commutative (trial " << trial << ")";
    EXPECT_EQ(Join(mc.merge, Join(mc.merge, a, b), c),
              Join(mc.merge, a, Join(mc.merge, b, c)))
        << mc.name << " not associative (trial " << trial << ")";
    EXPECT_EQ(Join(mc.merge, a, a), a)
        << mc.name << " not idempotent (trial " << trial << ")";
    // The measure must be monotone along the join: merging can only move
    // up the lattice (what the merge_convergence monitor checks online).
    EXPECT_GE(mc.measure(std::span<const std::byte>(Join(mc.merge, a, b))),
              mc.measure(std::span<const std::byte>(a)))
        << mc.name << " measure decreased across join (trial " << trial
        << ")";
  }
}

TEST_P(MergeLaws, ReplayAfterFailoverIsIdempotent) {
  // A store replica that failed and resynced replays deltas it may already
  // have folded in: folding a random prefix a second time — in any order —
  // must leave the merged state unchanged.
  const MergeLawCase& mc = GetParam();
  Rng rng(0xfa110000 + std::string_view(mc.name).size());
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::vector<std::byte>> deltas;
    for (int i = 0; i < 8; ++i) deltas.push_back(mc.gen(rng));
    std::vector<std::byte> merged;
    for (const auto& d : deltas) merged = Join(mc.merge, merged, d);
    std::vector<std::byte> replayed = merged;
    const std::size_t replay = 1 + rng.NextBounded(deltas.size());
    for (std::size_t i = 0; i < replay; ++i) {
      const std::size_t pick = rng.NextBounded(deltas.size());
      replayed = Join(mc.merge, replayed, deltas[pick]);
    }
    EXPECT_EQ(replayed, merged)
        << mc.name << ": replaying " << replay
        << " already-merged deltas changed the state (trial " << trial
        << ")";
  }
}

std::vector<MergeLawCase> MakeMergeLawCases() {
  // Pull the joins through the apps' actual declarations so a drifting
  // Traits() (e.g. counter switching to a non-idempotent sum) fails here.
  return {
      {"sync_counter", apps::SyncCounterApp{}.Traits().merge,
       apps::SyncCounterApp{}.Traits().measure, GenCounterState},
      {"async_counter", apps::AsyncCounterApp{}.Traits().merge,
       apps::AsyncCounterApp{}.Traits().measure, GenCounterState},
      {"heavy_hitter", apps::HeavyHitterApp{}.Traits().merge,
       apps::HeavyHitterApp{}.Traits().measure, GenSketchState},
      {"spreader", apps::SpreaderApp{}.Traits().merge,
       apps::SpreaderApp{}.Traits().measure, GenBitmapState},
      // Bloom filters are cell arrays under the same OR-lattice the
      // spreader bitmaps use; exercised against raw bit bytes.
      {"bloom", core::MergeOrBytes, core::MeasurePopcount, GenBitmapState},
  };
}

INSTANTIATE_TEST_SUITE_P(DeclaredMerges, MergeLaws,
                         ::testing::ValuesIn(MakeMergeLawCases()),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace redplane
