// Consistency-mode spectrum tests (DESIGN.md §14).
//
// Covers the consistency spec end to end:
//  * spec resolution from StateTraits and the deployment's pin (and the safe
//    fallbacks when an app elects a mode it cannot run),
//  * the offline per-mode oracles (bounded staleness, merge convergence),
//  * the A/B pin: selecting single-owner explicitly produces byte-identical
//    traces to the default path — resolving the spec must not perturb the
//    paper's protocol,
//  * replicated-read end to end: reads served locally within the staleness
//    bound while writes are in flight, replica subscription at grant, and
//    store pushes keeping a standby switch's copy warm,
//  * mergeable end to end: zero-RTT writes on two switches concurrently,
//    with the store converging to the join of both contributions,
//  * the mode-aware monitors on live traffic: clean runs silent, the
//    stale-read mutation caught by bounded_staleness, the overwrite
//    mutation caught by merge_convergence.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/counter.h"
#include "apps/kv_store.h"
#include "audit/auditor.h"
#include "bench/harness.h"
#include "core/consistency.h"
#include "core/redplane_switch.h"
#include "modelcheck/linearizability.h"
#include "net/codec.h"
#include "tests/rig.h"

namespace redplane {
namespace {

using core::ConsistencyMode;
using core::StateTraits;

using testing::kDstIp;
using testing::kSrcIp;
using testing::kSw2Ip;
using testing::Rig;

// ------------------------------------------------ spec resolution --------

TEST(ConsistencyPolicyTest, DefaultTraitsResolveToSingleOwner) {
  const StateTraits spec = core::ResolveSpec(StateTraits{}, std::nullopt,
                                             /*snapshottable=*/false);
  EXPECT_EQ(spec.mode, ConsistencyMode::kSingleOwner);
  // No local reads under single-owner: the bound is zero.
  EXPECT_EQ(spec.staleness_bound, 0);
  EXPECT_EQ(spec.merge_interval, 0);
}

TEST(ConsistencyPolicyTest, ReplicatedReadAllowsReadsWithinBound) {
  StateTraits traits;
  traits.mode = ConsistencyMode::kReplicatedRead;
  traits.staleness_bound = Microseconds(500);
  const StateTraits spec = core::ResolveSpec(traits, std::nullopt,
                                             /*snapshottable=*/false);
  EXPECT_EQ(spec.mode, ConsistencyMode::kReplicatedRead);
  // The switch serves a read locally iff staleness <= the resolved bound.
  EXPECT_EQ(spec.staleness_bound, Microseconds(500));
  EXPECT_LE(Microseconds(499), spec.staleness_bound);
  EXPECT_LE(Microseconds(500), spec.staleness_bound);
  EXPECT_GT(Microseconds(501), spec.staleness_bound);
}

TEST(ConsistencyPolicyTest, MergeableUsesDeclaredJoin) {
  StateTraits traits;
  traits.mode = ConsistencyMode::kMergeable;
  traits.merge = core::MergeMaxU64;
  traits.measure = core::MeasureU64;
  traits.merge_interval = Microseconds(50);
  const StateTraits spec = core::ResolveSpec(traits, std::nullopt,
                                             /*snapshottable=*/false);
  EXPECT_EQ(spec.mode, ConsistencyMode::kMergeable);
  EXPECT_EQ(spec.merge_interval, Microseconds(50));
  ASSERT_EQ(spec.merge, core::MergeMaxU64);
  ASSERT_EQ(spec.measure, core::MeasureU64);
  // States use the apps' native encoding (core::SetState).
  std::vector<std::byte> into, delta;
  core::SetState(into, std::uint64_t{3});
  core::SetState(delta, std::uint64_t{7});
  spec.merge(into, std::span<const std::byte>(delta));
  EXPECT_EQ(core::StateAs<std::uint64_t>(into).value_or(0), 7u);
  EXPECT_EQ(spec.measure(std::span<const std::byte>(into)), 7.0);
}

TEST(ConsistencyPolicyTest, MergeableWithoutJoinFallsBackToSingleOwner) {
  // Electing multi-writer mode without saying how writes merge would lose
  // updates silently; the resolver refuses and keeps the strong mode.
  StateTraits traits;
  traits.mode = ConsistencyMode::kMergeable;
  const StateTraits spec = core::ResolveSpec(traits, std::nullopt,
                                             /*snapshottable=*/false);
  EXPECT_EQ(spec.mode, ConsistencyMode::kSingleOwner);
  EXPECT_EQ(spec.merge_interval, 0);
}

TEST(ConsistencySpecTest, ResolvesEveryModeDeclaredAndPinned) {
  using Mode = ConsistencyMode;
  constexpr SimDuration kBound = Microseconds(500);
  constexpr SimDuration kInterval = Microseconds(50);
  struct Case {
    const char* what;
    StateTraits declared;
    std::optional<Mode> pin;
    bool snapshottable;
    Mode mode;
    SimDuration bound;     // resolved staleness_bound
    SimDuration interval;  // resolved merge_interval
  };
  const StateTraits join{.merge = core::MergeMaxU64,
                         .measure = core::MeasureU64};
  // Every declaration carries a bound and an interval: only the mode they
  // belong to keeps them.  The bound is read into kLocalReadServed's aux,
  // so it must be zero outside replicated-read.
  const auto with = [&](Mode mode, SimDuration bound, SimDuration interval) {
    StateTraits t = join;
    t.mode = mode;
    t.staleness_bound = bound;
    t.merge_interval = interval;
    return t;
  };
  const Case cases[] = {
      {"default", {}, std::nullopt, false, Mode::kSingleOwner, 0, 0},
      {"single-owner declared", with(Mode::kSingleOwner, kBound, kInterval),
       std::nullopt, false, Mode::kSingleOwner, 0, 0},
      {"replicated-read declared",
       with(Mode::kReplicatedRead, kBound, kInterval), std::nullopt, false,
       Mode::kReplicatedRead, kBound, 0},
      {"replicated-read, default bound", with(Mode::kReplicatedRead, 0, 0),
       std::nullopt, false, Mode::kReplicatedRead,
       core::kDefaultStalenessBound, 0},
      {"mergeable declared", with(Mode::kMergeable, kBound, kInterval),
       std::nullopt, false, Mode::kMergeable, 0, kInterval},
      {"mergeable, default interval", with(Mode::kMergeable, 0, 0),
       std::nullopt, false, Mode::kMergeable, 0, core::kDefaultMergeInterval},
      {"snapshot declared", with(Mode::kSnapshot, kBound, kInterval),
       std::nullopt, true, Mode::kSnapshot, 0, 0},
      {"pinned single-owner over replicated-read",
       with(Mode::kReplicatedRead, kBound, kInterval), Mode::kSingleOwner,
       false, Mode::kSingleOwner, 0, 0},
      {"pinned replicated-read over single-owner",
       with(Mode::kSingleOwner, 0, kInterval), Mode::kReplicatedRead, false,
       Mode::kReplicatedRead, core::kDefaultStalenessBound, 0},
      {"pinned mergeable over snapshot", with(Mode::kSnapshot, kBound, 0),
       Mode::kMergeable, true, Mode::kMergeable, 0,
       core::kDefaultMergeInterval},
      {"pinned snapshot over single-owner", with(Mode::kSingleOwner, 0, 0),
       Mode::kSnapshot, true, Mode::kSnapshot, 0, 0},
      // Electing multi-writer mode without saying how writes merge would
      // lose updates silently: the resolver keeps the strong mode.
      {"mergeable without a join falls back",
       {.mode = Mode::kMergeable, .merge_interval = kInterval}, std::nullopt,
       false, Mode::kSingleOwner, 0, 0},
      {"pinned mergeable without a join falls back", {}, Mode::kMergeable,
       false, Mode::kSingleOwner, 0, 0},
      // Snapshot replication needs the app's snapshot interface.
      {"snapshot without Snapshottable falls back",
       with(Mode::kSnapshot, kBound, kInterval), std::nullopt, false,
       Mode::kSingleOwner, 0, 0},
      {"pinned snapshot without Snapshottable falls back", {}, Mode::kSnapshot,
       false, Mode::kSingleOwner, 0, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const StateTraits spec = core::ResolveSpec(c.declared, c.pin,
                                               c.snapshottable);
    EXPECT_EQ(spec.mode, c.mode);
    EXPECT_EQ(spec.staleness_bound, c.bound);
    EXPECT_EQ(spec.merge_interval, c.interval);
    // The join travels unchanged: the store reads it from the spec.
    EXPECT_EQ(spec.merge, c.declared.merge);
    EXPECT_EQ(spec.measure, c.declared.measure);
  }
}

// ------------------------------------------------ offline oracles --------

TEST(ConsistencyOracleTest, BoundedStalenessAcceptsWithinBoundAndNoContract) {
  std::vector<modelcheck::StalenessSample> samples = {
      {1, 900, 1000},
      {1, 1000, 1000},      // exactly at the bound is legal
      {2, 5'000'000, 0},    // bound 0: no contract (mergeable-style read)
  };
  EXPECT_TRUE(modelcheck::CheckBoundedStaleness(samples));
}

TEST(ConsistencyOracleTest, BoundedStalenessRejectsBeyondBound) {
  std::vector<modelcheck::StalenessSample> samples = {{7, 1500, 1000}};
  std::string why;
  EXPECT_FALSE(modelcheck::CheckBoundedStaleness(samples, &why));
  EXPECT_NE(why.find("1500"), std::string::npos);
}

TEST(ConsistencyOracleTest, MergeConvergenceAcceptsMonotoneMeasures) {
  std::vector<modelcheck::MergeSample> samples = {
      {1, 42, 1.0}, {1, 42, 3.0}, {2, 42, 2.0}, {1, 42, 3.0}, {2, 42, 9.0},
  };
  EXPECT_TRUE(modelcheck::CheckMergeConvergence(samples));
}

TEST(ConsistencyOracleTest, MergeConvergenceRejectsLatticeDescent) {
  std::vector<modelcheck::MergeSample> samples = {
      {1, 42, 5.0}, {1, 42, 3.0},  // an overwrite erased a contribution
  };
  std::string why;
  EXPECT_FALSE(modelcheck::CheckMergeConvergence(samples, &why));
  EXPECT_NE(why.find("lattice"), std::string::npos);
}

net::FlowKey TheFlow() {
  return {kSrcIp, kDstIp, 1000, 80, net::IpProto::kUdp};
}

// ------------------------------------------------ A/B bit-identity -------

/// Runs the same single-owner counter scenario and returns the full trace
/// export.  `explicit_override` pins the mode instead of relying on the
/// app's default resolution.
std::string RunSingleOwnerScenario(bool explicit_override) {
  apps::SyncCounterApp app;
  core::RedPlaneConfig rp_cfg;
  rp_cfg.lease_period = Milliseconds(5);
  rp_cfg.renew_interval = Milliseconds(2);
  if (explicit_override) {
    rp_cfg.mode_override = ConsistencyMode::kSingleOwner;
  }
  Rig h(app, {.seed = 7, .rp = rp_cfg, .audit = true});

  for (int i = 0; i < 20; ++i) {
    // Alternate switches so grants, migrations, and buffering all appear
    // in the trace being pinned.
    h.src->SendTo(i % 3 == 2 ? 1 : 0, net::MakeUdpPacket(TheFlow(), 20));
    h.Run(Microseconds(300));
  }
  h.sim.Run();
  return h.tracer.ChromeTraceJson();
}

TEST(ConsistencyAbTest, SingleOwnerTracesBitIdenticalUnderExplicitSelection) {
  // Pinning the mode a deployment would resolve anyway must not change a
  // single emitted event.  Default resolution (the
  // app declares single-owner) and explicit selection run the identical
  // deterministic scenario; their trace exports must match byte for byte.
  const std::string default_trace = RunSingleOwnerScenario(false);
  const std::string selected_trace = RunSingleOwnerScenario(true);
  EXPECT_GT(default_trace.size(), 1000u) << "scenario produced no trace";
  EXPECT_EQ(default_trace, selected_trace);
}

// ------------------------------------------------ replicated-read --------

net::FlowKey KvFlow(std::uint16_t src_port = 3333) {
  return {kSrcIp, kDstIp, src_port, apps::kKvUdpPort, net::IpProto::kUdp};
}

TEST(ReplicatedReadTest, ReadsServedLocallyWhileWritesInFlight) {
  apps::KvStoreApp app;  // declares replicated-read with the default bound
  core::RedPlaneConfig rp_cfg;
  rp_cfg.lease_period = Milliseconds(5);
  Rig h(app, {.seed = 7, .rp = rp_cfg});
  // KV replies flow back toward the client, so count them at src.
  int replies = 0;
  std::vector<std::byte> last_reply;
  h.src->SetHandler([&](sim::HostNode&, net::Packet pkt) {
    ++replies;
    last_reply = pkt.payload.ToVector();
  });

  ASSERT_EQ(h.rp[0]->spec().mode, ConsistencyMode::kReplicatedRead);

  // Warm up: one write acquires the lease and installs state.
  h.src->SendTo(0, apps::MakeKvPacket(KvFlow(), {apps::KvOp::kUpdate, 7, 1}));
  h.Run(Milliseconds(1));
  const int after_warmup = replies;

  // A write immediately followed by reads: the write's replication is in
  // flight, so single-owner would loop the reads through the store.  The
  // replicated-read mode serves them locally (staleness is a few µs,
  // far under the 1 ms default bound) and releases them at once.
  h.src->SendTo(0, apps::MakeKvPacket(KvFlow(), {apps::KvOp::kUpdate, 7, 2}));
  h.src->SendTo(0, apps::MakeKvPacket(KvFlow(), {apps::KvOp::kRead, 7, 0}));
  h.src->SendTo(0, apps::MakeKvPacket(KvFlow(), {apps::KvOp::kRead, 7, 0}));
  h.Run(Microseconds(50));  // less than one switch->store round trip
  EXPECT_GE(h.rp[0]->stats().Get("local_reads_served"), 2.0);
  EXPECT_GE(replies, after_warmup + 2);  // reads did not wait for the ack

  h.sim.Run();
  // The local reads returned the freshest local value (the new write).
  net::ByteReader r(last_reply);
  r.U8();
  EXPECT_EQ(r.U64(), 7u);
  EXPECT_EQ(r.U64(), 2u);
}

TEST(ReplicatedReadTest, GrantRegistersSubscriberAndPushesOnWrites) {
  apps::KvStoreApp app;
  core::RedPlaneConfig rp_cfg;
  rp_cfg.lease_period = Milliseconds(2);
  rp_cfg.renew_interval = Milliseconds(1);
  Rig h(app, {.seed = 7, .rp = rp_cfg});

  // sw2 owns the flow first and subscribes at grant install.
  h.src->SendTo(1, apps::MakeKvPacket(KvFlow(), {apps::KvOp::kUpdate, 9, 5}));
  h.Run(Milliseconds(1));
  const auto* rec = h.stores[0]->Find(*app.KeyOf(
      apps::MakeKvPacket(KvFlow(), {apps::KvOp::kRead, 9, 0})));
  ASSERT_NE(rec, nullptr);
  ASSERT_TRUE(rec->mode);
  ASSERT_EQ(rec->mode->subscribers.size(), 1u);
  EXPECT_EQ(rec->mode->subscribers[0], kSw2Ip);

  // Let sw2's lease lapse, then move the writer to sw1.  Each write sw1
  // replicates is pushed to the subscribed sw2, keeping its copy warm.
  h.Run(Milliseconds(3));
  h.src->SendTo(0, apps::MakeKvPacket(KvFlow(), {apps::KvOp::kUpdate, 9, 6}));
  h.sim.Run();
  EXPECT_GE(h.rp[1]->stats().Get("replica_pushes_rx"), 1.0);
  const auto entry = h.rp[1]->flow_table().Find(*app.KeyOf(
      apps::MakeKvPacket(KvFlow(), {apps::KvOp::kRead, 9, 0})));
  ASSERT_TRUE(entry);
  const auto kv = core::StateAs<std::uint64_t>(entry.state());
  ASSERT_TRUE(kv.has_value());
  EXPECT_EQ(*kv, 6u);
}

// ------------------------------------------------ mergeable --------------

TEST(MergeableTest, ZeroRttWritesOnTwoSwitchesConvergeAtStore) {
  apps::SyncCounterApp app;
  core::RedPlaneConfig rp_cfg;
  rp_cfg.mode_override = ConsistencyMode::kMergeable;
  Rig h(app, {.seed = 7, .rp = rp_cfg, .audit = true});

  ASSERT_EQ(h.rp[0]->spec().mode, ConsistencyMode::kMergeable);

  // Both switches carry the same flow concurrently — illegal under a lease,
  // the design point here.  Every packet must release without any store
  // round trip.
  for (int i = 0; i < 10; ++i) {
    h.src->SendTo(i % 2, net::MakeUdpPacket(TheFlow(), 20));
    h.Run(Microseconds(10));
  }
  // All 10 outputs released while the first merge tick (100 µs) is still
  // pending: zero-RTT confirmed by construction.
  EXPECT_EQ(h.delivered, 10);
  h.sim.Run();

  // Both switches pushed deltas; the store converged to the join.  Each
  // switch counted its own 5 packets, so the max-join holds 5 — the
  // documented accuracy trade of mergeable counters under concurrent
  // writers (a per-switch-keyed counter would keep both).
  EXPECT_GE(h.rp[0]->stats().Get("merge_deltas_sent"), 1.0);
  EXPECT_GE(h.rp[1]->stats().Get("merge_deltas_sent"), 1.0);
  const auto* rec = h.stores[0]->Find(net::PartitionKey::OfFlow(TheFlow()));
  ASSERT_NE(rec, nullptr);
  std::uint64_t stored = 0;
  std::memcpy(&stored, rec->state.data(),
              std::min<std::size_t>(8, rec->state.size()));
  EXPECT_EQ(stored, 5u);

  // Clean mergeable traffic trips no monitor: the admission records exempted
  // the key from single-owner, and the merge measures only went up.
  EXPECT_EQ(h.auditor.violations().size(), 0u);
}

TEST(MergeableTest, DeploymentStoresJoinWithTheAppsDeclaredMerge) {
  // A figure-bench deployment pins mergeable mode and sets no store
  // option: every replica must still join deltas with the app's merge.
  // agg0 counts 7 packets and pushes; later agg1, which never saw the
  // flow, counts 3 and pushes.  A store that overwrote would end at 3.
  apps::SyncCounterApp app;
  bench::Deployment d;
  d.Build();
  core::RedPlaneConfig rp_cfg;
  rp_cfg.mode_override = ConsistencyMode::kMergeable;
  d.DeployRedPlane(app, rp_cfg);
  sim::Simulator& sim = d.sim();
  routing::Testbed& tb = d.testbed();
  const net::FlowKey flow{routing::ExternalHostIp(0),
                          routing::RackServerIp(0, 0), 1234, 80,
                          net::IpProto::kUdp};
  const auto inject = [&](int agg, int packets) {
    for (int i = 0; i < packets; ++i) {
      tb.agg[agg]->HandlePacket(net::MakeUdpPacket(flow, 0), 0);
      sim.RunUntil(sim.Now() + Microseconds(5));
    }
    sim.RunUntil(sim.Now() + Milliseconds(1));  // merge tick + chain + ack
  };
  inject(0, 7);
  inject(1, 3);
  EXPECT_GE(d.redplane(1)->stats().Get("merge_deltas_sent"), 1.0);
  ASSERT_EQ(tb.store.size(), 3u);
  for (const store::StateStoreServer* replica : tb.store) {
    SCOPED_TRACE(replica->name());
    const auto* rec = replica->Find(net::PartitionKey::OfFlow(flow));
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(core::StateAs<std::uint64_t>(rec->state).value_or(0), 7u);
  }
}

TEST(MergeableTest, OverwriteMutationTripsMergeConvergenceMonitor) {
  apps::SyncCounterApp app;
  core::RedPlaneConfig rp_cfg;
  rp_cfg.mode_override = ConsistencyMode::kMergeable;
  Rig h(app, {.seed = 7,
              .rp = rp_cfg,
              .head_mutations = {.overwrite_instead_of_merge = true},
              .audit = true});

  // Imbalanced concurrent writers: sw1 counts fast, sw2 slowly.  Under the
  // mutation, sw2's smaller delta overwrites sw1's larger contribution at
  // the store, so the merged measure decreases — merge_convergence fires.
  for (int i = 0; i < 30; ++i) {
    h.src->SendTo(i % 5 == 4 ? 1 : 0, net::MakeUdpPacket(TheFlow(), 20));
    h.Run(Microseconds(40));
  }
  h.sim.Run();
  EXPECT_GE(h.auditor.ViolationCount("merge_convergence"), 1u);
}

// ------------------------------------------------ staleness mutation -----

/// The KV store with a tight, honest 50 µs staleness contract.
class TightKvStoreApp : public apps::KvStoreApp {
 public:
  core::StateTraits Traits() const override {
    core::StateTraits t = KvStoreApp::Traits();
    t.staleness_bound = Microseconds(50);
    return t;
  }
};

TEST(ReplicatedReadTest, StaleReadMutationTripsBoundedStalenessMonitor) {
  TightKvStoreApp app;
  core::RedPlaneConfig rp_cfg;
  rp_cfg.lease_period = Milliseconds(5);
  rp_cfg.mutation_stale_reads = true;  // the switch ignores the contract
  rp_cfg.request_timeout = Milliseconds(2);
  store::StoreConfig store_cfg;
  // Slow the store so write acks lag and local reads grow stale.
  store_cfg.service_time = Microseconds(400);
  Rig h(app, {.seed = 7, .rp = rp_cfg, .store = store_cfg, .audit = true});

  h.src->SendTo(0, apps::MakeKvPacket(KvFlow(), {apps::KvOp::kUpdate, 1, 1}));
  h.Run(Milliseconds(1));
  // Pile writes so acks stay outstanding, then keep reading: staleness of
  // the local serve climbs past 50 µs while the mutation serves anyway.
  for (int i = 0; i < 8; ++i) {
    h.src->SendTo(0, apps::MakeKvPacket(
                         KvFlow(), {apps::KvOp::kUpdate, 1, 2 + (unsigned)i}));
  }
  for (int i = 0; i < 6; ++i) {
    h.Run(Microseconds(100));
    h.src->SendTo(0, apps::MakeKvPacket(KvFlow(), {apps::KvOp::kRead, 1, 0}));
  }
  h.sim.Run();
  EXPECT_GE(h.auditor.ViolationCount("bounded_staleness"), 1u);
  // The violation is mode-specific: nothing else fired.
  EXPECT_EQ(h.auditor.ViolationCount("bounded_staleness"),
            h.auditor.violations().size());
}

}  // namespace
}  // namespace redplane
