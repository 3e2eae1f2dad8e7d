// Online protocol auditor: monitor unit tests, causal-slice extraction,
// tracer orphan-end marking, the linearizability feed, and — the core of
// the suite — mutation-detection tests: each protocol mutation seeded
// behind a test-only hook must be caught by exactly the expected monitor
// with a non-empty happens-before-closed causal slice, while the identical
// clean configuration stays silent.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "audit/auditor.h"
#include "audit/diag.h"
#include "audit/lin_feed.h"
#include "audit/monitors.h"
#include "audit/slice.h"
#include "core/consistency.h"
#include "core/redplane_switch.h"
#include "net/codec.h"
#include "obs/json.h"
#include "obs/tracer.h"
#include "sim/link.h"
#include "tests/audit_diag.h"
#include "tests/rig.h"

namespace redplane {
namespace {

using audit::Auditor;
using obs::Ev;

// ---------------------------------------------------------------------------
// Monitor unit tests: emit records straight into a tracer the auditor
// subscribes to (its ring stays disabled unless a test arms it).

struct AuditorFixture : public ::testing::Test {
  void SetUp() override {
    tracer.SetClock([this] { return now; });
    auditor.ArmStandardMonitors();
    auditor.Attach(&tracer);
    sw1 = tracer.Intern("sw1");
    sw2 = tracer.Intern("sw2");
    store = tracer.Intern("store0");
  }

  /// Emits one record from component `c`.
  void Publish(std::uint16_t c, Ev ev, std::uint64_t key,
               std::uint64_t seq = 0, std::uint64_t aux = 0,
               double value = 0.0) {
    tracer.Emit(c, ev, key, seq, value, 0, 0, aux);
  }

  std::size_t Total() const { return auditor.violations().size(); }

  obs::Tracer tracer;
  Auditor auditor;
  SimTime now = 0;
  std::uint16_t sw1 = 0, sw2 = 0, store = 0;
};

constexpr std::uint64_t kKey = 0xabcdef0123456789ull;

TEST_F(AuditorFixture, SingleOwnerFlagsTwoLiveClaims) {
  now = 100;
  Publish(sw1, Ev::kLeaseAcquired, kKey, 1, /*expiry=*/1'000'000);
  now = 200;
  Publish(sw2, Ev::kLeaseAcquired, kKey, 1, /*expiry=*/2'000'000);
  EXPECT_EQ(auditor.ViolationCount("single_owner"), 1u);
  EXPECT_EQ(Total(), 1u);
  const auto& v = auditor.violations()[0];
  EXPECT_EQ(v.at.flow, kKey);
  EXPECT_NE(v.detail.find("sw1"), std::string::npos);
  EXPECT_NE(v.detail.find("sw2"), std::string::npos);
}

TEST_F(AuditorFixture, SingleOwnerPrunesExpiredClaims) {
  now = 100;
  Publish(sw1, Ev::kLeaseAcquired, kKey, 1, /*expiry=*/500);
  now = 1000;  // sw1's believed expiry has certainly passed
  Publish(sw2, Ev::kLeaseAcquired, kKey, 1, /*expiry=*/5000);
  EXPECT_EQ(Total(), 0u);
}

TEST_F(AuditorFixture, SingleOwnerReleaseAllClearsComponent) {
  now = 100;
  Publish(sw1, Ev::kLeaseAcquired, kKey, 1, /*expiry=*/1'000'000);
  Publish(sw1, Ev::kLeaseReleased, 0);  // key 0: dropped everything
  now = 200;
  Publish(sw2, Ev::kLeaseAcquired, kKey, 1, /*expiry=*/2'000'000);
  EXPECT_EQ(Total(), 0u);
}

TEST_F(AuditorFixture, SingleOwnerSameComponentRenewIsFine) {
  now = 100;
  Publish(sw1, Ev::kLeaseAcquired, kKey, 1, 1'000'000);
  now = 500'000;
  Publish(sw1, Ev::kLeaseAcquired, kKey, 2, 1'500'000);  // renewal
  EXPECT_EQ(Total(), 0u);
}

// --- per-mode monitor subscription (DESIGN.md §14) -------------------------
// Monitors subscribe per consistency mode: a flow admitted under a weaker
// mode must not be judged by a stronger mode's invariant.

TEST_F(AuditorFixture, SingleOwnerSkipsFlowsAdmittedUnderMergeable) {
  const auto mergeable =
      static_cast<std::uint64_t>(core::ConsistencyMode::kMergeable);
  Publish(sw1, Ev::kFlowAdmitted, kKey, 0, mergeable);
  now = 100;
  Publish(sw1, Ev::kLeaseAcquired, kKey, 1, /*expiry=*/1'000'000);
  now = 200;
  Publish(sw2, Ev::kLeaseAcquired, kKey, 1, /*expiry=*/2'000'000);
  // Two concurrent writers are the point of mergeable mode, not a violation.
  EXPECT_EQ(Total(), 0u);
  // The exemption is per-key: an unannounced key still gets the invariant.
  now = 300;
  Publish(sw1, Ev::kLeaseAcquired, kKey + 1, 1, 1'000'000);
  Publish(sw2, Ev::kLeaseAcquired, kKey + 1, 1, 2'000'000);
  EXPECT_EQ(auditor.ViolationCount("single_owner"), 1u);
}

TEST_F(AuditorFixture, SingleOwnerExemptionAppliesToEarlierClaims) {
  // Admission can reach the auditor after a lease claim (records are emitted
  // from different components); the exemption must retroactively drop any
  // holders already recorded for the key.
  now = 100;
  Publish(sw1, Ev::kLeaseAcquired, kKey, 1, /*expiry=*/1'000'000);
  Publish(
      sw2, Ev::kFlowAdmitted, kKey, 0,
      static_cast<std::uint64_t>(core::ConsistencyMode::kMergeable));
  now = 200;
  Publish(sw2, Ev::kLeaseAcquired, kKey, 1, /*expiry=*/2'000'000);
  EXPECT_EQ(Total(), 0u);
}

TEST_F(AuditorFixture, SingleOwnerStillBindsSingleOwnerAdmissions) {
  Publish(
      sw1, Ev::kFlowAdmitted, kKey, 0,
      static_cast<std::uint64_t>(core::ConsistencyMode::kSingleOwner));
  now = 100;
  Publish(sw1, Ev::kLeaseAcquired, kKey, 1, /*expiry=*/1'000'000);
  now = 200;
  Publish(sw2, Ev::kLeaseAcquired, kKey, 1, /*expiry=*/2'000'000);
  EXPECT_EQ(auditor.ViolationCount("single_owner"), 1u);
}

TEST_F(AuditorFixture, BoundedStalenessBindsOnlyReplicatedReadFlows) {
  const auto replicated =
      static_cast<std::uint64_t>(core::ConsistencyMode::kReplicatedRead);
  const auto mergeable =
      static_cast<std::uint64_t>(core::ConsistencyMode::kMergeable);
  // A mergeable flow serves arbitrarily stale local reads legally.
  Publish(sw1, Ev::kFlowAdmitted, kKey, 0, mergeable);
  Publish(sw1, Ev::kLocalReadServed, kKey, 0, /*bound=*/1'000,
                  /*staleness=*/9e12);
  EXPECT_EQ(Total(), 0u);
  // A replicated-read flow with the same staleness violates its contract.
  Publish(sw2, Ev::kFlowAdmitted, kKey + 1, 0, replicated);
  Publish(sw2, Ev::kLocalReadServed, kKey + 1, 0, /*bound=*/1'000,
                  /*staleness=*/2'000.0);
  EXPECT_EQ(auditor.ViolationCount("bounded_staleness"), 1u);
  // Latched per episode: repeat violations don't double-count, recovery
  // re-arms.
  Publish(sw2, Ev::kLocalReadServed, kKey + 1, 0, 1'000, 3'000.0);
  EXPECT_EQ(auditor.ViolationCount("bounded_staleness"), 1u);
  Publish(sw2, Ev::kLocalReadServed, kKey + 1, 0, 1'000, 500.0);
  Publish(sw2, Ev::kLocalReadServed, kKey + 1, 0, 1'000, 2'000.0);
  EXPECT_EQ(auditor.ViolationCount("bounded_staleness"), 2u);
}

TEST_F(AuditorFixture, MergeConvergenceFlagsLatticeRegression) {
  Publish(store, Ev::kMergeApplied, kKey, 1, 0, /*measure=*/5.0);
  Publish(store, Ev::kMergeApplied, kKey, 2, 0, 7.0);
  Publish(store, Ev::kMergeApplied, kKey, 3, 0, 6.0);  // went down
  EXPECT_EQ(auditor.ViolationCount("merge_convergence"), 1u);
  // A store reset re-baselines: the rebuilt state may start lower.
  Publish(store, Ev::kStoreReset, 0);
  Publish(store, Ev::kMergeApplied, kKey, 4, 0, 1.0);
  EXPECT_EQ(auditor.ViolationCount("merge_convergence"), 1u);
}

TEST_F(AuditorFixture, SeqMonotonicFlagsReapply) {
  Publish(store, Ev::kStoreApplied, kKey, 1);
  Publish(store, Ev::kStoreApplied, kKey, 2);
  Publish(store, Ev::kStoreApplied, kKey, 2);  // filter regressed
  EXPECT_EQ(auditor.ViolationCount("seq_monotonic"), 1u);
  EXPECT_EQ(Total(), 1u);
}

TEST_F(AuditorFixture, SeqMonotonicTracksReplicasIndependently) {
  const std::uint16_t replica = tracer.Intern("store1");
  Publish(store, Ev::kStoreApplied, kKey, 5);
  Publish(replica, Ev::kStoreApplied, kKey, 5);  // chain forward
  EXPECT_EQ(Total(), 0u);
}

TEST_F(AuditorFixture, SeqMonotonicForgivesFailStoppedReplica) {
  Publish(store, Ev::kStoreApplied, kKey, 5);
  Publish(store, Ev::kStoreReset, 0);  // DRAM records gone
  Publish(store, Ev::kStoreApplied, kKey, 3);  // resync re-baseline
  EXPECT_EQ(Total(), 0u);
  Publish(store, Ev::kStoreApplied, kKey, 3);  // but still monotonic
  EXPECT_EQ(auditor.ViolationCount("seq_monotonic"), 1u);
}

TEST_F(AuditorFixture, ChainCommitFlagsAckBeforeTailCommit) {
  Publish(sw1, Ev::kAckReleased, kKey, 3);
  EXPECT_EQ(auditor.ViolationCount("chain_commit"), 1u);
  EXPECT_EQ(Total(), 1u);
}

TEST_F(AuditorFixture, ChainCommitSilentAfterTailCommit) {
  Publish(store, Ev::kTailCommit, kKey, 3);
  Publish(sw1, Ev::kAckReleased, kKey, 3);
  EXPECT_EQ(Total(), 0u);
}

TEST_F(AuditorFixture, ChainCommitAcceptsDuplicateAndResyncEvidence) {
  Publish(store, Ev::kDupAckDurable, kKey, 2);
  Publish(sw1, Ev::kAckReleased, kKey, 2);
  Publish(store, Ev::kResyncCommit, kKey, 4);
  Publish(sw1, Ev::kAckReleased, kKey, 4);
  EXPECT_EQ(Total(), 0u);
}

TEST_F(AuditorFixture, ChainCommitIgnoresSeqZeroAcks) {
  Publish(sw1, Ev::kAckReleased, kKey, 0);  // read / lease-only ack
  EXPECT_EQ(Total(), 0u);
}

TEST_F(AuditorFixture, EpsilonBoundLatchesPerEpisode) {
  Publish(sw1, Ev::kEpsilonSample, kKey, 0, /*bound=*/1'000'000,
                  /*staleness=*/2'000'000.0);
  Publish(sw1, Ev::kEpsilonSample, kKey, 0, 1'000'000, 3'000'000.0);
  EXPECT_EQ(auditor.ViolationCount("epsilon_bound"), 1u);  // one episode
  Publish(sw1, Ev::kEpsilonSample, kKey, 0, 1'000'000, 500'000.0);
  Publish(sw1, Ev::kEpsilonSample, kKey, 0, 1'000'000, 2'000'000.0);
  EXPECT_EQ(auditor.ViolationCount("epsilon_bound"), 2u);  // new episode
}

TEST_F(AuditorFixture, EpsilonBoundZeroBoundIsUnbounded) {
  Publish(sw1, Ev::kEpsilonSample, kKey, 0, /*bound=*/0,
                  /*staleness=*/9e12);
  EXPECT_EQ(Total(), 0u);
}

TEST_F(AuditorFixture, ClearFindingsDropsViolationsAndMonitorState) {
  Publish(sw1, Ev::kAckReleased, kKey, 3);
  ASSERT_EQ(Total(), 1u);
  auditor.ClearFindings();
  EXPECT_EQ(Total(), 0u);
  // Monitor state was reset too: the same ack violates again.
  Publish(sw1, Ev::kAckReleased, kKey, 3);
  EXPECT_EQ(Total(), 1u);
}

TEST_F(AuditorFixture, StoredViolationsAreCapped) {
  for (int i = 0; i < 200; ++i) {
    Publish(sw1, Ev::kAckReleased, kKey + i, 1);
  }
  EXPECT_EQ(auditor.violations().size(), Auditor::kMaxStoredViolations);
  EXPECT_EQ(auditor.ViolationCount("chain_commit"), 200u);  // still counted
}

TEST_F(AuditorFixture, ViolationCarriesSliceWhenTracerAttached) {
  tracer.SetEnabled(true);
  const std::uint16_t c = tracer.Intern("sw1/rp");
  now = 100;
  tracer.Emit(c, obs::Ev::kReplicationSent, kKey, 3);
  now = 300;
  // One record, to the ring and then to the auditor.
  tracer.Emit(c, obs::Ev::kAckReleased, kKey, 3);
  ASSERT_EQ(Total(), 1u);
  const auto& slice = auditor.violations()[0].slice;
  EXPECT_FALSE(slice.empty());
  EXPECT_LE(slice.events.size(), audit::kMaxSliceEvents);
  EXPECT_TRUE(audit::IsHappensBeforeClosed(slice));
}

// ---------------------------------------------------------------------------
// Causal-slice extraction.

TEST(SliceTest, KeepsFlowEventsAndDropsOthers) {
  obs::Tracer tracer;
  SimTime t = 0;
  tracer.SetClock([&t] { return t; });
  tracer.SetEnabled(true);
  const std::uint16_t c = tracer.Intern("sw");
  t = 100;
  tracer.Emit(c, obs::Ev::kReplicationSent, /*flow=*/0xAB, /*seq=*/7);
  t = 200;
  tracer.Emit(c, obs::Ev::kIngress, /*flow=*/0xCD);  // unrelated flow
  t = 300;
  tracer.Emit(c, obs::Ev::kAckReleased, 0xAB, 7);

  const audit::CausalSlice slice = audit::ExtractSlice(tracer, 0xAB, 300);
  ASSERT_EQ(slice.events.size(), 2u);
  EXPECT_EQ(slice.events[0].ev, obs::Ev::kReplicationSent);
  EXPECT_EQ(slice.events[1].ev, obs::Ev::kAckReleased);
  EXPECT_FALSE(slice.truncated);
  EXPECT_TRUE(audit::IsHappensBeforeClosed(slice));
  EXPECT_TRUE(obs::ValidateJson(slice.PerfettoJson()));
  EXPECT_NE(slice.Text().find("ack_released"), std::string::npos);
}

TEST(SliceTest, MergesInfraEventsInsideWindow) {
  obs::Tracer tracer;
  SimTime t = 0;
  tracer.SetClock([&t] { return t; });
  tracer.SetEnabled(true);
  const std::uint16_t c = tracer.Intern("sw");
  const std::uint16_t inj = tracer.Intern("injector");
  t = 50;
  tracer.Emit(inj, obs::Ev::kNodeFailure);  // before window: excluded
  t = 100;
  tracer.Emit(c, obs::Ev::kLeaseMiss, 0xAB);
  t = 150;
  tracer.Emit(inj, obs::Ev::kLinkDown);  // inside window: a global cause
  t = 300;
  tracer.Emit(c, obs::Ev::kFailoverRehome, 0xAB);

  const audit::CausalSlice slice = audit::ExtractSlice(tracer, 0xAB, 300);
  ASSERT_EQ(slice.events.size(), 3u);
  EXPECT_EQ(slice.events[1].ev, obs::Ev::kLinkDown);
  EXPECT_TRUE(audit::IsHappensBeforeClosed(slice));
}

TEST(SliceTest, BudgetTruncationKeepsClosure) {
  obs::Tracer tracer;
  SimTime t = 0;
  tracer.SetClock([&t] { return t; });
  tracer.SetEnabled(true);
  const std::uint16_t c = tracer.Intern("sw");
  for (std::uint64_t i = 0; i < 150; ++i) {
    t = 100 * (2 * i + 1);
    tracer.Emit(c, obs::Ev::kReplicationSent, 0xAB, i + 1);
    t = 100 * (2 * i + 2);
    tracer.Emit(c, obs::Ev::kAckReleased, 0xAB, i + 1);
  }
  const audit::CausalSlice slice = audit::ExtractSlice(tracer, 0xAB, t);
  EXPECT_TRUE(slice.truncated);
  EXPECT_LE(slice.events.size(), audit::kMaxSliceEvents);
  EXPECT_GT(slice.events.size(), 0u);
  EXPECT_TRUE(audit::IsHappensBeforeClosed(slice));
}

TEST(SliceTest, EmptyWhenTracerHasNothingRelevant) {
  obs::Tracer tracer;
  tracer.SetEnabled(true);
  const audit::CausalSlice slice = audit::ExtractSlice(tracer, 0xAB, 1000);
  EXPECT_TRUE(slice.empty());
}

TEST(SliceTest, ComponentTableIsRemappedToSliceLocalIds) {
  obs::Tracer tracer;
  tracer.SetEnabled(true);
  // Intern several components; only one appears in the slice.
  tracer.Intern("unused0");
  tracer.Intern("unused1");
  const std::uint16_t c = tracer.Intern("the_switch");
  tracer.Emit(c, obs::Ev::kAckReleased, 0xAB, 0);
  const audit::CausalSlice slice = audit::ExtractSlice(tracer, 0xAB, 1000);
  ASSERT_EQ(slice.events.size(), 1u);
  ASSERT_LT(slice.events[0].component, slice.components.size());
  EXPECT_EQ(slice.components[slice.events[0].component], "the_switch");
}

// ---------------------------------------------------------------------------
// Tracer orphan-end marking (ring eviction must not fake protocol phases).

TEST(TracerOrphanTest, EvictedBeginMarksEndAsOrphan) {
  obs::Tracer tracer(/*capacity=*/4);
  SimTime t = 0;
  tracer.SetClock([&t] { return t; });
  tracer.SetEnabled(true);
  const std::uint16_t c = tracer.Intern("sw");
  t = 100;
  tracer.Emit(c, obs::Ev::kReplicationSent, 0xF1, 1);
  for (int i = 0; i < 4; ++i) {  // evict the begin
    t += 10;
    tracer.Emit(c, obs::Ev::kIngress, 0xF1);
  }
  t = 900;
  tracer.Emit(c, obs::Ev::kAckReleased, 0xF1, 1);

  EXPECT_GT(tracer.evicted(), 0u);
  EXPECT_EQ(tracer.CountOrphanedEnds(), 1u);
  const std::string json = tracer.ChromeTraceJson();
  EXPECT_NE(json.find("\"orphan\": true"), std::string::npos);
  EXPECT_TRUE(obs::ValidateJson(json));
  // The orphaned end must not fabricate a latency sample: its begin's
  // timestamp is unknown, so no write_replication_rtt phase may appear.
  for (const auto& phase : tracer.LatencyBreakdown()) {
    EXPECT_NE(phase.name, "write_replication_rtt");
  }
}

TEST(TracerOrphanTest, CompletedSpanIsNotOrphan) {
  obs::Tracer tracer(/*capacity=*/16);
  SimTime t = 0;
  tracer.SetClock([&t] { return t; });
  tracer.SetEnabled(true);
  const std::uint16_t c = tracer.Intern("sw");
  t = 100;
  tracer.Emit(c, obs::Ev::kReplicationSent, 0xF1, 1);
  t = 300;
  tracer.Emit(c, obs::Ev::kAckReleased, 0xF1, 1);
  EXPECT_EQ(tracer.evicted(), 0u);
  EXPECT_EQ(tracer.CountOrphanedEnds(), 0u);
  EXPECT_EQ(tracer.ChromeTraceJson().find("\"orphan\""), std::string::npos);
  bool found = false;
  for (const auto& phase : tracer.LatencyBreakdown()) {
    if (phase.name == "write_replication_rtt") {
      found = true;
      EXPECT_EQ(phase.samples_us.Count(), 1u);
    }
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Linearizability feed.

TEST(LinFeedTest, LinearCounterHistoryPasses) {
  audit::LinearizabilityFeed feed;
  feed.Input(1, 101, 10);
  feed.Output(1, 101, 20, 1);
  feed.Input(1, 102, 30);
  feed.Output(1, 102, 40, 2);
  EXPECT_TRUE(feed.CloseFlow(1));
  EXPECT_EQ(feed.OpenFlows(), 0u);
}

TEST(LinFeedTest, LostUpdateIsReportedThroughAuditor) {
  Auditor auditor;
  audit::LinearizabilityFeed feed(&auditor);
  feed.Input(7, 201, 10);
  feed.Output(7, 201, 20, 1);
  feed.Input(7, 202, 30);
  feed.Output(7, 202, 40, 1);  // the counter failed to advance: lost update
  EXPECT_EQ(feed.CloseAll(), 1u);
  EXPECT_EQ(auditor.ViolationCount("linearizability"), 1u);
  EXPECT_EQ(auditor.violations()[0].at.flow, 7u);
}

TEST(LinFeedTest, FlowsAreIndependent) {
  audit::LinearizabilityFeed feed;
  feed.Input(1, 101, 10);
  feed.Output(1, 101, 20, 1);
  feed.Input(2, 201, 10);
  feed.Output(2, 201, 20, 1);  // value 1 again — fine, different flow
  EXPECT_EQ(feed.CloseAll(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end mutation detection.
//
// Harness: two RedPlane switches in front of a (possibly chained) state
// store, the rig's tracer + auditor armed, protocol mutations injectable via
// the test-only config hooks.  Clean twins of every mutated scenario run
// the same traffic and must stay silent.

using testing::Rig;
using testing::RigOptions;

/// The two-switch rig (seed 77) with leases of 10 ms that renew only near
/// expiry, so scenario traffic produces exactly the protocol messages each
/// scenario scripts (no interleaved renews), and the auditor armed.
RigOptions Audited(RigOptions opt = {}) {
  opt.seed = 77;
  opt.rp.lease_period = Milliseconds(10);
  opt.rp.renew_interval = Milliseconds(1);
  opt.audit = true;
  return opt;
}

net::FlowKey TheFlow() {
  return {testing::kSrcIp, testing::kDstIp, 4242, 80, net::IpProto::kUdp};
}

/// Asserts exactly `monitor` fired, with a non-empty HB-closed slice
/// within budget on every stored violation.
void ExpectOnly(const Auditor& auditor, std::string_view monitor) {
  EXPECT_GE(auditor.ViolationCount(monitor), 1u) << monitor;
  EXPECT_EQ(auditor.ViolationCount(monitor), auditor.violations().size())
      << "a monitor other than " << monitor << " fired";
  for (const auto& v : auditor.violations()) {
    EXPECT_EQ(v.monitor, monitor);
    EXPECT_FALSE(v.slice.empty()) << "violation has no causal slice";
    EXPECT_LE(v.slice.events.size(), audit::kMaxSliceEvents);
    EXPECT_TRUE(audit::IsHappensBeforeClosed(v.slice));
    EXPECT_TRUE(obs::ValidateJson(v.slice.PerfettoJson()));
  }
}

// --- lease mutation: the switch believes its lease outlives the store's ---
//
// sw1 acquires the flow's lease, then loses its link to the store fabric
// (but stays alive, so it never publishes a reset).  After the store-side
// lease lapses, traffic arrives through sw2, which legitimately acquires
// the lease.  Clean: sw1's conservative believed expiry has passed, so its
// stale claim is pruned.  Mutated: sw1's belief was inflated past the
// store's grant, so two live claims coexist — single_owner must fire.

void DriveLeaseScenario(Rig& h) {
  h.src->SendTo(0, net::MakeUdpPacket(TheFlow(), 20));
  h.Run(Milliseconds(5));  // write acked; sw1 holds the lease
  sim::Link* link = h.net.FindLink(h.sw[0], h.hub);
  ASSERT_NE(link, nullptr);
  link->SetUp(false);  // sw1 is isolated from the store but still alive
  h.Run(Milliseconds(30));  // store-side lease lapses
  h.src->SendTo(1, net::MakeUdpPacket(TheFlow(), 20));  // arrive via sw2
  h.Run(Milliseconds(40));
  EXPECT_EQ(h.delivered, 2);
}

TEST(MutationDetectionTest, InflatedLeaseBeliefTripsSingleOwner) {
  Rig h(Audited({.rp = {.mutation_lease_extension = Seconds(10)}}));
  DriveLeaseScenario(h);
  ExpectOnly(h.auditor, "single_owner");
}

TEST(MutationDetectionTest, LeaseScenarioCleanTwinIsSilent) {
  Rig h(Audited());
  DriveLeaseScenario(h);
  EXPECT_EQ(h.auditor.violations().size(), 0u)
      << h.auditor.violations()[0].detail;
}

// --- seq mutation: the store's duplicate filter is disabled ---
//
// The hub drops the ack of the flow's second write, forcing the switch to
// retransmit from its mirror buffer.  Clean: the store filters the
// duplicate and answers from durable state.  Mutated: the store re-applies
// the duplicate write — seq_monotonic must fire.

void DriveSeqScenario(Rig& h) {
  h.src->SendTo(0, net::MakeUdpPacket(TheFlow(), 20));
  h.Run(Milliseconds(3));  // lease + first write settled
  // Swallow the next store→sw1 ack.
  h.hub_drop = [&h](const net::Packet& pkt) {
    return h.hub_dropped == 0 && pkt.ip->dst == h.sw[0]->ip();
  };
  h.src->SendTo(0, net::MakeUdpPacket(TheFlow(), 20));
  h.Run(Milliseconds(5));  // retransmit fires and is answered
  EXPECT_EQ(h.hub_dropped, 1);
  // The dropped ack carried the write's piggybacked output with it; the
  // retransmitted ack restores durability, not delivery — so only the
  // first write's output reaches the receiver.
  EXPECT_EQ(h.delivered, 1);
}

TEST(MutationDetectionTest, DisabledSeqFilterTripsSeqMonotonic) {
  Rig h(Audited({.head_mutations = {.disable_seq_filter = true}}));
  DriveSeqScenario(h);
  ExpectOnly(h.auditor, "seq_monotonic");
}

TEST(MutationDetectionTest, SeqScenarioCleanTwinIsSilent) {
  Rig h(Audited());
  DriveSeqScenario(h);
  EXPECT_EQ(h.auditor.violations().size(), 0u)
      << h.auditor.violations()[0].detail;
}

// --- chain mutation: the head acks before chain-wide commit ---
//
// A 3-replica chain; the mutated head responds to the switch directly
// instead of forwarding down the chain, so the ack escapes before the tail
// committed.  chain_commit must fire on the very first released output.

void DriveChainScenario(Rig& h) {
  h.src->SendTo(0, net::MakeUdpPacket(TheFlow(), 20));
  h.Run(Milliseconds(5));
  h.src->SendTo(0, net::MakeUdpPacket(TheFlow(), 20));
  h.Run(Milliseconds(5));
  EXPECT_EQ(h.delivered, 2);
}

TEST(MutationDetectionTest, EarlyChainAckTripsChainCommit) {
  Rig h(Audited({.stores = 3,
                   .chain = true,
                   .head_mutations = {.early_chain_ack = true}}));
  DriveChainScenario(h);
  ExpectOnly(h.auditor, "chain_commit");
}

TEST(MutationDetectionTest, ChainScenarioCleanTwinIsSilent) {
  Rig h(Audited({.stores = 3, .chain = true}));
  DriveChainScenario(h);
  EXPECT_EQ(h.auditor.violations().size(), 0u)
      << h.auditor.violations()[0].detail;
}

// ---------------------------------------------------------------------------
// Failure diagnostics dump (what the gtest listener prints on failure).

TEST(DiagnosticsTest, DumpIncludesTracerTailLeaseTableAndViolations) {
  Rig h(Audited());
  h.src->SendTo(0, net::MakeUdpPacket(TheFlow(), 20));
  h.Run(Milliseconds(5));
  // Seed one synthetic violation so the dump has findings to show.
  h.tracer.Emit(h.tracer.Intern("synthetic"), Ev::kAckReleased, 0x99, 5);
  std::ostringstream os;
  audit::DumpDiagnostics(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("redplane diagnostics"), std::string::npos);
  EXPECT_NE(text.find("sw1/rp lease table"), std::string::npos);
  EXPECT_NE(text.find("chain_commit"), std::string::npos);
  EXPECT_NE(text.find("ack_released"), std::string::npos);
}

// ---------------------------------------------------------------------------
// One tracer per simulation.

/// `tracer`'s Chrome export.  Packet ids are per simulation, so rigs that
/// run interleaved export what each exports alone, ids included.
std::string Export(const obs::Tracer& tracer) {
  std::ostringstream os;
  tracer.WriteChromeTrace(os);
  return os.str();
}

TEST(PerSimulationTracerTest, InterleavedRigsRecordWhatEachRecordsAlone) {
  const RigOptions options[2] = {Audited(),
                                 Audited({.stores = 3, .chain = true})};
  constexpr int kSteps = 8;
  const auto step = [](Rig& h, int i) {
    h.src->SendTo(static_cast<PortId>(i % 2),
                  net::MakeUdpPacket(TheFlow(), 20));
    h.Run(Milliseconds(1));
  };
  std::string solo_trace[2];
  std::uint64_t solo_events[2];
  for (int r = 0; r < 2; ++r) {
    Rig h(options[r]);
    for (int i = 0; i < kSteps; ++i) step(h, i);
    solo_trace[r] = Export(h.tracer);
    solo_events[r] = h.auditor.events_seen();
  }
  EXPECT_GT(solo_events[0], 0u);
  EXPECT_NE(solo_trace[0], solo_trace[1]);

  Rig a(options[0]);
  Rig b(options[1]);
  for (int i = 0; i < kSteps; ++i) {
    step(a, i);
    step(b, i);
  }
  EXPECT_EQ(Export(a.tracer), solo_trace[0]);
  EXPECT_EQ(Export(b.tracer), solo_trace[1]);
  EXPECT_EQ(a.auditor.events_seen(), solo_events[0]);
  EXPECT_EQ(b.auditor.events_seen(), solo_events[1]);
}

}  // namespace
}  // namespace redplane
