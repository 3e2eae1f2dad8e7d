// Recovery-episode forensics: the tracker turns a synthetic subscriber
// record stream into episodes whose five phase durations sum *exactly* to the
// measured downtime (the DESIGN.md §13 invariant, this PR's acceptance
// pin), skipped phases collapse to zero width, per-flow downtime samples
// the first service gap spanning the fault, and the ring accounting counts
// pre-fault trace context across ring eviction.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/json.h"
#include "obs/recovery.h"
#include "obs/tracer.h"

namespace redplane {
namespace {

using obs::PhaseSumOk;
using obs::RecoveryEpisode;
using obs::RecoveryPhase;
using obs::RecoveryTracker;

obs::TraceRecord At(obs::Ev ev, SimTime t, std::uint64_t key = 0) {
  obs::TraceRecord r;
  r.ev = ev;
  r.t = t;
  r.flow = key;
  return r;
}

TEST(RecoveryTest, FullPhaseChainSumsExactlyToDowntime) {
  RecoveryTracker tracker;
  // Flow 7 served before the fault: its downtime is measurable.
  tracker.OnRecord(At(obs::Ev::kOutputServed, 500, 7));
  tracker.OnRecord(At(obs::Ev::kNodeDown, 1000));
  ASSERT_TRUE(tracker.EpisodeOpen());
  tracker.OnRecord(At(obs::Ev::kReroute, 2000));
  tracker.OnRecord(At(obs::Ev::kLeaseRequested, 2500, 7));
  tracker.OnRecord(At(obs::Ev::kLeaseGrant, 3000, 7));
  tracker.OnRecord(At(obs::Ev::kLeaseAcquired, 3500, 7));
  tracker.OnRecord(At(obs::Ev::kOutputServed, 4000, 7));

  ASSERT_EQ(tracker.episodes().size(), 1u);
  EXPECT_FALSE(tracker.EpisodeOpen());
  const RecoveryEpisode& e = tracker.episodes().front();
  EXPECT_TRUE(e.complete);
  EXPECT_EQ(e.trigger, "node_down");
  EXPECT_EQ(e.fault_at, 1000);
  EXPECT_EQ(e.Downtime(), 3000);
  EXPECT_TRUE(PhaseSumOk(e));
  EXPECT_EQ(e.PhaseDuration(RecoveryPhase::kFailureDetection), 1000);
  EXPECT_EQ(e.PhaseDuration(RecoveryPhase::kRouteReconvergence), 500);
  EXPECT_EQ(e.PhaseDuration(RecoveryPhase::kLeaseReacquisition), 500);
  EXPECT_EQ(e.PhaseDuration(RecoveryPhase::kStateInstall), 500);
  EXPECT_EQ(e.PhaseDuration(RecoveryPhase::kFirstPacketServed), 500);
  // The five durations telescope to the downtime by construction.
  SimDuration sum = 0;
  for (int i = 0; i < obs::kNumRecoveryPhases; ++i) {
    sum += e.PhaseDuration(static_cast<RecoveryPhase>(i));
  }
  EXPECT_EQ(sum, e.Downtime());
  // Flow 7's first post-fault service is 3000 ns after the fault.
  ASSERT_EQ(e.flow_downtime_us.Count(), 1u);
  EXPECT_DOUBLE_EQ(e.flow_downtime_us.Max(), 3.0);
}

TEST(RecoveryTest, SkippedPhasesCollapseToZeroWidth) {
  RecoveryTracker tracker;
  tracker.OnRecord(At(obs::Ev::kLinkCut, 1000));
  // Recovery without route/lease-request/grant markers (e.g. an in-flight
  // ack masks the fault): kLeaseAcquired back-fills the earlier endpoints.
  tracker.OnRecord(At(obs::Ev::kLeaseAcquired, 2000, 3));
  tracker.OnRecord(At(obs::Ev::kOutputServed, 2500, 3));

  ASSERT_EQ(tracker.episodes().size(), 1u);
  const RecoveryEpisode& e = tracker.episodes().front();
  EXPECT_TRUE(e.complete);
  EXPECT_EQ(e.trigger, "link_cut");
  EXPECT_TRUE(PhaseSumOk(e));
  EXPECT_EQ(e.Downtime(), 1500);
  // The back-fill charges the gap to failure_detection; the skipped middle
  // phases are zero-width.
  EXPECT_EQ(e.PhaseDuration(RecoveryPhase::kFailureDetection), 1000);
  EXPECT_EQ(e.PhaseDuration(RecoveryPhase::kRouteReconvergence), 0);
  EXPECT_EQ(e.PhaseDuration(RecoveryPhase::kLeaseReacquisition), 0);
  EXPECT_EQ(e.PhaseDuration(RecoveryPhase::kStateInstall), 0);
  EXPECT_EQ(e.PhaseDuration(RecoveryPhase::kFirstPacketServed), 500);
}

TEST(RecoveryTest, OutputsWithoutLeaseReinstallDoNotCloseEarly) {
  RecoveryTracker tracker;
  tracker.OnRecord(At(obs::Ev::kOutputServed, 100, 1));
  tracker.OnRecord(At(obs::Ev::kOutputServed, 200, 2));
  tracker.OnRecord(At(obs::Ev::kNodeDown, 1000));
  // An unaffected flow keeps being served — the episode must stay open
  // until the protocol actually re-installs a lease.
  tracker.OnRecord(At(obs::Ev::kOutputServed, 1200, 1));
  EXPECT_TRUE(tracker.EpisodeOpen());
  tracker.OnRecord(At(obs::Ev::kLeaseAcquired, 2000, 2));
  tracker.OnRecord(At(obs::Ev::kOutputServed, 2100, 2));

  ASSERT_EQ(tracker.episodes().size(), 1u);
  const RecoveryEpisode& e = tracker.episodes().front();
  EXPECT_TRUE(e.complete);
  EXPECT_TRUE(PhaseSumOk(e));
  EXPECT_EQ(e.Downtime(), 1100);
  // Both pre-fault flows sampled: flow 1 at +200 ns, flow 2 at +1100 ns.
  EXPECT_EQ(e.flow_downtime_us.Count(), 2u);
  EXPECT_DOUBLE_EQ(e.flow_downtime_us.Min(), 0.2);
  EXPECT_DOUBLE_EQ(e.flow_downtime_us.Max(), 1.1);
}

TEST(RecoveryTest, FinalizeClosesFromFirstPostFaultService) {
  RecoveryTracker tracker;
  tracker.OnRecord(At(obs::Ev::kLinkCut, 1000));
  // Service resumes (surviving leases) but the lease chain never signals.
  tracker.OnRecord(At(obs::Ev::kOutputServed, 1500, 9));
  EXPECT_TRUE(tracker.EpisodeOpen());
  tracker.Finalize(50000);

  ASSERT_EQ(tracker.episodes().size(), 1u);
  const RecoveryEpisode& e = tracker.episodes().front();
  EXPECT_TRUE(e.complete);
  EXPECT_TRUE(PhaseSumOk(e));
  EXPECT_EQ(e.Downtime(), 500);  // closed at the resume, not at Finalize
}

TEST(RecoveryTest, FinalizeWithoutServiceLeavesEpisodeIncomplete) {
  RecoveryTracker tracker;
  tracker.OnRecord(At(obs::Ev::kNodeDown, 1000));
  tracker.Finalize(9000);

  ASSERT_EQ(tracker.episodes().size(), 1u);
  const RecoveryEpisode& e = tracker.episodes().front();
  EXPECT_FALSE(e.complete);
  EXPECT_FALSE(PhaseSumOk(e));  // the invariant is defined on closed episodes
  EXPECT_EQ(e.phase_end.back(), 9000);  // downtime lower-bounds the truth
}

TEST(RecoveryTest, OverlappingFaultsFoldIntoOneEpisode) {
  RecoveryTracker tracker;
  tracker.OnRecord(At(obs::Ev::kNodeDown, 1000));
  tracker.OnRecord(At(obs::Ev::kLinkCut, 1100));
  tracker.OnRecord(At(obs::Ev::kNodeDown, 1200));
  tracker.OnRecord(At(obs::Ev::kLeaseAcquired, 2000, 1));
  tracker.OnRecord(At(obs::Ev::kOutputServed, 2500, 1));

  ASSERT_EQ(tracker.episodes().size(), 1u);
  EXPECT_EQ(tracker.episodes().front().extra_faults, 2u);
  EXPECT_EQ(tracker.episodes().front().fault_at, 1000);
}

TEST(RecoveryTest, JsonExportParsesAndCarriesTheInvariant) {
  RecoveryTracker tracker;
  tracker.OnRecord(At(obs::Ev::kOutputServed, 500, 7));
  tracker.OnRecord(At(obs::Ev::kNodeDown, 1000));
  tracker.OnRecord(At(obs::Ev::kLeaseAcquired, 2000, 7));
  tracker.OnRecord(At(obs::Ev::kOutputServed, 3000, 7));

  const std::string json = tracker.Json();
  auto doc = obs::ParseJson(json);
  ASSERT_TRUE(doc.has_value());
  const auto* episodes = doc->Find("episodes");
  ASSERT_NE(episodes, nullptr);
  ASSERT_EQ(episodes->array.size(), 1u);
  const auto& ep = episodes->array.front();
  EXPECT_EQ(ep.NumberOr("downtime_ns", 0), 2000);
  const auto* sum_ok = ep.Find("phase_sum_ok");
  ASSERT_NE(sum_ok, nullptr);
  EXPECT_TRUE(sum_ok->boolean);
  const auto* phases = ep.Find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_EQ(phases->array.size(),
            static_cast<std::size_t>(obs::kNumRecoveryPhases));
  double phase_sum = 0;
  for (const auto& ph : phases->array) {
    phase_sum += ph.NumberOr("duration_ns", 0);
  }
  EXPECT_EQ(phase_sum, ep.NumberOr("downtime_ns", -1));
}

// Ring accounting: an episode counts the ring at open plus what the ring
// still holds of the records written since, and the eviction counter at
// both ends, so ring truncation during an episode is visible.
TEST(RecoveryTest, FlightRecorderSnapshotSurvivesRingEviction) {
  obs::Tracer tracer(/*capacity=*/8);
  tracer.SetEnabled(true);
  const std::uint16_t comp = tracer.Intern("test");
  // Pre-fault context: 8 records filling the ring, flows 100..107.
  for (std::uint64_t i = 0; i < 8; ++i) {
    tracer.Emit(comp, obs::Ev::kIngress, 100 + i);
  }
  ASSERT_EQ(tracer.evicted(), 0u);

  RecoveryTracker tracker(&tracer);
  tracker.OnRecord(At(obs::Ev::kNodeDown, 1000));
  // Episode-time churn: 32 more records, wrapping the ring four times over.
  for (std::uint64_t i = 0; i < 32; ++i) {
    tracer.Emit(comp, obs::Ev::kIngress, 200 + i);
  }
  EXPECT_GT(tracer.evicted(), 0u);
  tracker.OnRecord(At(obs::Ev::kLeaseAcquired, 2000, 1));
  tracker.OnRecord(At(obs::Ev::kOutputServed, 3000, 1));

  ASSERT_EQ(tracker.episodes().size(), 1u);
  const RecoveryEpisode& e = tracker.episodes().front();
  // The ring at open (8 pre-fault) + what the ring still holds at close
  // (its last 8).
  EXPECT_EQ(e.trace_records, 16u);
  // The eviction gauge recorded at open is 0: it was read before any
  // episode-time churn could push records out.
  EXPECT_EQ(e.evicted_at_open, 0u);
  EXPECT_GT(e.evicted_at_close, e.evicted_at_open);
}

TEST(RecoveryTest, TimelineRendersPhaseTable) {
  RecoveryTracker tracker;
  tracker.OnRecord(At(obs::Ev::kNodeDown, 1000000));
  tracker.OnRecord(At(obs::Ev::kReroute, 2000000));
  tracker.OnRecord(At(obs::Ev::kLeaseAcquired, 3000000, 1));
  tracker.OnRecord(At(obs::Ev::kOutputServed, 4000000, 1));
  std::ostringstream os;
  tracker.PrintTimeline(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("failure_detection"), std::string::npos);
  EXPECT_NE(text.find("first_packet_served"), std::string::npos);
  EXPECT_NE(text.find("phase_sum=ok"), std::string::npos);
}

}  // namespace
}  // namespace redplane
