// Failover forensics: recovery-episode detection and phase decomposition.
//
// RedPlane's headline number is not steady-state latency but the ~1 s
// end-to-end disruption after a failure — failure-detection delay plus the
// lease period (Fig. 14, Table 1).  This engine turns the tracer's
// subscriber stream (obs/events.h) into that number, decomposed: on an
// injected fault (kNodeDown / kLinkCut) it opens a *recovery episode* that
// it closes into five causally ordered phases:
//
//   t0 ──────── fault injected            (kNodeDown / kLinkCut)
//   t0..t1      failure_detection         ends at kReroute
//   t1..t2      route_reconvergence       ends at kLeaseRequested
//   t2..t3      lease_reacquisition       ends at kLeaseGrant or
//                                                 kFailoverRehome
//   t3..t4      state_install             ends at kLeaseAcquired
//   t4..t5      first_packet_served       ends at kOutputServed
//
// The phase endpoints telescope — phase i spans [t_i, t_{i+1}] — so the
// phase durations sum to the measured episode downtime t5 − t0 *by
// construction*; PhaseSumOk() re-checks the identity numerically and every
// campaign run asserts it (the internal-consistency invariant of
// DESIGN.md §13).  A fault whose recovery skips a phase (a link flap whose
// leases survive, a store failover absorbed by retransmission) yields
// zero-width phases: a later marker back-fills any unset earlier endpoint.
//
// Per-flow downtime: the tracker remembers each flow's last served output.
// A flow served before t0 and again at t > t0 contributes the sample
// (t − t0) to the episode's downtime distribution (p50/p99/max).
//
// Ring accounting: with a tracer attached, each episode records how many
// ring records span it (the ring at open plus what was written until
// close) and how many the ring evicted meanwhile, read from the tracer's
// counters.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "obs/tracer.h"

namespace redplane::obs {

/// Recovery phases, in causal order.  Values index RecoveryEpisode arrays.
enum class RecoveryPhase : std::uint8_t {
  kFailureDetection = 0,   // fault -> routes rebuilt
  kRouteReconvergence,     // routes rebuilt -> first lease re-request
  kLeaseReacquisition,     // lease requested -> grant received
  kStateInstall,           // grant received -> state installed, lease live
  kFirstPacketServed,      // lease live -> first output released
};
inline constexpr int kNumRecoveryPhases = 5;

/// Stable display name ("failure_detection", ...).
const char* RecoveryPhaseName(RecoveryPhase phase);

/// One detected failover episode.
struct RecoveryEpisode {
  std::uint64_t id = 0;       // 1-based, in detection order
  SimTime fault_at = 0;       // t0: the injected fault's timestamp
  std::string trigger;        // "node_down" or "link_cut"
  std::uint64_t fault_aux = 0;  // fault record's aux (node id for kNodeDown)
  /// End timestamp of each phase (t1..t5); 0 while unreached.  After the
  /// episode closes, every endpoint is set and non-decreasing; a skipped
  /// phase collapses to zero width (its endpoint equals its predecessor's).
  std::array<SimTime, kNumRecoveryPhases> phase_end{};
  /// True once t5 (first output after lease re-install) was observed, or
  /// Finalize() could close the episode from a post-fault service event;
  /// false means service never resumed within the run.
  bool complete = false;
  /// Additional faults injected while this episode was open (overlapping
  /// faults are folded into one episode, counted here).
  std::uint32_t extra_faults = 0;

  /// Per-flow downtime samples, in microseconds: one sample per flow that
  /// was served before t0 and again after (first service gap spanning the
  /// fault).
  SampleSet flow_downtime_us;

  /// Ring records spanning the episode: those in the ring at open plus
  /// those written until close.  0 when no tracer was attached.
  std::uint64_t trace_records = 0;
  std::uint64_t evicted_at_open = 0;
  std::uint64_t evicted_at_close = 0;

  /// Measured downtime t5 - t0 (0 while incomplete).
  SimDuration Downtime() const {
    return complete ? phase_end.back() - fault_at : 0;
  }
  /// Duration of one phase (endpoints telescope).
  SimDuration PhaseDuration(RecoveryPhase phase) const {
    const int i = static_cast<int>(phase);
    const SimTime begin = i == 0 ? fault_at : phase_end[i - 1];
    return phase_end[i] - begin;
  }
};

/// Verifies the internal-consistency invariant: the five phase durations
/// sum exactly (integer nanoseconds, no tolerance) to the measured episode
/// downtime, and the endpoints are non-decreasing.  False for incomplete
/// episodes.
bool PhaseSumOk(const RecoveryEpisode& episode);

/// Consumes the tracer's subscriber stream and detects recovery episodes.
///
/// Wire with:
///   tracer.Subscribe([&t](const obs::TraceRecord& r) { t.OnRecord(r); });
/// and call Finalize(sim.Now()) after the run drains so an episode whose
/// t5 marker was missed (no lease re-acquisition) still closes from the
/// first post-fault service event.
class RecoveryTracker {
 public:
  /// `tracer` (optional) is the ring whose counters each episode records.
  explicit RecoveryTracker(const Tracer* tracer = nullptr)
      : tracer_(tracer) {}

  void OnRecord(const TraceRecord& r);

  /// Closes a still-open episode from the recorded post-fault service
  /// times (skipped phases collapse to zero width).  An episode with no
  /// post-fault service at all stays incomplete with phase_end[4] = `now`
  /// so its downtime lower-bounds the truth.
  void Finalize(SimTime now);

  const std::vector<RecoveryEpisode>& episodes() const { return episodes_; }
  bool EpisodeOpen() const { return open_; }

  /// Drops episodes and per-flow service history (between campaign runs).
  void Reset();

  /// Writes all episodes as one JSON object:
  ///   {"episodes": [{"id", "trigger", "fault_at_ns", "complete",
  ///                  "downtime_ns", "phase_sum_ok",
  ///                  "phases": [{"name", "start_ns", "end_ns",
  ///                              "duration_ns"}, ...],
  ///                  "flows": {"count", "p50_us", "p99_us", "max_us"},
  ///                  "evicted_during": N, "trace_records": N}, ...]}
  void WriteJson(std::ostream& os) const;
  std::string Json() const;

  /// Renders an aligned per-episode phase table (the bench/report view).
  void PrintTimeline(std::ostream& os) const;

 private:
  void OpenEpisode(const TraceRecord& r, const char* trigger);
  /// Sets phase endpoint `phase` to `t` if unset, back-filling any unset
  /// earlier endpoints (skipped phases collapse to zero width).
  void MarkPhase(RecoveryPhase phase, SimTime t);
  void CloseEpisode();

  const Tracer* tracer_ = nullptr;
  std::vector<RecoveryEpisode> episodes_;
  bool open_ = false;
  RecoveryEpisode current_;
  /// Ring size and emission count at episode open: the close counts only
  /// the records written after open that the ring still holds.
  std::uint64_t ring_at_open_ = 0;
  std::uint64_t emitted_at_open_ = 0;
  /// Last time each flow (pre-hashed partition key) was served an output.
  std::unordered_map<std::uint64_t, SimTime> last_served_;
  /// Flows already sampled into the open episode's downtime distribution.
  std::unordered_map<std::uint64_t, SimTime> served_before_fault_;
  /// First kOutputServed after t0 (any flow): the fallback close point for
  /// episodes that skip the lease phases.
  SimTime first_served_after_fault_ = 0;
};

}  // namespace redplane::obs
