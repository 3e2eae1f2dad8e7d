// Online protocol auditor: checks RedPlane's safety invariants live.
//
// The auditor subscribes to a tracer (obs/tracer.h) and receives every
// record of a subscriber kind (obs/events.h) that instrumented components
// emit, dispatching it synchronously to a set of invariant monitors — the
// runtime-verification counterparts of the properties src/modelcheck
// explores offline:
//
//   single_owner   no two switches hold a live lease on the same key
//   seq_monotonic  a replica never re-applies a seq its filter passed
//   chain_commit   no output released before the tail committed its write
//   epsilon_bound  observed snapshot staleness stays within configured ε
//
// plus a LinearizabilityFeed (audit/lin_feed.h) that runs the modelcheck
// linearizability checker on each flow's live history at flow close.
//
// On violation the auditor cuts a causal slice from the tracer's ring
// (audit/slice.h): the happens-before-closed window of trace events that
// explains the violation, exportable as Perfetto JSON or text.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "audit/diag.h"
#include "audit/slice.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace redplane::audit {

class Auditor;

/// One confirmed invariant violation.
struct Violation {
  std::string monitor;   // monitor name ("single_owner", ...)
  std::string detail;    // human-readable explanation
  obs::TraceRecord at;   // the record that completed the violation
  CausalSlice slice;     // flight-recorder window (empty when no ring)
};

/// Base class for invariant monitors.  Monitors are single-threaded state
/// machines fed every subscriber record in order; they call
/// Auditor::ReportViolation when an invariant breaks.
class Monitor {
 public:
  explicit Monitor(std::string name) : name_(std::move(name)) {}
  virtual ~Monitor() = default;
  const std::string& name() const { return name_; }

  virtual void OnEvent(Auditor& auditor, const obs::TraceRecord& ev) = 0;
  /// Drops accumulated state (between campaign runs).
  virtual void Reset() {}

 private:
  std::string name_;
};

class Auditor {
 public:
  Auditor();
  ~Auditor();

  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  // --- configuration ---
  /// Subscribes to `tracer`'s record stream (detaching from any previous
  /// one); violations cut their causal slices from its ring and name
  /// components from its intern table.  Null detaches.
  void Attach(obs::Tracer* tracer);
  obs::Tracer* tracer() const { return tracer_; }

  /// Installs the four standard protocol monitors (see audit/monitors.h).
  void ArmStandardMonitors();
  void AddMonitor(std::unique_ptr<Monitor> monitor);
  Monitor* FindMonitor(std::string_view name);
  std::size_t NumMonitors() const { return monitors_.size(); }

  /// The attached tracer's name for component `id` ("?" when detached).
  const std::string& ComponentName(std::uint16_t id) const;

  // --- record intake (the tracer subscription) ---
  void OnRecord(const obs::TraceRecord& r);

  // --- violation reporting (called by monitors) ---
  void ReportViolation(std::string_view monitor, const obs::TraceRecord& at,
                       std::string detail);

  // --- findings ---
  const std::vector<Violation>& violations() const { return violations_; }
  std::uint64_t events_seen() const { return events_seen_; }
  /// Violations attributed to one monitor (by name).
  std::size_t ViolationCount(std::string_view monitor) const;
  /// Drops violations and monitor state; keeps configuration and monitors.
  void ClearFindings();

  obs::MetricRegistry& stats() { return stats_; }
  const obs::MetricRegistry& stats() const { return stats_; }

  /// Cap on stored violations (a broken invariant usually fires per packet;
  /// keep the first occurrences, count the rest).
  static constexpr std::size_t kMaxStoredViolations = 64;

 private:
  void DumpViolations(std::ostream& os) const;

  obs::Tracer* tracer_ = nullptr;
  std::uint64_t subscription_ = 0;
  std::vector<std::unique_ptr<Monitor>> monitors_;
  std::uint64_t events_seen_ = 0;
  std::vector<Violation> violations_;
  std::uint64_t violations_total_ = 0;
  /// Per-monitor totals; unlike `violations_` these are not capped.
  std::map<std::string, std::size_t, std::less<>> counts_by_monitor_;
  obs::MetricRegistry stats_{"audit"};
  obs::Counter events_counter_;
  obs::Counter violations_counter_;
  DiagToken diag_;  // violations in the on-failure diagnostics dump
};

}  // namespace redplane::audit
