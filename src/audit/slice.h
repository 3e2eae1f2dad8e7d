// Causal trace slices: the flight-recorder half of the auditor.
//
// When a monitor reports a violation the auditor cuts a *causal slice* out
// of the tracer ring: the smallest happens-before-closed window of
// trace events that explains the violation.  The happens-before relation
// used here is deliberately restricted to what the tracer can witness:
//
//   1. program order within the violating flow (every event on the flow's
//      key, ordered by emission index),
//   2. protocol begin→end span edges (obs::ProtocolPairs — a span's end
//      depends on its begin), and
//   3. environment events (node/link failures and recoveries, reroutes;
//      flow == 0) that overlap the window in time — faults are global
//      causes, so any fault inside the window may explain the violation.
//
// Extraction walks backwards from the violation time, pulls in span begins
// required by rule 2 until a fixpoint, then — if over budget — drops the
// oldest events *with their dependants* (cascade drop keeps the result
// HB-closed even when truncated).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/tracer.h"

namespace redplane::audit {

/// Default event budget for a slice (acceptance: slices are ≤ 100 events).
inline constexpr std::size_t kMaxSliceEvents = 100;

/// A happens-before-closed window of tracer events around a violation.
struct CausalSlice {
  std::uint64_t flow = 0;  // hashed key the violation is about (0 = none)
  SimTime at = 0;          // violation time; slice covers events with t <= at
  bool truncated = false;  // true when the event budget forced cascade drops
  std::vector<obs::TraceRecord> events;  // emission order (oldest first)
  std::vector<std::string> components;   // component-id → name, for export

  bool empty() const { return events.empty(); }

  /// Perfetto / chrome://tracing loadable JSON for just this slice.
  std::string PerfettoJson() const;
  /// Human-readable one-event-per-line rendering.
  void WriteText(std::ostream& os) const;
  std::string Text() const;
};

/// Cuts a causal slice for `flow` ending at time `at` out of `tracer`'s
/// current ring contents.  Returns an empty slice when the tracer holds no
/// matching events (e.g. tracing disabled).
CausalSlice ExtractSlice(const obs::Tracer& tracer, std::uint64_t flow,
                         SimTime at, std::size_t max_events = kMaxSliceEvents);

/// True when every end-of-span event in `slice` is preceded (in the slice)
/// by a matching begin — the closure property ExtractSlice guarantees.
/// Exposed so tests can assert it on real violations.
bool IsHappensBeforeClosed(const CausalSlice& slice);

}  // namespace redplane::audit
