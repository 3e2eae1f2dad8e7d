// Deterministic event bus: one record stream for tracing and auditing.
//
// Components emit every fact through a `TraceHandle`, which caches its
// interned component id and reaches the tracer attached to its own
// simulation (`sim::Simulator::AttachTracer`), so two simulations in one
// process record two separate streams.  The Tracer routes each record by
// its kind's row in obs/events.h: ring kinds go to a bounded ring buffer
// (Chrome export, latency breakdown, causal slices), subscriber kinds go
// synchronously to the subscribers (the auditor's monitors, the recovery
// tracker), and a few kinds go to both.  The ring and the subscribers are
// armed independently: an auditor can subscribe to a tracer whose ring
// stays disabled.  A handle whose kind reaches no armed sink compiles down
// to three loads and a branch, cheap enough to leave in every hot path.
//
// Timestamps come from an injected clock (attaching to a simulator registers
// `Simulator::Now`), so identical seeds produce byte-identical trace
// exports and identical subscriber streams.
//
// Exports: Chrome `trace_event` JSON (loadable in Perfetto / chrome://tracing)
// and a per-phase latency-breakdown table (p50/p99 per protocol phase),
// reconstructed by pairing begin/end events per (flow, seq).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "obs/events.h"
#include "obs/metrics.h"

namespace redplane::obs {

/// One event record.  `flow` is a pre-hashed flow/key identifier (callers
/// hash with net::HashFlowKey / net::HashPartitionKey); `seq` disambiguates
/// per-write lifecycles; `arg` and `aux` carry event-specific payloads
/// (bytes, staleness, believed lease expiry, ...; see obs/events.h).
struct TraceRecord {
  SimTime t = 0;
  /// Ring emission index; breaks timestamp ties.  Only ring records take
  /// one (a subscriber-only record carries 0).
  std::uint64_t order = 0;
  Ev ev = Ev::kIngress;
  std::uint16_t component = 0;
  /// End-of-span record whose begin partner is absent from the record set
  /// (evicted from the ring, or never recorded).  Computed at export time by
  /// MarkOrphanedEnds; never set on the hot emit path.
  bool orphan = false;
  std::uint64_t flow = 0;
  std::uint64_t seq = 0;
  double arg = 0.0;
  /// Cross-layer request span this record belongs to (0 = none).  The switch
  /// stamps a fresh span id into each protocol request; the store echoes it
  /// through the chain and the ack, so one write's whole lifecycle shares
  /// one id across components (see obs/spans.h).
  std::uint64_t span = 0;
  /// Enclosing span, for lifecycles spawned by another (0 = root).
  std::uint64_t parent_span = 0;
  std::uint64_t aux = 0;
};

/// One begin→end protocol-span pairing (the pairings behind
/// Tracer::LatencyBreakdown).  Exported so the auditor's causal-slice
/// extraction can compute happens-before closure with the same rules the
/// tracer uses.
struct ProtocolPair {
  Ev begin;
  Ev end;
  bool seq_matched;  // pair on (flow, seq); otherwise on flow alone
};

/// All begin/end pairings the tracer reconstructs protocol phases from.
std::span<const ProtocolPair> ProtocolPairs();

/// Marks every end-of-span record in `records` (ascending emission order)
/// whose begin partner never appears earlier in the set — the signature of a
/// begin evicted from the ring while its span was still open.  Returns the
/// number of records marked.
std::size_t MarkOrphanedEnds(std::vector<TraceRecord>& records);

/// Writes Chrome trace_event JSON for an explicit record set.  Used by the
/// tracer's own export and by the auditor's causal slices; `components[id]`
/// names the component ids referenced by the records.
void WriteChromeTraceRecords(std::ostream& os,
                             std::span<const TraceRecord> records,
                             std::span<const std::string> components);

/// Record-selection predicate for queries and exports.  Zero/empty fields
/// match everything.
struct TraceFilter {
  std::uint64_t flow = 0;            // match this flow id only (0 = any)
  std::string component;             // match this component name only
  bool Matches(const TraceRecord& r, const class Tracer& tracer) const;
};

/// Per-phase latency summary produced by Tracer::LatencyBreakdown().
struct PhaseStats {
  std::string name;
  SampleSet samples_us;  // one sample per completed begin→end pair, in µs
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  using Subscriber = std::function<void(const TraceRecord&)>;

  // --- configuration ---
  void SetClock(std::function<SimTime()> clock) { clock_ = std::move(clock); }
  /// Arms the ring (subscribers are armed by subscribing).
  void SetEnabled(bool enabled) {
    enabled_ = enabled;
    UpdateSinks();
  }
  bool enabled() const { return enabled_; }
  /// The armed sinks (a Sink mask): kRing when enabled, kSubscribers when
  /// anyone subscribed.
  std::uint8_t sinks() const { return sinks_; }

  // --- subscribers ---
  /// Calls `fn` with every record of a subscriber kind, in emission order,
  /// after any ring write of the same record.  Returns an id for
  /// Unsubscribe.
  std::uint64_t Subscribe(Subscriber fn);
  void Unsubscribe(std::uint64_t id);

  // --- component interning ---
  /// Interns `name`, returning its stable component id.
  std::uint16_t Intern(std::string_view name);
  const std::string& ComponentName(std::uint16_t id) const;
  std::size_t NumComponents() const { return components_.size(); }
  /// Bumps whenever the name table is cleared; TraceHandles revalidate
  /// their cached id against this.
  std::uint64_t generation() const { return generation_; }

  // --- recording ---
  /// Routes one record to the armed sinks among `EvSinks(ev) & sinks`.
  void Emit(std::uint16_t component, Ev ev, std::uint64_t flow = 0,
            std::uint64_t seq = 0, double arg = 0.0, std::uint64_t span = 0,
            std::uint64_t parent_span = 0, std::uint64_t aux = 0,
            std::uint8_t sinks = kBoth);

  // --- inspection ---
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return ring_.size(); }
  /// Number of records evicted from the ring since the last Clear().
  std::uint64_t evicted() const { return evicted_; }
  /// Number of records written to the ring since the last Clear() (the
  /// next record's `order`).
  std::uint64_t emitted() const { return next_order_; }
  /// Records in emission order (oldest first), optionally filtered.
  std::vector<TraceRecord> Records(const TraceFilter& filter = {}) const;
  /// End-of-span records currently in the ring whose begin partner was
  /// evicted (or never recorded); see MarkOrphanedEnds.
  std::size_t CountOrphanedEnds() const;

  /// The tracer's own health metrics ("tracer.evicted_records",
  /// "tracer.orphaned_ends", "tracer.live_records" callback gauges) — register
  /// with a MetricsHub to make ring truncation visible in every sampled run
  /// instead of silently losing span begins.
  const MetricRegistry& metrics() const { return metrics_; }

  /// Drops recorded events (keeps component names and configuration).
  void Clear();
  /// Clear() plus drops interned component names (bumps generation).
  void Reset();

  // --- export ---
  void WriteChromeTrace(std::ostream& os, const TraceFilter& filter = {}) const;
  std::string ChromeTraceJson(const TraceFilter& filter = {}) const;

  /// Pairs begin/end events per (flow, seq) into protocol phases and returns
  /// per-phase latency summaries (skips phases with no completed pairs).
  std::vector<PhaseStats> LatencyBreakdown() const;
  /// Renders LatencyBreakdown() as an aligned table.
  void PrintBreakdown(std::ostream& os) const;

 private:
  SimTime NowOrZero() const { return clock_ ? clock_() : 0; }
  /// The i-th live record, oldest first (i < count_).
  const TraceRecord& At(std::size_t i) const {
    return ring_[(head_ + i) % ring_.size()];
  }
  void UpdateSinks() {
    sinks_ = static_cast<std::uint8_t>(
        (enabled_ ? kRing : 0) | (subscribers_.empty() ? 0 : kSubscribers));
  }

  std::vector<TraceRecord> ring_;
  std::size_t head_ = 0;   // index of oldest record
  std::size_t count_ = 0;  // live records in the ring
  std::uint64_t evicted_ = 0;
  std::uint64_t next_order_ = 0;
  bool enabled_ = false;
  std::uint8_t sinks_ = 0;
  std::vector<std::pair<std::uint64_t, Subscriber>> subscribers_;
  std::uint64_t next_subscriber_ = 1;
  std::function<SimTime()> clock_;
  std::vector<std::string> components_;
  std::uint64_t generation_ = 1;
  MetricRegistry metrics_;  // callback gauges over ring state; see metrics()
};

/// Cached per-component emitter bound to one simulation's tracer slot (the
/// pointer a `sim::Simulator` holds for its attached tracer; null = none).
/// Copyable; re-resolves its interned id when the slot's tracer or its
/// generation changes.  The slot must outlive the handle.
class TraceHandle {
 public:
  TraceHandle(Tracer* const& slot, std::string name)
      : slot_(&slot), name_(std::move(name)) {}
  /// A temporary pointer is no slot: the handle would dangle.
  TraceHandle(Tracer* const&& slot, std::string name) = delete;

  /// True when emitting `ev` would reach an armed sink — callers guard any
  /// expensive argument computation (flow hashing, byte counting) behind
  /// this.
  bool armed(Ev ev) const {
    const Tracer* t = *slot_;
    return t != nullptr && (t->sinks() & EvSinks(ev)) != 0;
  }

  /// Emits one record to the slot's tracer.  `sinks` narrows the kind's
  /// routing (for a site whose subscriber fact is a different kind).
  void Emit(Ev ev, std::uint64_t flow = 0, std::uint64_t seq = 0,
            double arg = 0.0, std::uint64_t span = 0,
            std::uint64_t parent_span = 0, std::uint64_t aux = 0,
            std::uint8_t sinks = kBoth) const {
    Tracer* t = *slot_;
    if (t == nullptr || (t->sinks() & EvSinks(ev) & sinks) == 0) return;
    if (cached_tracer_ != t || cached_generation_ != t->generation()) {
      cached_tracer_ = t;
      cached_generation_ = t->generation();
      cached_id_ = t->Intern(name_.empty() ? std::string_view("?") : name_);
    }
    t->Emit(cached_id_, ev, flow, seq, arg, span, parent_span, aux, sinks);
  }

 private:
  Tracer* const* slot_;
  std::string name_;
  mutable Tracer* cached_tracer_ = nullptr;
  mutable std::uint64_t cached_generation_ = 0;
  mutable std::uint16_t cached_id_ = 0;
};

}  // namespace redplane::obs
