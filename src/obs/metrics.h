// Typed metric registry: O(1) hot-path counters, gauges, and histograms.
//
// Components register each metric once at construction and keep a typed
// handle; the hot path then updates through the handle with a single pointer
// store — no string hashing, no linear scan.  The string-keyed API of
// `common::Counters` (`Add(name)` / `Get(name)` / `Sorted()`) is preserved on
// top of the registry so existing call sites and tests keep working.
//
// A `MetricsHub` aggregates several component registries and snapshots them
// into a time series, which a simulator event can sample periodically to
// produce Fig. 14/15-style timelines for any bench.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace redplane::obs {

/// Log-linear histogram cell: 16 sub-buckets per power of two, giving at most
/// ~4.4 % relative error on percentile queries while keeping Record() O(1).
struct HistogramCell {
  static constexpr int kSubBucketsPerOctave = 16;
  // Exponent range [-64, 64) covers values from ~5e-20 to ~1.8e19.
  static constexpr int kMinExponent = -64;
  static constexpr int kMaxExponent = 64;
  static constexpr int kNumBuckets =
      (kMaxExponent - kMinExponent) * kSubBucketsPerOctave;

  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::uint64_t zero_or_less = 0;  // values <= 0 (and underflow)
  std::vector<std::uint64_t> buckets;  // lazily sized to kNumBuckets

  void Record(double value);
  /// Percentile via bucket-rank walk with intra-bucket interpolation,
  /// clamped to the exact observed [min, max].
  double Percentile(double p) const;
  double Mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
  /// Accumulates `other` into this cell (bucket-wise sum, [min, max] union)
  /// — snapshot merging across shards loses no percentile resolution.
  void Merge(const HistogramCell& other);
  void Reset();
};

/// Typed counter handle.  Default-constructed handles are inert no-ops so a
/// component can be instrumented before (or without) registering metrics.
class Counter {
 public:
  Counter() = default;
  void Add(double delta = 1.0) {
    if (cell_) *cell_ += delta;
  }
  double value() const { return cell_ ? *cell_ : 0.0; }

 private:
  friend class MetricRegistry;
  explicit Counter(double* cell) : cell_(cell) {}
  double* cell_ = nullptr;
};

/// Typed gauge handle (set-to-current-value semantics).
class Gauge {
 public:
  Gauge() = default;
  void Set(double v) {
    if (cell_) *cell_ = v;
  }
  void Add(double delta) {
    if (cell_) *cell_ += delta;
  }
  double value() const { return cell_ ? *cell_ : 0.0; }

 private:
  friend class MetricRegistry;
  explicit Gauge(double* cell) : cell_(cell) {}
  double* cell_ = nullptr;
};

/// Typed histogram handle.
class Histogram {
 public:
  Histogram() = default;
  void Record(double value) {
    if (cell_) cell_->Record(value);
  }
  std::uint64_t Count() const { return cell_ ? cell_->count : 0; }
  double Percentile(double p) const { return cell_ ? cell_->Percentile(p) : 0.0; }
  double Mean() const { return cell_ ? cell_->Mean() : 0.0; }
  double Min() const { return cell_ ? cell_->min : 0.0; }
  double Max() const { return cell_ ? cell_->max : 0.0; }

 private:
  friend class MetricRegistry;
  explicit Histogram(HistogramCell* cell) : cell_(cell) {}
  HistogramCell* cell_ = nullptr;
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram, kCallbackGauge };

/// One exported metric value (histograms export count/mean/p50/p99/max).
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;                    // counter/gauge value, histogram count
  double hist_mean = 0.0;
  double hist_p50 = 0.0;
  double hist_p99 = 0.0;
  double hist_max = 0.0;
};

/// Point-in-time dump of a registry (or hub), sorted by metric name.
struct MetricsSnapshot {
  SimTime at = 0;
  std::vector<MetricValue> values;

  /// Writes `{"t_ns": ..., "metrics": {...}}` (one JSON object, no newline).
  void WriteJson(std::ostream& os) const;
  std::string Json() const;
};

/// Per-component metric registry.
///
/// Storage uses a deque so registered cells have stable addresses for the
/// lifetime of the registry; handles embed raw cell pointers.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  explicit MetricRegistry(std::string component) : component_(std::move(component)) {}

  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  const std::string& component() const { return component_; }
  void set_component(std::string name) { component_ = std::move(name); }

  /// Registers (or re-fetches) a typed metric.  Registering the same name
  /// twice returns a handle to the same cell; registering a name that exists
  /// with a different kind returns an inert handle.
  Counter RegisterCounter(const std::string& name);
  Gauge RegisterGauge(const std::string& name);
  Histogram RegisterHistogram(const std::string& name);

  /// Registers a gauge whose value is computed at snapshot time — zero
  /// hot-path cost for values that are already maintained elsewhere
  /// (mirror occupancy, table sizes, ...).
  void AddCallbackGauge(const std::string& name, std::function<double()> fn);

  // --- common::Counters-compatible string API (kept for benches/tests) ---
  void Add(const std::string& name, double delta = 1.0);
  double Get(const std::string& name) const;
  std::vector<std::pair<std::string, double>> Sorted() const;

  /// Zeroes all values but keeps registrations (handles stay valid).
  void Reset();

  MetricsSnapshot Snapshot(SimTime at = 0) const;

  // --- indexed access, in registration order ---
  // Metrics are never unregistered, so an index stays valid for the
  // registry's lifetime: a consumer can resolve names and kinds once and
  // then read values by index (FleetSampler).
  std::size_t NumMetrics() const { return entries_.size(); }
  const std::string& NameAt(std::size_t i) const { return entries_[i].name; }
  MetricKind KindAt(std::size_t i) const { return entries_[i].kind; }
  /// The scalar Get() returns: counter/gauge value, callback result, or
  /// histogram count.
  double ValueAt(std::size_t i) const { return ScalarOf(entries_[i]); }

 private:
  struct Entry {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    double scalar = 0.0;
    HistogramCell hist;
    std::function<double()> callback;
  };

  Entry* FindOrCreate(const std::string& name, MetricKind kind);
  static double ScalarOf(const Entry& e);

  std::string component_;
  std::deque<Entry> entries_;  // stable addresses
  std::unordered_map<std::string, std::size_t> index_;
};

/// Aggregates several (non-owning) component registries for merged snapshots.
/// Callers must Unregister (or UnwatchAll) before a watched registry dies.
class MetricsHub {
 public:
  void Register(const MetricRegistry* registry);
  void Unregister(const MetricRegistry* registry);
  void Clear() { registries_.clear(); }
  std::size_t NumRegistries() const { return registries_.size(); }
  const std::vector<const MetricRegistry*>& registries() const {
    return registries_;
  }

  /// Merged snapshot; metric names are prefixed "component.metric" and the
  /// result is sorted by name for deterministic export.
  MetricsSnapshot Snapshot(SimTime at) const;

 private:
  std::vector<const MetricRegistry*> registries_;  // registration order
};

/// Append-only log of snapshots, exported as time-series JSON.
class TimeSeriesLog {
 public:
  void Append(MetricsSnapshot snapshot) { snapshots_.push_back(std::move(snapshot)); }
  std::size_t Size() const { return snapshots_.size(); }
  bool Empty() const { return snapshots_.empty(); }
  const MetricsSnapshot& At(std::size_t i) const { return snapshots_[i]; }
  void Clear() { snapshots_.clear(); }

  /// Writes `{"series": [ {...}, ... ]}`.
  void WriteJson(std::ostream& os) const;
  std::string Json() const;

  /// Writes CSV: header `t_ns,<sorted union of metric names>`, one row per
  /// snapshot.  Histogram metrics export their count; metrics absent from a
  /// snapshot export as empty cells.  Metric names containing commas or
  /// quotes are double-quoted per RFC 4180.
  void WriteCsv(std::ostream& os) const;
  std::string Csv() const;

 private:
  std::vector<MetricsSnapshot> snapshots_;
};

}  // namespace redplane::obs
