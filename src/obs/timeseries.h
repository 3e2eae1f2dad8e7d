// Continuous fleet time-series telemetry.
//
// The MetricsHub snapshots raw monotonic counters; operators (and the
// rpreport recovery section) want *rates*: per-second per-switch goodput,
// lease churn (acquire/renew/handoff/deny per second), per-link replication
// bytes, store-shard queue depth, and timer-wheel / SoA-table occupancy.
// FleetSampler turns the hub's metrics into that view: sampled once per
// period, each counter metric becomes a `<name>.per_sec` rate (delta over
// the sampling interval, scaled to one second), each gauge / callback gauge
// passes through as a level, and each histogram contributes a
// `<name>.per_sec` of its count.  The series exports as CSV with the same
// schema the rest of the obs stack uses (TimeSeriesLog::WriteCsv in
// metrics.h), so rpreport and ci scripts parse it with the machinery they
// already have.
//
// Sampling is cheap because the hub's layout is planned once: the prefixed
// names, kinds, the name-sorted column order and the derived names are
// resolved when the sampler first sees the hub, and again only when a
// registry is added or removed, or registers a new metric (a string
// `Add(name)` can do that mid-run).  Each sample then reads one raw
// double per metric by index; names are only rendered when the CSV is
// written.
//
// All derived values are emitted as gauges: a rate is a level, not a
// monotonic count.
#pragma once

#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"

namespace redplane::obs {

class FleetSampler {
 public:
  /// `hub` must outlive the sampler; register every registry to export
  /// (switch stats, store stats, wheel/table gauges) before sampling.
  explicit FleetSampler(const MetricsHub* hub) : hub_(hub) {}

  /// Takes one sample at `now`.  The first call establishes the baseline
  /// (rates need a previous sample) and emits levels only.
  void Sample(SimTime now);

  std::size_t NumSamples() const { return rows_.size(); }

  /// Header `t_ns,<sorted union of derived names>`, one row per sample;
  /// a metric absent from a sample (no rates yet, or registered later)
  /// exports as an empty cell.
  void WriteCsv(std::ostream& os) const;
  std::string Csv() const;

 private:
  /// One hub metric in the hub snapshot's name-sorted order.
  struct Column {
    std::size_t raw = 0;   // index into the registration-order value read
    bool rated = false;    // counter/histogram: exported as a rate
    std::size_t base = 0;  // rate-baseline slot (rated columns only)
    std::string out_name;  // `<name>` or `<name>.per_sec`
  };
  /// The hub's layout as of one (re)plan.
  struct Plan {
    std::vector<const MetricRegistry*> registries;
    std::vector<std::size_t> sizes;
    std::vector<Column> columns;
  };
  /// One sample: the emitted values in column order (rated columns only
  /// when the sample has rates).
  struct Row {
    SimTime at = 0;
    std::size_t plan = 0;
    bool rated = false;
    std::vector<double> values;
  };

  bool PlanIsCurrent() const;
  void Replan();

  const MetricsHub* hub_;
  std::vector<Plan> plans_;
  std::vector<Row> rows_;
  /// Rate baseline: previous counter/histogram-count value per metric name
  /// (`base_index_` maps a name to its slot in `base_`; persists across
  /// re-plans, so a re-registered metric rates against its old value).
  std::unordered_map<std::string, std::size_t> base_index_;
  std::vector<double> base_;
  std::vector<double> raw_;  // scratch: one sample's values
  SimTime prev_at_ = 0;
  bool have_prev_ = false;
};

}  // namespace redplane::obs
