#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "obs/json.h"

namespace redplane::obs {

namespace {

// Maps a positive value to its log-linear bucket index in
// [0, HistogramCell::kNumBuckets).
int BucketIndex(double value) {
  const double scaled =
      std::log2(value) * HistogramCell::kSubBucketsPerOctave;
  int idx = static_cast<int>(std::floor(scaled)) -
            HistogramCell::kMinExponent * HistogramCell::kSubBucketsPerOctave;
  if (idx < 0) idx = 0;
  if (idx >= HistogramCell::kNumBuckets) idx = HistogramCell::kNumBuckets - 1;
  return idx;
}

// Lower/upper value bounds of bucket `idx`.
double BucketLower(int idx) {
  const double exp =
      static_cast<double>(idx + HistogramCell::kMinExponent *
                                    HistogramCell::kSubBucketsPerOctave) /
      HistogramCell::kSubBucketsPerOctave;
  return std::exp2(exp);
}

}  // namespace

void HistogramCell::Record(double value) {
  if (count == 0) {
    min = max = value;
  } else {
    if (value < min) min = value;
    if (value > max) max = value;
  }
  ++count;
  sum += value;
  if (value <= 0.0) {
    ++zero_or_less;
    return;
  }
  if (buckets.empty()) buckets.assign(kNumBuckets, 0);
  ++buckets[BucketIndex(value)];
}

double HistogramCell::Percentile(double p) const {
  if (count == 0) return 0.0;
  if (p <= 0.0) return min;
  if (p >= 100.0) return max;
  // Rank in [0, count): same convention as SampleSet (rank p/100*(n-1)).
  const double rank = p / 100.0 * static_cast<double>(count - 1);
  double seen = static_cast<double>(zero_or_less);
  if (rank < seen) return std::min(0.0, min);
  for (int i = 0; i < kNumBuckets && !buckets.empty(); ++i) {
    const double in_bucket = static_cast<double>(buckets[static_cast<std::size_t>(i)]);
    if (in_bucket == 0.0) continue;
    if (rank < seen + in_bucket) {
      // Interpolate within the bucket, clamped to the observed range.
      const double frac = (rank - seen) / in_bucket;
      const double lo = BucketLower(i);
      const double hi = BucketLower(i + 1);
      double v = lo + frac * (hi - lo);
      if (v < min) v = min;
      if (v > max) v = max;
      return v;
    }
    seen += in_bucket;
  }
  return max;
}

void HistogramCell::Merge(const HistogramCell& other) {
  if (other.count == 0) return;
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else {
    if (other.min < min) min = other.min;
    if (other.max > max) max = other.max;
  }
  count += other.count;
  sum += other.sum;
  zero_or_less += other.zero_or_less;
  if (!other.buckets.empty()) {
    if (buckets.empty()) buckets.assign(kNumBuckets, 0);
    for (int i = 0; i < kNumBuckets; ++i) {
      buckets[static_cast<std::size_t>(i)] +=
          other.buckets[static_cast<std::size_t>(i)];
    }
  }
}

void HistogramCell::Reset() {
  count = 0;
  sum = 0.0;
  min = 0.0;
  max = 0.0;
  zero_or_less = 0;
  buckets.clear();
}

MetricRegistry::Entry* MetricRegistry::FindOrCreate(const std::string& name,
                                                    MetricKind kind) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    Entry& e = entries_[it->second];
    return e.kind == kind ? &e : nullptr;
  }
  entries_.emplace_back();
  Entry& e = entries_.back();
  e.name = name;
  e.kind = kind;
  index_.emplace(name, entries_.size() - 1);
  return &e;
}

Counter MetricRegistry::RegisterCounter(const std::string& name) {
  Entry* e = FindOrCreate(name, MetricKind::kCounter);
  return e ? Counter(&e->scalar) : Counter();
}

Gauge MetricRegistry::RegisterGauge(const std::string& name) {
  Entry* e = FindOrCreate(name, MetricKind::kGauge);
  return e ? Gauge(&e->scalar) : Gauge();
}

Histogram MetricRegistry::RegisterHistogram(const std::string& name) {
  Entry* e = FindOrCreate(name, MetricKind::kHistogram);
  return e ? Histogram(&e->hist) : Histogram();
}

void MetricRegistry::AddCallbackGauge(const std::string& name,
                                      std::function<double()> fn) {
  Entry* e = FindOrCreate(name, MetricKind::kCallbackGauge);
  if (e) e->callback = std::move(fn);
}

void MetricRegistry::Add(const std::string& name, double delta) {
  Entry* e = FindOrCreate(name, MetricKind::kCounter);
  if (e) e->scalar += delta;
}

double MetricRegistry::Get(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? 0.0 : ScalarOf(entries_[it->second]);
}

double MetricRegistry::ScalarOf(const Entry& e) {
  switch (e.kind) {
    case MetricKind::kCounter:
    case MetricKind::kGauge:
      return e.scalar;
    case MetricKind::kCallbackGauge:
      return e.callback ? e.callback() : 0.0;
    case MetricKind::kHistogram:
      return static_cast<double>(e.hist.count);
  }
  return 0.0;
}

std::vector<std::pair<std::string, double>> MetricRegistry::Sorted() const {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.emplace_back(e.name, ScalarOf(e));
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void MetricRegistry::Reset() {
  for (Entry& e : entries_) {
    e.scalar = 0.0;
    e.hist.Reset();
  }
}

MetricsSnapshot MetricRegistry::Snapshot(SimTime at) const {
  MetricsSnapshot snap;
  snap.at = at;
  snap.values.reserve(entries_.size());
  for (const Entry& e : entries_) {
    MetricValue mv;
    mv.name = e.name;
    mv.kind = e.kind;
    switch (e.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        mv.value = e.scalar;
        break;
      case MetricKind::kCallbackGauge:
        mv.value = e.callback ? e.callback() : 0.0;
        break;
      case MetricKind::kHistogram:
        mv.value = static_cast<double>(e.hist.count);
        mv.hist_mean = e.hist.Mean();
        mv.hist_p50 = e.hist.Percentile(50.0);
        mv.hist_p99 = e.hist.Percentile(99.0);
        mv.hist_max = e.hist.max;
        break;
    }
    snap.values.push_back(std::move(mv));
  }
  std::sort(snap.values.begin(), snap.values.end(),
            [](const MetricValue& a, const MetricValue& b) { return a.name < b.name; });
  return snap;
}

void MetricsSnapshot::WriteJson(std::ostream& os) const {
  os << "{\"t_ns\": " << at << ", \"metrics\": {";
  bool first = true;
  for (const MetricValue& v : values) {
    if (!first) os << ", ";
    first = false;
    os << '"' << JsonEscape(v.name) << "\": ";
    if (v.kind == MetricKind::kHistogram) {
      os << "{\"count\": " << JsonNumber(v.value)
         << ", \"mean\": " << JsonNumber(v.hist_mean)
         << ", \"p50\": " << JsonNumber(v.hist_p50)
         << ", \"p99\": " << JsonNumber(v.hist_p99)
         << ", \"max\": " << JsonNumber(v.hist_max) << '}';
    } else {
      os << JsonNumber(v.value);
    }
  }
  os << "}}";
}

void MetricsHub::Register(const MetricRegistry* registry) {
  if (!registry) return;
  for (const MetricRegistry* r : registries_) {
    if (r == registry) return;
  }
  registries_.push_back(registry);
}

void MetricsHub::Unregister(const MetricRegistry* registry) {
  registries_.erase(std::remove(registries_.begin(), registries_.end(), registry),
                    registries_.end());
}

MetricsSnapshot MetricsHub::Snapshot(SimTime at) const {
  MetricsSnapshot merged;
  merged.at = at;
  for (const MetricRegistry* r : registries_) {
    MetricsSnapshot snap = r->Snapshot(at);
    const std::string& prefix =
        r->component().empty() ? std::string("unnamed") : r->component();
    for (MetricValue& v : snap.values) {
      v.name = prefix + "." + v.name;
      merged.values.push_back(std::move(v));
    }
  }
  std::sort(merged.values.begin(), merged.values.end(),
            [](const MetricValue& a, const MetricValue& b) { return a.name < b.name; });
  return merged;
}

void TimeSeriesLog::WriteJson(std::ostream& os) const {
  os << "{\"series\": [";
  for (std::size_t i = 0; i < snapshots_.size(); ++i) {
    if (i) os << ",";
    os << "\n  ";
    snapshots_[i].WriteJson(os);
  }
  os << "\n]}\n";
}

std::string TimeSeriesLog::Json() const {
  std::ostringstream oss;
  WriteJson(oss);
  return oss.str();
}

namespace {

void WriteCsvField(std::ostream& os, const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) {
    os << s;
    return;
  }
  os << '"';
  for (char c : s) {
    if (c == '"') os << '"';
    os << c;
  }
  os << '"';
}

}  // namespace

void TimeSeriesLog::WriteCsv(std::ostream& os) const {
  // Column set: sorted union of metric names across all snapshots (late
  // registrations would otherwise shift columns mid-file).
  std::vector<std::string> columns;
  for (const MetricsSnapshot& snap : snapshots_) {
    for (const MetricValue& v : snap.values) columns.push_back(v.name);
  }
  std::sort(columns.begin(), columns.end());
  columns.erase(std::unique(columns.begin(), columns.end()), columns.end());
  os << "t_ns";
  for (const std::string& c : columns) {
    os << ',';
    WriteCsvField(os, c);
  }
  os << '\n';
  for (const MetricsSnapshot& snap : snapshots_) {
    os << snap.at;
    // Snapshot values are sorted by name, so a two-pointer walk lines each
    // row up against the column union.
    std::size_t vi = 0;
    for (const std::string& c : columns) {
      os << ',';
      while (vi < snap.values.size() && snap.values[vi].name < c) ++vi;
      if (vi < snap.values.size() && snap.values[vi].name == c) {
        os << JsonNumber(snap.values[vi].value);
      }
    }
    os << '\n';
  }
}

std::string TimeSeriesLog::Csv() const {
  std::ostringstream oss;
  WriteCsv(oss);
  return oss.str();
}

std::string MetricsSnapshot::Json() const {
  std::ostringstream oss;
  WriteJson(oss);
  return oss.str();
}

}  // namespace redplane::obs
