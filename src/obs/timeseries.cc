#include "obs/timeseries.h"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace redplane::obs {

bool FleetSampler::PlanIsCurrent() const {
  if (plans_.empty()) return false;
  const Plan& plan = plans_.back();
  const std::vector<const MetricRegistry*>& regs = hub_->registries();
  if (regs != plan.registries) return false;
  for (std::size_t i = 0; i < regs.size(); ++i) {
    if (regs[i]->NumMetrics() != plan.sizes[i]) return false;
  }
  return true;
}

void FleetSampler::Replan() {
  struct Named {
    std::string name;
    std::size_t raw;
    MetricKind kind;
  };
  Plan plan;
  plan.registries = hub_->registries();
  std::vector<Named> named;
  std::size_t raw = 0;
  for (const MetricRegistry* r : plan.registries) {
    plan.sizes.push_back(r->NumMetrics());
    // Same sequence as MetricsHub::Snapshot: sort each registry by name,
    // prefix, concatenate, sort again — so metrics sharing a prefixed name
    // (two registries with one component name) keep the hub's tie order.
    std::vector<Named> local;
    for (std::size_t i = 0; i < r->NumMetrics(); ++i) {
      local.push_back({r->NameAt(i), raw++, r->KindAt(i)});
    }
    std::sort(local.begin(), local.end(),
              [](const Named& a, const Named& b) { return a.name < b.name; });
    const std::string prefix =
        (r->component().empty() ? std::string("unnamed") : r->component()) +
        ".";
    for (Named& n : local) {
      n.name = prefix + n.name;
      named.push_back(std::move(n));
    }
  }
  std::sort(named.begin(), named.end(),
            [](const Named& a, const Named& b) { return a.name < b.name; });
  for (Named& n : named) {
    Column c;
    c.raw = n.raw;
    // Histograms export their count, so both kinds rate the same way.
    c.rated = n.kind == MetricKind::kCounter || n.kind == MetricKind::kHistogram;
    if (c.rated) {
      const auto [it, added] = base_index_.try_emplace(n.name, base_.size());
      if (added) base_.push_back(0.0);
      c.base = it->second;
      c.out_name = n.name + ".per_sec";
    } else {
      c.out_name = std::move(n.name);
    }
    plan.columns.push_back(std::move(c));
  }
  plans_.push_back(std::move(plan));
}

void FleetSampler::Sample(SimTime now) {
  if (!PlanIsCurrent()) Replan();
  const Plan& plan = plans_.back();
  // Read every value in registration order (callback gauges run in the
  // order a hub snapshot runs them), then emit in column order.
  raw_.clear();
  for (const MetricRegistry* r : plan.registries) {
    for (std::size_t i = 0; i < r->NumMetrics(); ++i) {
      raw_.push_back(r->ValueAt(i));
    }
  }
  const double dt_s = have_prev_ && now > prev_at_
                          ? static_cast<double>(now - prev_at_) / 1e9
                          : 0.0;
  Row row;
  row.at = now;
  row.plan = plans_.size() - 1;
  row.rated = dt_s > 0;
  row.values.reserve(plan.columns.size());
  for (const Column& c : plan.columns) {
    const double v = raw_[c.raw];
    if (!c.rated) {
      row.values.push_back(v);
      continue;
    }
    // Delta since the previous sample, scaled to one second.
    if (row.rated) row.values.push_back((v - base_[c.base]) / dt_s);
    base_[c.base] = v;
  }
  prev_at_ = now;
  have_prev_ = true;
  rows_.push_back(std::move(row));
}

void FleetSampler::WriteCsv(std::ostream& os) const {
  TimeSeriesLog log;
  for (const Row& row : rows_) {
    MetricsSnapshot snap;
    snap.at = row.at;
    std::size_t k = 0;
    for (const Column& c : plans_[row.plan].columns) {
      if (c.rated && !row.rated) continue;
      MetricValue mv;
      mv.name = c.out_name;
      mv.kind = MetricKind::kGauge;
      mv.value = row.values[k++];
      snap.values.push_back(std::move(mv));
    }
    log.Append(std::move(snap));
  }
  log.WriteCsv(os);
}

std::string FleetSampler::Csv() const {
  std::ostringstream oss;
  WriteCsv(oss);
  return oss.str();
}

}  // namespace redplane::obs
