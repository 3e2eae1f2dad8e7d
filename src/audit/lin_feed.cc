#include "audit/lin_feed.h"

#include <algorithm>
#include <string>
#include <vector>

namespace redplane::audit {

void LinearizabilityFeed::Input(std::uint64_t flow, std::uint64_t packet_id,
                                SimTime t) {
  auto& fh = flows_[flow];
  fh.recorder.Input(packet_id, t);
  fh.last_t = std::max(fh.last_t, t);
}

void LinearizabilityFeed::Output(std::uint64_t flow, std::uint64_t packet_id,
                                 SimTime t, std::uint64_t value) {
  auto& fh = flows_[flow];
  fh.recorder.Output(packet_id, t, value);
  fh.last_t = std::max(fh.last_t, t);
}

bool LinearizabilityFeed::CloseFlow(std::uint64_t flow) {
  auto it = flows_.find(flow);
  if (it == flows_.end()) return true;
  FlowHistory fh = std::move(it->second);
  flows_.erase(it);

  std::string why;
  const bool ok =
      modelcheck::CheckCounterLinearizable(fh.recorder.Sorted(), &why);
  if (!ok && auditor_ != nullptr) {
    obs::TraceRecord at;
    at.t = fh.last_t;
    at.ev = obs::Ev::kHistoryClosed;
    obs::Tracer* tracer = auditor_->tracer();
    at.component = tracer != nullptr ? tracer->Intern("lin_feed") : 0;
    at.flow = flow;
    at.seq = fh.recorder.NumInputs();
    auditor_->ReportViolation("linearizability", at, why);
  }
  return ok;
}

std::size_t LinearizabilityFeed::CloseAll() {
  std::vector<std::uint64_t> keys;
  keys.reserve(flows_.size());
  for (const auto& [flow, fh] : flows_) keys.push_back(flow);
  std::size_t failures = 0;
  for (std::uint64_t flow : keys) {
    if (!CloseFlow(flow)) ++failures;
  }
  return failures;
}

}  // namespace redplane::audit
