#include "audit/diag.h"

#include <algorithm>
#include <ostream>

#include "obs/events.h"

namespace redplane::audit {

DiagRegistry& DiagRegistry::Instance() {
  thread_local DiagRegistry instance;
  return instance;
}

std::uint64_t DiagRegistry::Register(std::string title,
                                     std::function<void(std::ostream&)> fn) {
  const std::uint64_t id = next_id_++;
  entries_.push_back({id, std::move(title), std::move(fn)});
  return id;
}

void DiagRegistry::Unregister(std::uint64_t id) {
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [id](const Entry& e) { return e.id == id; }),
                 entries_.end());
}

void DiagRegistry::DumpAll(std::ostream& os) const {
  for (const auto& e : entries_) {
    os << "---- " << e.title << " ----\n";
    e.fn(os);
  }
}

std::size_t DiagRegistry::Size() const { return entries_.size(); }

void DumpTracerTail(std::ostream& os, const obs::Tracer& tracer,
                    std::size_t last_n) {
  const auto records = tracer.Records();
  const std::size_t n = std::min(last_n, records.size());
  os << "last " << n << " of " << records.size() << " ring events, "
     << tracer.evicted() << " evicted\n";
  for (std::size_t i = records.size() - n; i < records.size(); ++i) {
    const auto& r = records[i];
    os << "  t=" << r.t << "ns  " << tracer.ComponentName(r.component) << "  "
       << obs::EvName(r.ev) << "  flow=0x" << std::hex << r.flow << std::dec
       << " seq=" << r.seq;
    if (r.arg != 0.0) os << " arg=" << r.arg;
    os << "\n";
  }
}

void DumpDiagnostics(std::ostream& os) {
  os << "======== redplane diagnostics ========\n";
  DiagRegistry::Instance().DumpAll(os);
  os << "======================================\n";
}

}  // namespace redplane::audit
