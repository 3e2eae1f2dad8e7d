#include "audit/monitors.h"

#include <algorithm>
#include <sstream>

#include "common/hash.h"
// Header-only use (the ConsistencyMode enum); audit does not link core.
#include "core/consistency.h"

namespace redplane::audit {

void SingleOwnerMonitor::OnEvent(Auditor& auditor, const obs::TraceRecord& ev) {
  switch (ev.ev) {
    case obs::Ev::kFlowAdmitted: {
      // Per-mode subscription: a flow admitted under a weaker mode is
      // exempt from the single-owner invariant for good (modes are an app
      // property, so a key never changes mode mid-run).
      if (ev.aux != static_cast<std::uint64_t>(
                        core::ConsistencyMode::kSingleOwner)) {
        exempt_[ev.flow] = true;
        holders_.erase(ev.flow);
      }
      break;
    }
    case obs::Ev::kLeaseAcquired: {
      if (exempt_.count(ev.flow) != 0) break;
      auto& holders = holders_[ev.flow];
      // Prune claims whose believed expiry has certainly passed.  Switch
      // beliefs are conservative (send-time based), so the store never
      // grants a new lease before an old claim's believed expiry.
      holders.erase(std::remove_if(holders.begin(), holders.end(),
                                   [&](const Holder& h) {
                                     return h.expiry <= ev.t &&
                                            h.component != ev.component;
                                   }),
                    holders.end());
      const auto expiry = static_cast<SimTime>(ev.aux);
      bool updated = false;
      for (auto& h : holders) {
        if (h.component == ev.component) {
          h.expiry = std::max(h.expiry, expiry);
          updated = true;
        } else if (h.expiry > ev.t) {
          std::ostringstream why;
          why << "two live lease claims on key 0x" << std::hex << ev.flow
              << std::dec << ": " << auditor.ComponentName(h.component)
              << " (believes expiry t=" << h.expiry << "ns) and "
              << auditor.ComponentName(ev.component)
              << " (acquired at t=" << ev.t << "ns, expiry t=" << expiry
              << "ns)";
          auditor.ReportViolation(name(), ev, why.str());
        }
      }
      if (!updated) holders.push_back({ev.component, expiry});
      break;
    }
    case obs::Ev::kLeaseReleased: {
      if (ev.flow == 0) {
        // Component dropped its whole flow table (reset / fail-stop).
        for (auto& [key, holders] : holders_) {
          holders.erase(std::remove_if(holders.begin(), holders.end(),
                                       [&](const Holder& h) {
                                         return h.component == ev.component;
                                       }),
                        holders.end());
        }
      } else {
        auto it = holders_.find(ev.flow);
        if (it == holders_.end()) break;
        auto& holders = it->second;
        holders.erase(std::remove_if(holders.begin(), holders.end(),
                                     [&](const Holder& h) {
                                       return h.component == ev.component;
                                     }),
                      holders.end());
      }
      break;
    }
    default:
      break;
  }
}

void SeqMonotonicMonitor::OnEvent(Auditor& auditor,
                                   const obs::TraceRecord& ev) {
  switch (ev.ev) {
    case obs::Ev::kStoreApplied: {
      const std::uint64_t slot = HashCombine(
          HashCombine(ev.flow, static_cast<std::uint64_t>(ev.component)),
          epoch_[ev.component]);
      auto [it, inserted] = last_applied_.try_emplace(slot, ev.seq);
      if (!inserted) {
        if (ev.seq <= it->second) {
          std::ostringstream why;
          why << auditor.ComponentName(ev.component) << " applied seq "
              << ev.seq << " for key 0x" << std::hex << ev.flow << std::dec
              << " but already applied seq " << it->second
              << " — the sequence filter regressed";
          auditor.ReportViolation(name(), ev, why.str());
        }
        it->second = std::max(it->second, ev.seq);
      }
      break;
    }
    case obs::Ev::kStoreReset: {
      // The replica's DRAM records are gone; it will legitimately
      // re-baseline from chain resync.  Bump its epoch so all its old
      // baselines become unreachable.
      ++epoch_[ev.component];
      break;
    }
    default:
      break;
  }
}

void ChainCommitMonitor::OnEvent(Auditor& auditor, const obs::TraceRecord& ev) {
  switch (ev.ev) {
    case obs::Ev::kTailCommit:
    case obs::Ev::kDupAckDurable:
    case obs::Ev::kResyncCommit: {
      auto& committed = committed_[ev.flow];
      committed = std::max(committed, ev.seq);
      break;
    }
    case obs::Ev::kAckReleased: {
      if (ev.seq == 0) break;  // reads / lease-only acks carry no write seq
      auto it = committed_.find(ev.flow);
      const std::uint64_t committed = it == committed_.end() ? 0 : it->second;
      if (ev.seq > committed) {
        std::ostringstream why;
        why << auditor.ComponentName(ev.component) << " released output for "
            << "key 0x" << std::hex << ev.flow << std::dec << " seq " << ev.seq
            << " but the chain tail has only committed up to seq " << committed
            << " — ack escaped before chain-wide durability";
        auditor.ReportViolation(name(), ev, why.str());
      }
      break;
    }
    default:
      break;
  }
}

void EpsilonBoundMonitor::OnEvent(Auditor& auditor,
                                   const obs::TraceRecord& ev) {
  if (ev.ev != obs::Ev::kEpsilonSample) return;
  const double staleness_ns = ev.arg;
  const double bound_ns = static_cast<double>(ev.aux);
  bool& latched = in_violation_[ev.flow];
  if (staleness_ns > bound_ns && bound_ns > 0.0) {
    if (!latched) {
      latched = true;
      std::ostringstream why;
      why << "observed staleness " << staleness_ns / 1e6 << "ms exceeds ε = "
          << bound_ns / 1e6 << "ms for key 0x" << std::hex << ev.flow
          << std::dec;
      auditor.ReportViolation(name(), ev, why.str());
    }
  } else {
    latched = false;
  }
}

void BoundedStalenessMonitor::OnEvent(Auditor& auditor,
                                       const obs::TraceRecord& ev) {
  switch (ev.ev) {
    case obs::Ev::kFlowAdmitted: {
      mode_[ev.flow] = ev.aux;
      break;
    }
    case obs::Ev::kLocalReadServed: {
      const auto it = mode_.find(ev.flow);
      // Only flows admitted under replicated-read carry a staleness
      // contract; local reads of mergeable flows (or of unannounced keys)
      // are legal at any staleness.
      if (it == mode_.end() ||
          it->second != static_cast<std::uint64_t>(
                            core::ConsistencyMode::kReplicatedRead)) {
        break;
      }
      const double staleness_ns = ev.arg;
      const double bound_ns = static_cast<double>(ev.aux);
      bool& latched = in_violation_[ev.flow];
      if (bound_ns > 0.0 && staleness_ns > bound_ns) {
        if (!latched) {
          latched = true;
          std::ostringstream why;
          why << auditor.ComponentName(ev.component)
              << " served a local read at staleness " << staleness_ns / 1e6
              << "ms, beyond the declared bound " << bound_ns / 1e6
              << "ms for key 0x" << std::hex << ev.flow << std::dec;
          auditor.ReportViolation(name(), ev, why.str());
        }
      } else {
        latched = false;
      }
      break;
    }
    default:
      break;
  }
}

void MergeConvergenceMonitor::OnEvent(Auditor& auditor,
                                       const obs::TraceRecord& ev) {
  switch (ev.ev) {
    case obs::Ev::kMergeApplied: {
      const std::uint64_t slot = HashCombine(
          HashCombine(ev.flow, static_cast<std::uint64_t>(ev.component)),
          epoch_[ev.component]);
      auto [it, inserted] = measure_.try_emplace(slot, ev.arg);
      if (!inserted) {
        if (ev.arg < it->second) {
          std::ostringstream why;
          why << auditor.ComponentName(ev.component)
              << " merged key 0x" << std::hex << ev.flow << std::dec
              << " down the lattice: measure went " << it->second << " -> "
              << ev.arg << " — the store overwrote instead of joining";
          auditor.ReportViolation(name(), ev, why.str());
        }
        it->second = std::max(it->second, ev.arg);
      }
      break;
    }
    case obs::Ev::kStoreReset: {
      ++epoch_[ev.component];
      break;
    }
    default:
      break;
  }
}

}  // namespace redplane::audit
