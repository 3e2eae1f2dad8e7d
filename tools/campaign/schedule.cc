#include "tools/campaign/schedule.h"

#include <sstream>

#include "common/rng.h"
#include "obs/json.h"

namespace redplane::campaign {

namespace {

constexpr const char* kFaultNames[kNumFaultKinds] = {
    "switch_crash", "link_cut",  "store_crash", "slow_shard",
    "asym_loss",    "partition", "capacity",    "ecmp_rehash",
};

constexpr const char* kLoadNames[kNumLoadKinds] = {
    "flash_crowd",
    "lease_churn",
    "syn_flood",
};

}  // namespace

const char* FaultKindName(FaultKind kind) {
  const int i = static_cast<int>(kind);
  return i >= 0 && i < kNumFaultKinds ? kFaultNames[i] : "unknown";
}

std::optional<FaultKind> FaultKindFromName(std::string_view name) {
  for (int i = 0; i < kNumFaultKinds; ++i) {
    if (name == kFaultNames[i]) return static_cast<FaultKind>(i);
  }
  return std::nullopt;
}

const char* LoadKindName(LoadKind kind) {
  const int i = static_cast<int>(kind);
  return i >= 0 && i < kNumLoadKinds ? kLoadNames[i] : "unknown";
}

std::optional<LoadKind> LoadKindFromName(std::string_view name) {
  for (int i = 0; i < kNumLoadKinds; ++i) {
    if (name == kLoadNames[i]) return static_cast<LoadKind>(i);
  }
  return std::nullopt;
}

const char* FuzzClassName(FuzzClass c) {
  switch (c) {
    case FuzzClass::kMixed: return "mixed";
    case FuzzClass::kGray: return "gray";
    case FuzzClass::kChurn: return "churn";
    case FuzzClass::kFlash: return "flash";
    case FuzzClass::kCapacity: return "capacity";
  }
  return "unknown";
}

std::optional<FuzzClass> FuzzClassFromName(std::string_view name) {
  for (const FuzzClass c : {FuzzClass::kMixed, FuzzClass::kGray,
                            FuzzClass::kChurn, FuzzClass::kFlash,
                            FuzzClass::kCapacity}) {
    if (name == FuzzClassName(c)) return c;
  }
  return std::nullopt;
}

std::string ToJson(const Schedule& schedule) {
  std::ostringstream os;
  os << "{\"seed\": " << schedule.seed
     << ", \"packets_per_flow\": " << schedule.packets_per_flow;
  if (schedule.lease != Schedule{}.lease) {
    os << ", \"lease_ns\": " << schedule.lease;
  }
  os << ",\n";
  os << " \"faults\": [";
  for (std::size_t i = 0; i < schedule.faults.size(); ++i) {
    const FaultEvent& ev = schedule.faults[i];
    os << (i ? ",\n   " : "\n   ") << "{\"kind\": \"" << FaultKindName(ev.kind)
       << "\", \"at_ns\": " << ev.at << ", \"clear_at_ns\": " << ev.clear_at
       << ", \"magnitude\": " << obs::JsonNumber(ev.magnitude)
       << ", \"target\": " << ev.target << "}";
  }
  os << (schedule.faults.empty() ? "]" : "\n ]") << ",\n";
  os << " \"loads\": [";
  for (std::size_t i = 0; i < schedule.loads.size(); ++i) {
    const LoadPhase& ph = schedule.loads[i];
    os << (i ? ",\n   " : "\n   ") << "{\"kind\": \"" << LoadKindName(ph.kind)
       << "\", \"at_ns\": " << ph.at << ", \"duration_ns\": " << ph.duration
       << ", \"intensity\": " << ph.intensity << "}";
  }
  os << (schedule.loads.empty() ? "]" : "\n ]") << "}\n";
  return os.str();
}

std::optional<Schedule> ScheduleFromJson(std::string_view text) {
  const std::optional<obs::JsonValue> doc = obs::ParseJson(text);
  if (!doc.has_value() || !doc->IsObject()) return std::nullopt;
  Schedule sched;
  sched.seed = static_cast<std::uint64_t>(doc->NumberOr("seed", 42));
  sched.packets_per_flow =
      static_cast<int>(doc->NumberOr("packets_per_flow", 40));
  sched.lease = static_cast<SimDuration>(
      doc->NumberOr("lease_ns", static_cast<double>(sched.lease)));
  if (sched.packets_per_flow < 1 || sched.lease <= 0) return std::nullopt;

  const obs::JsonValue* faults = doc->Find("faults");
  if (faults != nullptr) {
    if (!faults->IsArray()) return std::nullopt;
    for (const obs::JsonValue& v : faults->array) {
      if (!v.IsObject()) return std::nullopt;
      const auto kind = FaultKindFromName(v.StringOr("kind", ""));
      if (!kind.has_value()) return std::nullopt;
      FaultEvent ev;
      ev.kind = *kind;
      ev.at = static_cast<SimDuration>(v.NumberOr("at_ns", 0));
      ev.clear_at = static_cast<SimDuration>(v.NumberOr("clear_at_ns", -1));
      ev.magnitude = v.NumberOr("magnitude", 0.0);
      ev.target = static_cast<int>(v.NumberOr("target", 0));
      if (ev.at < 0) return std::nullopt;
      sched.faults.push_back(ev);
    }
  }
  const obs::JsonValue* loads = doc->Find("loads");
  if (loads != nullptr) {
    if (!loads->IsArray()) return std::nullopt;
    for (const obs::JsonValue& v : loads->array) {
      if (!v.IsObject()) return std::nullopt;
      const auto kind = LoadKindFromName(v.StringOr("kind", ""));
      if (!kind.has_value()) return std::nullopt;
      LoadPhase ph;
      ph.kind = *kind;
      ph.at = static_cast<SimDuration>(v.NumberOr("at_ns", 0));
      ph.duration = static_cast<SimDuration>(
          v.NumberOr("duration_ns", Milliseconds(5)));
      ph.intensity = static_cast<std::size_t>(v.NumberOr("intensity", 16));
      if (ph.at < 0 || ph.duration <= 0 || ph.intensity == 0) {
        return std::nullopt;
      }
      sched.loads.push_back(ph);
    }
  }
  return sched;
}

namespace {

/// One random fault of `kind` with a well-formed [at, clear_at) window.
FaultEvent DrawFault(Rng& rng, FaultKind kind) {
  FaultEvent ev;
  ev.kind = kind;
  // Inject inside [2 ms, 40 ms) after t0 and always heal before 70 ms so
  // the drain tail (150 ms of horizon) sees a recovered system.
  ev.at = Milliseconds(2) + static_cast<SimDuration>(
                                rng.NextBounded(Milliseconds(38)));
  ev.clear_at = ev.at + Milliseconds(5) +
                static_cast<SimDuration>(rng.NextBounded(Milliseconds(25)));
  ev.target = static_cast<int>(rng.NextBounded(2));
  switch (kind) {
    case FaultKind::kSlowShard:
      // Factor in [2, 20]: slow enough to matter against the lease period,
      // bounded so the store still drains its queue inside the run.
      ev.magnitude = 2.0 + static_cast<double>(rng.NextBounded(19));
      break;
    case FaultKind::kAsymLoss:
      ev.magnitude = 0.2 + 0.06 * static_cast<double>(rng.NextBounded(11));
      break;
    case FaultKind::kPartition:
      ev.magnitude = 1.0;
      break;
    case FaultKind::kCapacity:
      // Cap >= 8: the 4 established base flows stay admitted; the pressure
      // lands on load-phase newcomers.
      ev.magnitude = static_cast<double>(8 + rng.NextBounded(25));
      break;
    case FaultKind::kEcmpRehash:
      ev.magnitude = static_cast<double>(1 + rng.NextBounded(1u << 16));
      break;
    case FaultKind::kSwitchCrash:
    case FaultKind::kLinkCut:
    case FaultKind::kStoreCrash:
      break;
  }
  return ev;
}

LoadPhase DrawLoad(Rng& rng, LoadKind kind) {
  LoadPhase ph;
  ph.kind = kind;
  ph.at = static_cast<SimDuration>(rng.NextBounded(Milliseconds(30)));
  switch (kind) {
    case LoadKind::kFlashCrowd:
      ph.duration = Milliseconds(3) + static_cast<SimDuration>(
                                          rng.NextBounded(Milliseconds(5)));
      ph.intensity = 8 + rng.NextBounded(25);
      break;
    case LoadKind::kLeaseChurn:
      ph.duration = Milliseconds(12) + static_cast<SimDuration>(
                                           rng.NextBounded(Milliseconds(20)));
      ph.intensity = 2 + rng.NextBounded(4);
      break;
    case LoadKind::kSynFlood:
      ph.duration = Milliseconds(2) + static_cast<SimDuration>(
                                          rng.NextBounded(Milliseconds(4)));
      ph.intensity = 64 + rng.NextBounded(129);
      break;
  }
  return ph;
}

}  // namespace

Schedule GenerateSchedule(std::uint64_t seed, const GeneratorConfig& config) {
  // Fork a dedicated stream so the draw count here never perturbs the
  // testbed RNG the runner seeds with the same value.
  Rng base(seed);
  Rng rng = base.Fork(0x5eed5c4ed);
  Schedule sched;
  sched.seed = seed;
  sched.packets_per_flow = config.packets_per_flow;

  switch (config.focus) {
    case FuzzClass::kGray: {
      const FaultKind gray[] = {FaultKind::kSlowShard, FaultKind::kAsymLoss,
                                FaultKind::kPartition};
      const std::size_t n = 1 + rng.NextBounded(3);
      for (std::size_t i = 0; i < n; ++i) {
        sched.faults.push_back(DrawFault(rng, gray[rng.NextBounded(3)]));
      }
      if (rng.Bernoulli(0.5)) {
        sched.loads.push_back(DrawLoad(rng, LoadKind::kFlashCrowd));
      }
      break;
    }
    case FuzzClass::kChurn: {
      const std::size_t n = 2 + rng.NextBounded(3);
      for (std::size_t i = 0; i < n; ++i) {
        sched.faults.push_back(DrawFault(rng, FaultKind::kEcmpRehash));
      }
      sched.loads.push_back(DrawLoad(rng, LoadKind::kLeaseChurn));
      break;
    }
    case FuzzClass::kFlash: {
      // The class is "flash crowds + a crash mid-crowd" — the crash is what
      // forces failover replay under admission pile-up, so it is always
      // drawn (a crowd alone never reaches the replay path, and the class
      // mutation self-test in CI depends on reaching it from any seed).
      sched.loads.push_back(DrawLoad(rng, LoadKind::kFlashCrowd));
      sched.faults.push_back(DrawFault(rng, FaultKind::kSwitchCrash));
      if (rng.Bernoulli(0.4)) {
        sched.loads.push_back(DrawLoad(rng, LoadKind::kSynFlood));
      }
      break;
    }
    case FuzzClass::kCapacity: {
      sched.faults.push_back(DrawFault(rng, FaultKind::kCapacity));
      sched.loads.push_back(DrawLoad(rng, LoadKind::kFlashCrowd));
      if (rng.Bernoulli(0.5)) {
        sched.faults.push_back(DrawFault(rng, FaultKind::kEcmpRehash));
      }
      break;
    }
    case FuzzClass::kMixed: {
      const std::size_t num_faults = 1 + rng.NextBounded(3);
      for (std::size_t i = 0; i < num_faults; ++i) {
        sched.faults.push_back(DrawFault(
            rng, static_cast<FaultKind>(rng.NextBounded(kNumFaultKinds))));
      }
      const std::size_t num_loads = rng.NextBounded(3);
      for (std::size_t i = 0; i < num_loads; ++i) {
        sched.loads.push_back(DrawLoad(
            rng, static_cast<LoadKind>(rng.NextBounded(kNumLoadKinds))));
      }
      break;
    }
  }
  return sched;
}

}  // namespace redplane::campaign
