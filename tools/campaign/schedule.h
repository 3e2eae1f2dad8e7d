// Fuzz-campaign schedules (DESIGN.md §15).
//
// A Schedule is the serializable unit the adversarial engine works in: a
// seeded composition of fault events (crashes, link cuts, gray failures,
// ECMP re-salts) and adversarial load phases (flash crowds, lease-churn
// bursts, SYN floods) laid out on a timeline relative to the run's fault
// epoch.  The generator draws one from a seed; the runner executes it
// against any consistency mode; the minimizer deletes events from it; and
// the JSON round-trip makes every failing schedule a replayable artifact
// (tests/schedules/*.json are minimized repros committed as regressions).
//
// All times are relative to the fault epoch t0 (end of traffic warmup), so
// a schedule is meaningful independent of warmup length.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace redplane::campaign {

enum class FaultKind : std::uint8_t {
  kSwitchCrash = 0,  ///< fail an aggregation switch (target picks which)
  kLinkCut,          ///< cut the core<->agg fabric link
  kStoreCrash,       ///< kill a store chain replica (target: chain index)
  kSlowShard,        ///< gray: store service time x magnitude
  kAsymLoss,         ///< gray: one-direction loss at rate `magnitude`
  kPartition,        ///< gray: one-way blackhole (loss 1.0)
  kCapacity,         ///< gray: store admits at most `magnitude` flows
  kEcmpRehash,       ///< re-salt ECMP so flows land on the other switch
};
inline constexpr int kNumFaultKinds = static_cast<int>(FaultKind::kEcmpRehash) + 1;

const char* FaultKindName(FaultKind kind);
std::optional<FaultKind> FaultKindFromName(std::string_view name);

struct FaultEvent {
  FaultKind kind = FaultKind::kSwitchCrash;
  /// Injection time relative to the fault epoch t0.
  SimDuration at = 0;
  /// Heal time relative to t0; negative = never heals inside the run.
  SimDuration clear_at = -1;
  /// Kind-specific magnitude: loss rate, service-time factor, flow cap,
  /// or ECMP salt.
  double magnitude = 0.0;
  /// Kind-specific target index (agg switch, link, chain position).
  int target = 0;
};

enum class LoadKind : std::uint8_t {
  kFlashCrowd = 0,  ///< burst of brand-new flows (store Init pile-up)
  kLeaseChurn,      ///< persistent flows + ECMP re-salts between bursts
  kSynFlood,        ///< spoofed-source SYNs, one flow-table entry each
};
inline constexpr int kNumLoadKinds = static_cast<int>(LoadKind::kSynFlood) + 1;

const char* LoadKindName(LoadKind kind);
std::optional<LoadKind> LoadKindFromName(std::string_view name);

struct LoadPhase {
  LoadKind kind = LoadKind::kFlashCrowd;
  /// Phase start relative to t0.
  SimDuration at = 0;
  SimDuration duration = Milliseconds(5);
  /// Kind-specific scale: flows for a crowd/churn phase, packets for a
  /// SYN flood.
  std::size_t intensity = 16;
};

struct Schedule {
  /// Drives both the testbed RNG and the load-phase generators; the
  /// (seed, schedule) pair replays bit-identically (trace_hash equal).
  std::uint64_t seed = 42;
  /// Base-traffic rounds per flow (the --packets flag for drawn schedules).
  int packets_per_flow = 40;
  /// Lease period of the store and both switches (renewal at half of it).
  /// Optional in the JSON ("lease_ns"); a short lease puts a fault near a
  /// lease boundary.
  SimDuration lease = Milliseconds(50);
  std::vector<FaultEvent> faults;
  std::vector<LoadPhase> loads;

  bool Empty() const { return faults.empty() && loads.empty(); }
  std::size_t NumEvents() const { return faults.size() + loads.size(); }
};

/// Serializes to a stable, diff-friendly JSON document.
std::string ToJson(const Schedule& schedule);

/// Parses a schedule back; nullopt on syntax errors, unknown kinds, or
/// missing required members.  ToJson round-trips exactly.
std::optional<Schedule> ScheduleFromJson(std::string_view text);

/// Scenario-class focus for the generator: which corner of the fault+load
/// space a fuzz run concentrates on.  kMixed draws from everything.
enum class FuzzClass : std::uint8_t {
  kMixed = 0,
  kGray,      ///< slow shard / asymmetric loss / partial partition
  kChurn,     ///< ECMP re-salts + lease-churn bursts
  kFlash,     ///< flash crowds + a crash mid-crowd
  kCapacity,  ///< store flow-cap pressure + rehash
};

const char* FuzzClassName(FuzzClass c);
std::optional<FuzzClass> FuzzClassFromName(std::string_view name);

struct GeneratorConfig {
  FuzzClass focus = FuzzClass::kMixed;
  int packets_per_flow = 40;
};

/// Draws a well-formed random schedule: every fault gets a clear time
/// inside the run, magnitudes stay inside survivable bounds (slow-shard
/// factor <= 20, capacity cap >= 8 so established flows keep flowing),
/// and the timeline leaves the drain tail intact so delivered > 0 holds
/// on a correct implementation.
Schedule GenerateSchedule(std::uint64_t seed, const GeneratorConfig& config = {});

}  // namespace redplane::campaign
