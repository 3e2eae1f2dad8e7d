// Bounded-inconsistency tracking (§4.4, §5.5).
//
// In bounded-inconsistency mode the system guarantees recovery to a state no
// older than ε.  The tracker watches, per partition key, when the last
// complete snapshot round was fully acknowledged; if the age of the newest
// complete round exceeds the bound, an application-specific action fires
// (e.g. drop further packets or declare the switch failed).
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/types.h"
#include "net/flow.h"

namespace redplane::core {

/// ε, the staleness bound bounded-inconsistency mode guarantees: recovery
/// restores a state no older than this.
constexpr SimDuration kEpsilonBound = Milliseconds(10);

class EpsilonTracker {
 public:
  /// `bound` is ε; `on_exceeded` fires (once per violation episode) when a
  /// key's newest complete snapshot is older than ε.
  EpsilonTracker(SimDuration bound,
                 std::function<void(const net::PartitionKey&)> on_exceeded);

  /// Records that snapshot round `round` of `key` has `total` slots.
  void BeginRound(const net::PartitionKey& key, std::uint64_t round,
                  std::uint32_t total, SimTime started_at);

  /// Records an ack for one slot of (key, round).
  void SlotAcked(const net::PartitionKey& key, std::uint64_t round,
                 SimTime now);

  /// Age of the newest fully-acknowledged snapshot of `key`, or -1 if none.
  SimDuration Staleness(const net::PartitionKey& key, SimTime now) const;

  /// Checks all keys against the bound; invokes the callback on violations.
  void Check(SimTime now);

  /// Observer invoked for every key on every Check() with the observed
  /// staleness (not just violations) — feeds the staleness histogram and the
  /// audit ε monitor.  A key with no complete snapshot yet conservatively
  /// reports `now` as its age (the same value Check() tests the bound on).
  void SetObserver(std::function<void(const net::PartitionKey& key,
                                      SimDuration staleness, SimTime now)>
                       observer) {
    observer_ = std::move(observer);
  }

  SimDuration bound() const { return bound_; }
  std::uint64_t violations() const { return violations_; }

 private:
  struct KeyState {
    std::uint64_t round = 0;
    std::uint32_t total = 0;
    std::uint32_t acked = 0;
    SimTime round_started_at = 0;
    /// Start time of the newest round that fully acked (its data is at
    /// least as fresh as this instant).
    SimTime last_complete_at = -1;
    bool in_violation = false;
  };

  SimDuration bound_;
  std::function<void(const net::PartitionKey&)> on_exceeded_;
  std::function<void(const net::PartitionKey&, SimDuration, SimTime)> observer_;
  std::unordered_map<net::PartitionKey, KeyState> keys_;
  std::uint64_t violations_ = 0;
};

}  // namespace redplane::core
