// Hierarchical (hashed) timing wheel for coarse timers.
//
// The simulator's binary heap is ideal for the dense near-term events a
// packet in flight generates (link latencies, service completions), but
// protocol timers — retransmit deadlines, lease expirations, renew
// timeouts — live hundreds of microseconds to seconds out, are cancelled
// far more often than they fire, and can number one per flow.  A binary
// heap charges O(log n) per schedule and cannot cancel in place; this
// wheel charges O(1) for schedule and cancel and amortized O(1) per
// expired timer, independent of how many timers are pending (the property
// the Fig. 15 million-flow stress point pins).
//
// Layout: kLevels levels of 64 slots each; one tick is 2^kTickShift
// simulated nanoseconds, and level L slots each span 64^L ticks.  A timer
// is filed at the lowest level whose window (relative to the cursor)
// contains its expiry tick, so near deadlines sit in level 0 and far ones
// higher up; as the cursor reaches a higher-level slot its timers cascade
// down and re-file, each moving down at least one level per cascade.
// Per-level 64-bit occupancy bitmaps make "find the next non-empty slot"
// a handful of ctz instructions, so an idle wheel costs nothing to skip
// over.  Timers beyond the top level's horizon (~19.5 simulated hours at
// the default tick) park in an overflow list and re-file when the cursor
// gets within range.
//
// Nodes live in a slab indexed by dense 24-bit handles; a node records the
// scheduling sequence number it was created with, and Cancel(idx, seq)
// only removes the node if the sequence still matches.  That makes stale
// handles (cancel-after-fire, cancel-after-reuse) safe no-ops without a
// side table — the sequence number is the generation.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace redplane::sim {

class TimerWheel {
 public:
  static constexpr int kLevels = 6;
  static constexpr int kSlotBits = 6;  // 64 slots per level
  static constexpr std::uint32_t kSlotsPerLevel = 1u << kSlotBits;
  /// One tick = 1024 ns: fine enough that a slot never holds more than a
  /// microsecond's worth of deadlines, coarse enough that a 500 µs
  /// retransmit timer files one level up at most.
  static constexpr int kTickShift = 10;
  static constexpr std::uint32_t kNil = 0xffffffffu;
  /// Node indices must fit the 24 bits the simulator packs into EventIds.
  static constexpr std::uint32_t kMaxNodes = 1u << 24;

  /// One expired (or drained) timer, as reported to the caller.
  struct Due {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t payload;
    std::uint32_t idx;
  };

  /// Schedules a timer at absolute `time`, tagged with the caller's
  /// monotonic `seq` (also the cancellation credential) and an opaque
  /// `payload`.  Returns the node index, or kNil when `time` falls before
  /// the wheel's cursor or the slab is full — the caller must then keep
  /// the timer in its own queue.
  std::uint32_t Schedule(SimTime time, std::uint64_t seq,
                         std::uint32_t payload);

  /// Cancels node `idx` if it still carries `seq`; on success stores the
  /// node's payload in `*payload` and returns true.  A mismatched or
  /// already-fired node is a no-op returning false.
  bool Cancel(std::uint32_t idx, std::uint64_t seq, std::uint32_t* payload);

  bool Empty() const { return size_ == 0; }
  std::size_t Size() const { return size_; }

  /// Lower bound on the earliest pending timer's expiry: the start time of
  /// the earliest occupied slot.  O(1) between changes: the answer is
  /// cached until a schedule, cancel or pop can move it.  Precondition:
  /// !Empty().
  SimTime NextSlotTime() const;

  /// Expires the earliest non-empty bottom-level slot: cascades higher
  /// levels as needed, appends every timer of that slot to `out` (callers
  /// order them; a slot spans one tick so they are near-ties), and
  /// advances the cursor past the slot.  Precondition: !Empty().
  void PopNextSlot(std::vector<Due>& out);

  /// Removes every pending timer, appending each to `out` (destruction
  /// and mass-reset paths: the owner frees the payloads).
  void DrainAll(std::vector<Due>& out);

  /// Pending timers per level ([0..kLevels-1]) plus the overflow-list
  /// length in the final element.  O(1): the counts are kept as nodes are
  /// filed, cascaded, popped and drained, so the occupancy gauges the fleet
  /// time-series exporter samples cost no bucket walk.
  const std::array<std::size_t, kLevels + 1>& CountPerLevel() const {
    return level_counts_;
  }

 private:
  struct Node {
    SimTime time = 0;
    std::uint64_t seq = 0;
    std::uint32_t payload = 0;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    /// level * 64 + slot; kOverflowBucket when parked beyond the horizon;
    /// kFreeBucket when on the free list.
    std::uint16_t bucket = kFreeBucket;
  };
  static constexpr std::uint16_t kOverflowBucket = kLevels * kSlotsPerLevel;
  static constexpr std::uint16_t kFreeBucket = 0xffff;
  static constexpr int kTopShift = kSlotBits * kLevels;  // 36: beyond = overflow

  /// Index into level_counts_ of a filed node's bucket.
  static int LevelOf(std::uint16_t bucket) {
    return bucket == kOverflowBucket ? kLevels : bucket >> kSlotBits;
  }

  std::uint64_t TickOf(SimTime t) const {
    return static_cast<std::uint64_t>(t) >> kTickShift;
  }

  std::uint32_t AllocNode();
  void FreeNode(std::uint32_t idx);
  /// Unlinks `idx` from its bucket list, clearing the occupancy bit when
  /// the bucket empties.
  void Unlink(std::uint32_t idx);
  /// Files `idx` (whose time is >= the cursor) into its level/slot or the
  /// overflow list.
  void Place(std::uint32_t idx);
  /// Moves overflow timers that came within the top level's horizon into
  /// the wheel proper.
  void RefillFromOverflow();
  /// Earliest occupied slot across levels as (level, slot, start_tick);
  /// returns false when every level is empty (overflow only).
  bool EarliestSlot(int* level, std::uint32_t* slot,
                    std::uint64_t* start_tick) const;

  std::vector<Node> nodes_;
  std::uint32_t free_head_ = kNil;
  std::size_t size_ = 0;
  /// Cursor in ticks: every timer at a strictly earlier tick has been
  /// popped, so inserts before it are refused.
  std::uint64_t cur_tick_ = 0;
  std::uint64_t occupancy_[kLevels] = {};
  std::uint32_t heads_[kLevels * kSlotsPerLevel + 1];  // +1: overflow bucket
  std::uint64_t overflow_min_tick_ = UINT64_MAX;
  /// NextSlotTime's answer in ticks.  It depends only on the occupancy
  /// bitmaps, the cursor and overflow_min_tick_, so it stays valid until a
  /// slot empties (Cancel), the cursor moves (PopNextSlot, DrainAll) or a
  /// timer files before it (Schedule; occupied slots are disjoint tick
  /// ranges, so a new slot can start earlier only if its timer does).
  mutable std::uint64_t next_tick_ = 0;
  mutable bool next_tick_valid_ = false;
  /// Filed nodes per level, overflow last (see CountPerLevel).
  std::array<std::size_t, kLevels + 1> level_counts_{};

  friend struct TimerWheelTestPeer;  // recounts the bucket lists in tests

 public:
  TimerWheel() {
    for (auto& h : heads_) h = kNil;
  }
};

}  // namespace redplane::sim
