// Open-addressed digest index shared by the SoA tables (DESIGN.md §12).
//
// The software analogue of the exact-match table that resolves a flow key
// to its register-array index (§7.4): a cell holds a 64-bit key digest and
// the u32 slot of the owning table's lanes.  Linear probing over a
// power-of-two cell array, grown (doubled, min 16 cells) by an insert that
// would push the load past 70%, and backward-shift deletion, so probe
// chains never carry tombstones.  The index stores digests only: the owner
// confirms key equality through Find's predicate, so a digest collision
// costs one extra probe, never correctness.  Header-only so the per-packet
// lookup inlines into its caller.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace redplane::dp {

class DigestIndex {
 public:
  /// Slot value marking an empty cell; never a valid owner slot.
  static constexpr std::uint32_t kEmpty = 0xffffffffu;
  /// Find's miss result.
  static constexpr std::size_t kNoCell = SIZE_MAX;
  static constexpr std::size_t kMinCapacity = 16;

  /// Index health for the load-factor / max-probe gauges.
  struct Stats {
    std::size_t capacity = 0;
    std::size_t used = 0;
    std::size_t max_probe = 0;  // longest probe chain over occupied cells

    /// used / capacity; 0 for an index that never held a cell.
    double load() const {
      return capacity == 0 ? 0.0
                           : static_cast<double>(used) /
                                 static_cast<double>(capacity);
    }
  };

  /// Cell holding `digest` whose slot satisfies `match(slot)`, or kNoCell.
  template <typename Match>
  std::size_t Find(std::uint64_t digest, Match&& match) const {
    if (slot_.empty()) return kNoCell;
    const std::size_t mask = slot_.size() - 1;
    for (std::size_t i = digest & mask; slot_[i] != kEmpty;
         i = (i + 1) & mask) {
      if (digest_[i] == digest && match(slot_[i])) return i;
    }
    return kNoCell;
  }

  /// Adds a cell mapping `digest` to `slot` and returns it.  Digests may
  /// repeat; Find's predicate tells their slots apart.
  std::size_t Insert(std::uint64_t digest, std::uint32_t slot) {
    assert(slot != kEmpty);
    if ((used_ + 1) * 10 > slot_.size() * 7) Grow();
    const std::size_t mask = slot_.size() - 1;
    std::size_t i = digest & mask;
    while (slot_[i] != kEmpty) i = (i + 1) & mask;
    digest_[i] = digest;
    slot_[i] = slot;
    ++used_;
    return i;
  }

  /// Empties `cell`, pulling each displaced follower back into the hole it
  /// would rather occupy.  Moves other cells, so cell numbers from before
  /// the erase are stale.
  void Erase(std::size_t cell) {
    const std::size_t mask = slot_.size() - 1;
    std::size_t hole = cell;
    for (std::size_t i = (cell + 1) & mask; slot_[i] != kEmpty;
         i = (i + 1) & mask) {
      // Move i into the hole unless i's home lies cyclically after the
      // hole (shifting it would then break its probe chain).
      const std::size_t home = digest_[i] & mask;
      if (((i - home) & mask) >= ((i - hole) & mask)) {
        digest_[hole] = digest_[i];
        slot_[hole] = slot_[i];
        hole = i;
      }
    }
    slot_[hole] = kEmpty;
    digest_[hole] = 0;
    --used_;
  }

  std::uint32_t slot(std::size_t cell) const { return slot_[cell]; }
  void set_slot(std::size_t cell, std::uint32_t slot) {
    assert(slot != kEmpty);
    slot_[cell] = slot;
  }

  /// Empties every cell, keeping the capacity.
  void Clear() {
    std::fill(digest_.begin(), digest_.end(), 0);
    std::fill(slot_.begin(), slot_.end(), kEmpty);
    used_ = 0;
  }

  /// O(capacity); sampled by the fleet time-series exporter, never on the
  /// packet path.
  Stats StatsNow() const {
    Stats s;
    s.capacity = slot_.size();
    s.used = used_;
    const std::size_t mask = s.capacity - 1;
    for (std::size_t i = 0; i < s.capacity; ++i) {
      if (slot_[i] == kEmpty) continue;
      const std::size_t home = digest_[i] & mask;
      s.max_probe = std::max(s.max_probe, ((i - home) & mask) + 1);
    }
    return s;
  }

 private:
  void Grow() {
    const std::size_t cap = std::max(kMinCapacity, slot_.size() * 2);
    std::vector<std::uint64_t> digests(cap, 0);
    std::vector<std::uint32_t> slots(cap, kEmpty);
    const std::size_t mask = cap - 1;
    for (std::size_t i = 0; i < slot_.size(); ++i) {
      if (slot_[i] == kEmpty) continue;
      std::size_t j = digest_[i] & mask;
      while (slots[j] != kEmpty) j = (j + 1) & mask;
      digests[j] = digest_[i];
      slots[j] = slot_[i];
    }
    digest_ = std::move(digests);
    slot_ = std::move(slots);
  }

  std::vector<std::uint64_t> digest_;
  std::vector<std::uint32_t> slot_;
  std::size_t used_ = 0;
};

}  // namespace redplane::dp
