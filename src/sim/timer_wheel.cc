#include "sim/timer_wheel.h"

#include <bit>
#include <cassert>

namespace redplane::sim {

std::uint32_t TimerWheel::AllocNode() {
  if (free_head_ != kNil) {
    const std::uint32_t idx = free_head_;
    free_head_ = nodes_[idx].next;
    return idx;
  }
  if (nodes_.size() >= kMaxNodes) return kNil;
  nodes_.emplace_back();
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void TimerWheel::FreeNode(std::uint32_t idx) {
  Node& n = nodes_[idx];
  n.bucket = kFreeBucket;
  n.prev = kNil;
  n.next = free_head_;
  free_head_ = idx;
}

void TimerWheel::Unlink(std::uint32_t idx) {
  Node& n = nodes_[idx];
  if (n.prev != kNil) {
    nodes_[n.prev].next = n.next;
  } else {
    heads_[n.bucket] = n.next;
  }
  if (n.next != kNil) nodes_[n.next].prev = n.prev;
  --level_counts_[static_cast<std::size_t>(LevelOf(n.bucket))];
  if (n.bucket != kOverflowBucket && heads_[n.bucket] == kNil) {
    occupancy_[n.bucket >> kSlotBits] &=
        ~(1ull << (n.bucket & (kSlotsPerLevel - 1)));
  }
}

void TimerWheel::Place(std::uint32_t idx) {
  Node& n = nodes_[idx];
  const std::uint64_t tick = TickOf(n.time);
  assert(tick >= cur_tick_);
  std::uint16_t bucket;
  if ((tick >> kTopShift) != (cur_tick_ >> kTopShift)) {
    bucket = kOverflowBucket;
    if (tick < overflow_min_tick_) overflow_min_tick_ = tick;
  } else {
    // File at the level of the highest tick-bit group where the expiry
    // differs from the cursor; ties (same tick) go to level 0.
    const std::uint64_t diff = tick ^ cur_tick_;
    const int level =
        diff == 0 ? 0 : (std::bit_width(diff) - 1) / kSlotBits;
    const auto slot = static_cast<std::uint32_t>(
        (tick >> (kSlotBits * level)) & (kSlotsPerLevel - 1));
    bucket = static_cast<std::uint16_t>(level * kSlotsPerLevel + slot);
    occupancy_[level] |= 1ull << slot;
  }
  n.bucket = bucket;
  n.prev = kNil;
  n.next = heads_[bucket];
  if (n.next != kNil) nodes_[n.next].prev = idx;
  heads_[bucket] = idx;
  ++level_counts_[static_cast<std::size_t>(LevelOf(bucket))];
}

std::uint32_t TimerWheel::Schedule(SimTime time, std::uint64_t seq,
                                   std::uint32_t payload) {
  if (TickOf(time) < cur_tick_) return kNil;  // cursor already passed: refuse
  const std::uint32_t idx = AllocNode();
  if (idx == kNil) return kNil;
  Node& n = nodes_[idx];
  n.time = time;
  n.seq = seq;
  n.payload = payload;
  Place(idx);
  ++size_;
  return idx;
}

bool TimerWheel::Cancel(std::uint32_t idx, std::uint64_t seq,
                        std::uint32_t* payload) {
  if (idx >= nodes_.size()) return false;
  Node& n = nodes_[idx];
  if (n.bucket == kFreeBucket || n.seq != seq) return false;
  *payload = n.payload;
  const bool was_overflow = n.bucket == kOverflowBucket;
  const std::uint64_t tick = TickOf(n.time);
  Unlink(idx);
  FreeNode(idx);
  --size_;
  if (was_overflow && tick == overflow_min_tick_) {
    // Recompute the cached overflow minimum (rare: overflow holds only
    // timers beyond the ~19.5 h top-level horizon).
    overflow_min_tick_ = UINT64_MAX;
    for (std::uint32_t i = heads_[kOverflowBucket]; i != kNil;
         i = nodes_[i].next) {
      overflow_min_tick_ = std::min(overflow_min_tick_, TickOf(nodes_[i].time));
    }
  }
  return true;
}

bool TimerWheel::EarliestSlot(int* level, std::uint32_t* slot,
                              std::uint64_t* start_tick) const {
  std::uint64_t best = UINT64_MAX;
  for (int l = 0; l < kLevels; ++l) {
    if (occupancy_[l] == 0) continue;
    // Every occupied slot at level l lies at or ahead of the cursor's
    // index within the current window (earlier ones were popped), so the
    // lowest set bit is the earliest.
    const auto s =
        static_cast<std::uint32_t>(std::countr_zero(occupancy_[l]));
    const int window_bits = kSlotBits * (l + 1);
    const std::uint64_t window_base =
        (cur_tick_ >> window_bits) << window_bits;
    const std::uint64_t start =
        window_base + (static_cast<std::uint64_t>(s) << (kSlotBits * l));
    if (start < best) {
      best = start;
      *level = l;
      *slot = s;
      *start_tick = start;
    }
  }
  return best != UINT64_MAX;
}

SimTime TimerWheel::NextSlotTime() const {
  assert(size_ > 0);
  int level;
  std::uint32_t slot;
  std::uint64_t start_tick = UINT64_MAX;
  EarliestSlot(&level, &slot, &start_tick);
  if (overflow_min_tick_ < start_tick) start_tick = overflow_min_tick_;
  return static_cast<SimTime>(start_tick << kTickShift);
}

void TimerWheel::RefillFromOverflow() {
  std::uint32_t idx = heads_[kOverflowBucket];
  heads_[kOverflowBucket] = kNil;
  level_counts_[kLevels] = 0;
  overflow_min_tick_ = UINT64_MAX;
  while (idx != kNil) {
    const std::uint32_t next = nodes_[idx].next;
    if ((TickOf(nodes_[idx].time) >> kTopShift) ==
        (cur_tick_ >> kTopShift)) {
      Place(idx);
    } else {
      // Still beyond the horizon: re-park.
      Node& n = nodes_[idx];
      n.bucket = kOverflowBucket;
      n.prev = kNil;
      n.next = heads_[kOverflowBucket];
      if (n.next != kNil) nodes_[n.next].prev = idx;
      heads_[kOverflowBucket] = idx;
      ++level_counts_[kLevels];
      overflow_min_tick_ = std::min(overflow_min_tick_, TickOf(n.time));
    }
    idx = next;
  }
}

void TimerWheel::PopNextSlot(std::vector<Due>& out) {
  assert(size_ > 0);
  for (;;) {
    if (overflow_min_tick_ != UINT64_MAX &&
        (overflow_min_tick_ >> kTopShift) == (cur_tick_ >> kTopShift)) {
      RefillFromOverflow();
    }
    int level = 0;
    std::uint32_t slot = 0;
    std::uint64_t start_tick = UINT64_MAX;
    if (!EarliestSlot(&level, &slot, &start_tick)) {
      // Only overflow timers remain: jump the cursor to the earliest one's
      // top-level window and file what came into range.
      assert(overflow_min_tick_ != UINT64_MAX);
      cur_tick_ = overflow_min_tick_;
      RefillFromOverflow();
      continue;
    }
    cur_tick_ = start_tick;
    const std::uint16_t bucket =
        static_cast<std::uint16_t>(level * kSlotsPerLevel + slot);
    std::uint32_t idx = heads_[bucket];
    heads_[bucket] = kNil;
    occupancy_[level] &= ~(1ull << slot);
    std::size_t& level_count = level_counts_[static_cast<std::size_t>(level)];
    if (level == 0) {
      while (idx != kNil) {
        const std::uint32_t next = nodes_[idx].next;
        const Node& n = nodes_[idx];
        out.push_back(Due{n.time, n.seq, n.payload, idx});
        FreeNode(idx);
        --size_;
        --level_count;
        idx = next;
      }
      ++cur_tick_;  // the slot's tick is fully expired
      return;
    }
    // Higher-level slot: cascade its timers down (each re-files at least
    // one level lower now that the cursor is inside their old window).
    while (idx != kNil) {
      const std::uint32_t next = nodes_[idx].next;
      --level_count;
      Place(idx);
      idx = next;
    }
  }
}

void TimerWheel::DrainAll(std::vector<Due>& out) {
  for (std::uint16_t b = 0; b <= kOverflowBucket; ++b) {
    std::uint32_t idx = heads_[b];
    heads_[b] = kNil;
    while (idx != kNil) {
      const std::uint32_t next = nodes_[idx].next;
      const Node& n = nodes_[idx];
      out.push_back(Due{n.time, n.seq, n.payload, idx});
      FreeNode(idx);
      idx = next;
    }
  }
  for (auto& occ : occupancy_) occ = 0;
  level_counts_.fill(0);
  overflow_min_tick_ = UINT64_MAX;
  size_ = 0;
}

}  // namespace redplane::sim
