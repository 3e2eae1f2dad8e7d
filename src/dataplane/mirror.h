// Egress-to-egress packet mirroring with truncation.
//
// RedPlane's retransmission mechanism (§5.2) keeps a truncated copy of each
// in-flight replication request circulating between egress and the traffic
// manager until the matching ack arrives.  The model tracks those copies in
// a buffer charged against the switch's packet buffer and reports the peak
// occupancy (reproducing Fig. 15).
//
// Storage is struct-of-arrays over stable slot indices — the software
// analogue of the per-entry register arrays the paper sizes in §7.4: the
// sequence-number array, the timestamp arrays, and the payload handles are
// separate dense vectors, so the retransmit path touches only the lanes it
// needs.  Slots are addressed by Handle{slot, gen}; the generation bumps on
// release, making a stale handle (entry acked while its retransmit timer
// was in flight) a detectable no-op.  Entries of one flow are linked into
// an intrusive chain reached through an open-addressed digest index, so a
// cumulative ack touches O(entries of that flow), never the whole table —
// there is deliberately no whole-table scan on any per-packet or per-timer
// path.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "net/buffer.h"
#include "net/flow.h"
#include "obs/tracer.h"
#include "sim/simulator.h"

namespace redplane::dp {

class MirrorTable {
 public:
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  /// Stable reference to a mirrored entry.  `gen` must match the slot's
  /// current generation for the handle to be live; a released-and-reused
  /// slot bumps the generation, so stale handles are safely detectable.
  struct Handle {
    std::uint32_t slot = kNilSlot;
    std::uint32_t gen = 0;
  };

  /// `name` names the table in trace exports.  `truncate_to` caps the
  /// bytes retained per mirrored packet, modeling the ASIC's mirror
  /// truncation; Tofino supports truncating to the first N bytes, which
  /// RedPlane sets to cover only the replication header.
  MirrorTable(sim::Simulator& sim, std::string name, std::size_t truncate_to)
      : truncate_to_(truncate_to), trace_(sim.tracer_slot(), std::move(name)) {}

  /// Reconfigures the truncation length (set once at program install).
  void set_truncate_to(std::size_t n) { truncate_to_ = n; }
  std::size_t truncate_to() const { return truncate_to_; }

  /// Mirrors a request: stores the truncated copy `data` keyed by (key,
  /// seq).  `data` is clipped to the table's truncation length (a zero-copy
  /// slice of the encoded request).  Returns the entry's handle for the
  /// owner's retransmit timer.
  Handle Mirror(const net::PartitionKey& key, std::uint64_t seq,
                net::BufferView data, SimTime now);

  /// Drops every mirrored copy for `key` with seq <= `acked_seq` (an ack
  /// for sequence n confirms all earlier writes of the flow too).
  /// `on_release(Handle, timer)` runs for each dropped entry so the owner
  /// can cancel the entry's retransmit timer.
  template <typename OnRelease>
  void Acknowledge(const net::PartitionKey& key, std::uint64_t acked_seq,
                   OnRelease&& on_release) {
    if (count_ == 0) return;
    const std::size_t cell = FindCell(net::HashPartitionKey(key));
    if (cell == SIZE_MAX) return;
    std::size_t cleared = 0;
    std::uint32_t slot = idx_head_[cell];
    while (slot != kNilSlot) {
      const std::uint32_t next = fnext_[slot];
      // The chain is per digest; confirm the key (collisions cost a
      // compare, never correctness) and apply the cumulative-ack filter.
      if (seq_[slot] <= acked_seq && keys_[slot] == key) {
        on_release(Handle{slot, gen_[slot]}, timer_[slot]);
        ReleaseSlot(slot, cell);
        ++cleared;
      }
      slot = next;
    }
    if (cleared > 0 && trace_.armed(obs::Ev::kMirrorCleared)) {
      trace_.Emit(obs::Ev::kMirrorCleared, net::HashPartitionKey(key),
                  acked_seq, static_cast<double>(cleared));
    }
  }
  void Acknowledge(const net::PartitionKey& key, std::uint64_t acked_seq) {
    Acknowledge(key, acked_seq, [](Handle, std::uint64_t) {});
  }

  /// Visits every live entry's handle.  Template visitor: no std::function
  /// indirection on the (bench-only, post-refactor) scan path.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (std::uint32_t s = 0; s < live_.size(); ++s) {
      if (live_[s] != 0) fn(Handle{s, gen_[s]});
    }
  }

  /// --- per-entry lanes (handle must be live; see Alive()) ---
  bool Alive(Handle h) const {
    return h.slot < live_.size() && live_[h.slot] != 0 &&
           gen_[h.slot] == h.gen;
  }
  const net::PartitionKey& key(Handle h) const { return keys_[h.slot]; }
  std::uint64_t seq(Handle h) const { return seq_[h.slot]; }
  const net::BufferView& data(Handle h) const { return data_[h.slot]; }
  SimTime enqueued_at(Handle h) const { return enqueued_[h.slot]; }
  SimTime last_sent_at(Handle h) const { return last_sent_[h.slot]; }
  void set_last_sent_at(Handle h, SimTime t) { last_sent_[h.slot] = t; }
  /// Retransmissions already performed for this entry (the per-entry lane
  /// that replaced the switch's side map of retransmit counters).
  std::uint32_t retx_count(Handle h) const { return retx_[h.slot]; }
  void BumpRetx(Handle h) { ++retx_[h.slot]; }
  /// Owner-managed retransmit-timer id (an opaque sim::EventId).
  std::uint64_t timer(Handle h) const { return timer_[h.slot]; }
  void set_timer(Handle h, std::uint64_t id) { timer_[h.slot] = id; }

  /// Digest-index health for the load-factor / max-probe gauges.
  struct IndexStats {
    std::size_t capacity = 0;
    std::size_t used = 0;
    std::size_t max_probe = 0;  // longest probe chain over occupied cells
  };
  /// O(index capacity); sampled by the fleet time-series exporter, never on
  /// the packet path.
  IndexStats IndexStatsNow() const;

  /// Current buffer occupancy in bytes.
  std::size_t OccupancyBytes() const { return occupancy_; }
  /// High-water mark since construction/reset.
  std::size_t PeakOccupancyBytes() const { return peak_; }
  std::size_t NumEntries() const { return count_; }

  void ResetPeak() { peak_ = occupancy_; }

  /// Clears everything (switch failure); `on_release(Handle, timer)` runs
  /// per entry so the owner can cancel retransmit timers in one pass.
  template <typename OnRelease>
  void Reset(OnRelease&& on_release) {
    for (std::uint32_t s = 0; s < live_.size(); ++s) {
      if (live_[s] == 0) continue;
      on_release(Handle{s, gen_[s]}, timer_[s]);
      data_[s].clear();
      live_[s] = 0;
      ++gen_[s];
      fnext_[s] = free_head_;
      free_head_ = s;
    }
    idx_digest_.assign(idx_digest_.size(), 0);
    idx_head_.assign(idx_head_.size(), kNilSlot);
    idx_used_ = 0;
    count_ = 0;
    occupancy_ = 0;
    peak_ = 0;
  }
  void Reset() {
    Reset([](Handle, std::uint64_t) {});
  }

 private:
  /// Index cell holding `digest`, or SIZE_MAX when absent.
  std::size_t FindCell(std::uint64_t digest) const;
  /// Index cell holding `digest`, inserting an empty chain if absent
  /// (grows + rehashes the index at 70% load).
  std::size_t FindOrInsertCell(std::uint64_t digest);
  /// Unlinks `slot` from its flow chain (index cell `cell`), erasing the
  /// cell via backward-shift when the chain empties, and frees the slot.
  void ReleaseSlot(std::uint32_t slot, std::size_t cell);
  void EraseCell(std::size_t cell);
  void GrowIndex();

  std::size_t truncate_to_;
  obs::TraceHandle trace_;

  /// Entry lanes (parallel, stable indices).
  std::vector<net::PartitionKey> keys_;
  std::vector<std::uint64_t> seq_;
  std::vector<net::BufferView> data_;
  std::vector<SimTime> enqueued_;
  std::vector<SimTime> last_sent_;
  std::vector<std::uint32_t> retx_;
  std::vector<std::uint64_t> timer_;
  std::vector<std::uint32_t> gen_;
  std::vector<std::uint8_t> live_;
  /// Intrusive per-flow chain links; fnext_ doubles as the free list.
  std::vector<std::uint32_t> fprev_;
  std::vector<std::uint32_t> fnext_;
  std::uint32_t free_head_ = kNilSlot;
  std::size_t count_ = 0;

  /// Open-addressed digest index (linear probe, power-of-two capacity,
  /// backward-shift deletion): digest -> chain head slot.
  std::vector<std::uint64_t> idx_digest_;
  std::vector<std::uint32_t> idx_head_;
  std::size_t idx_used_ = 0;

  std::size_t occupancy_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace redplane::dp
