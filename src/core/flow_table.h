// Switch-side per-flow protocol state.
//
// On hardware this is the SRAM the paper charges in §7.4: a key-digest
// table resolving the flow to a slot, plus register arrays holding the
// lease expiration time, the current sequence number, and the last
// acknowledged sequence number.  The model now keeps the same layout: an
// open-addressed digest index maps a flow to a stable slot, and the four
// hot fields live in separate dense arrays (`status_`, `lease_expiry_`,
// `cur_seq_`, `last_acked_`) — one software lane per hardware register
// array — so the per-packet path touches only the lanes it reads.
// Everything the per-packet path does not need (the application state
// blob, pending-send bookkeeping, renew-timer plumbing) sits in a parallel
// cold array, the analogue of control-plane-managed SRAM.
//
// Slots are stable for the lifetime of an entry and carry a generation
// that bumps on erase, so timer callbacks holding (slot, gen) detect
// stale references without a side table.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"
#include "net/flow.h"

namespace redplane::core {

enum class FlowStatus : std::uint8_t {
  /// No lease; an Init request is in flight (or about to be sent).
  kInitPending,
  /// Lease held; state installed and usable.
  kActive,
};

/// FIFO of (sequence number, send time) records for one flow's outstanding
/// lease-renewing requests.  A vector plus a head index: an empty queue
/// owns no heap block (most flows never send a write), a pop is an index
/// bump, and the popped prefix is compacted away on a push that would
/// otherwise grow the vector while at least half of it is dead.  Moves are
/// nothrow, so the cold array relocates on growth without copying.
class SendQueue {
 public:
  using Entry = std::pair<std::uint64_t, SimTime>;

  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }
  std::size_t capacity() const { return items_.capacity(); }
  const Entry& front() const { return items_[head_]; }
  std::vector<Entry>::const_iterator begin() const {
    return items_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  std::vector<Entry>::const_iterator end() const { return items_.end(); }

  void push_back(std::uint64_t seq, SimTime at) {
    if (head_ > 0 && items_.size() == items_.capacity() &&
        head_ * 2 >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    items_.emplace_back(seq, at);
  }
  void pop_front() {
    if (++head_ == items_.size()) clear();
  }
  /// Empties the queue, keeping its block for the flow's next writes.
  void clear() {
    items_.clear();
    head_ = 0;
  }
  /// Empties the queue and frees its block.
  void Release() {
    std::vector<Entry>().swap(items_);
    head_ = 0;
  }

 private:
  std::vector<Entry> items_;
  std::size_t head_ = 0;
};

class FlowTable {
 public:
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;
  /// Hard bound on per-flow pending-send records even without a horizon:
  /// outstanding requests are capped by retransmission anyway.
  static constexpr std::size_t kMaxPendingSends = 256;

  /// Cold per-flow state: everything off the per-packet hot path.
  struct Cold {
    net::PartitionKey key;
    /// The application's per-flow state (conceptually the app's registers /
    /// table entries for this flow).
    std::vector<std::byte> state;
    /// Send times of outstanding lease-renewing requests, by sequence
    /// number; consulted on ack to compute the conservative expiry.
    SendQueue pending_sends;
    /// Send time of the outstanding Init (for grant RTT accounting).
    SimTime init_sent_at = 0;
    /// Send time of the outstanding explicit renew; 0 when none.  Cleared
    /// on timeout so a late ack does not extend the lease.
    SimTime renew_sent_at = 0;
    /// Span id of the most recent write request (trace correlation).
    std::uint64_t last_write_span = 0;
    /// Pending renew-timeout timer (opaque sim::EventId; 0 = none).
    std::uint64_t renew_timer = 0;
    /// How many times packets of this flow have looped through the network
    /// buffer while waiting for the lease grant.
    std::uint32_t init_loops = 0;
    /// True once state has been installed (grant received).
    bool has_state = false;
    /// True while an explicit kLeaseRenewOnly is outstanding.
    bool renew_in_flight = false;
    /// --- consistency-mode spectrum lanes (DESIGN.md §14) ---
    /// Mergeable mode: local state changed since the last merge-delta push.
    bool merge_dirty = false;
    /// Replicated-read mode: kReplicaSubscribe already sent for this flow.
    bool replica_subscribed = false;
  };

  /// Read-only view of one flow for tests, dumps, and diagnostics; the hot
  /// path uses slot indices directly.  Default-constructed (or Find miss)
  /// is falsy.
  class FlowRef {
   public:
    FlowRef() = default;
    FlowRef(const FlowTable* t, std::uint32_t slot) : t_(t), slot_(slot) {}

    explicit operator bool() const { return t_ != nullptr; }

    FlowStatus status() const { return t_->status_[slot_]; }
    std::uint64_t cur_seq() const { return t_->cur_seq_[slot_]; }
    std::uint64_t last_acked_seq() const { return t_->last_acked_[slot_]; }
    SimTime lease_expiry() const { return t_->lease_expiry_[slot_]; }
    bool has_state() const { return t_->cold_[slot_].has_state; }
    bool renew_in_flight() const { return t_->cold_[slot_].renew_in_flight; }
    std::uint32_t init_loops() const { return t_->cold_[slot_].init_loops; }
    const std::vector<std::byte>& state() const {
      return t_->cold_[slot_].state;
    }
    std::size_t pending_send_count() const {
      return t_->cold_[slot_].pending_sends.size();
    }
    /// Records the pending-send queue has room for without allocating.
    std::size_t pending_send_capacity() const {
      return t_->cold_[slot_].pending_sends.capacity();
    }
    bool WritesInFlight() const { return t_->WritesInFlight(slot_); }
    bool LeaseActive(SimTime now) const {
      return t_->LeaseActive(slot_, now);
    }
    std::uint32_t slot() const { return slot_; }

   private:
    const FlowTable* t_ = nullptr;
    std::uint32_t slot_ = 0;
  };

  /// Slot of `key`, or kNilSlot.  O(1): digest probe + one key compare.
  std::uint32_t FindSlot(const net::PartitionKey& key) const;
  /// Slot of `key`, creating a default kInitPending entry if absent.
  std::uint32_t GetOrCreateSlot(const net::PartitionKey& key);

  FlowRef Find(const net::PartitionKey& key) const {
    const std::uint32_t slot = FindSlot(key);
    return slot == kNilSlot ? FlowRef() : FlowRef(this, slot);
  }

  void Erase(const net::PartitionKey& key);
  std::size_t Size() const { return count_; }

  /// --- hot lanes (the §7.4 register arrays), addressed by slot ---
  FlowStatus status(std::uint32_t slot) const { return status_[slot]; }
  void set_status(std::uint32_t slot, FlowStatus s) { status_[slot] = s; }
  std::uint64_t cur_seq(std::uint32_t slot) const { return cur_seq_[slot]; }
  void set_cur_seq(std::uint32_t slot, std::uint64_t v) {
    cur_seq_[slot] = v;
  }
  std::uint64_t NextSeq(std::uint32_t slot) { return ++cur_seq_[slot]; }
  std::uint64_t last_acked_seq(std::uint32_t slot) const {
    return last_acked_[slot];
  }
  void set_last_acked_seq(std::uint32_t slot, std::uint64_t v) {
    last_acked_[slot] = v;
  }
  SimTime lease_expiry(std::uint32_t slot) const {
    return lease_expiry_[slot];
  }
  void set_lease_expiry(std::uint32_t slot, SimTime t) {
    lease_expiry_[slot] = t;
  }

  bool WritesInFlight(std::uint32_t slot) const {
    return cur_seq_[slot] > last_acked_[slot];
  }
  bool LeaseActive(std::uint32_t slot, SimTime now) const {
    return status_[slot] == FlowStatus::kActive && lease_expiry_[slot] > now;
  }

  /// --- cold blob, addressed by slot ---
  Cold& cold(std::uint32_t slot) { return cold_[slot]; }
  const Cold& cold(std::uint32_t slot) const { return cold_[slot]; }

  /// Generation of `slot`; bumps on erase so (slot, gen) pairs held by
  /// timers invalidate themselves.
  std::uint32_t gen(std::uint32_t slot) const { return gen_[slot]; }
  bool Alive(std::uint32_t slot, std::uint32_t gen) const {
    return slot < live_.size() && live_[slot] != 0 && gen_[slot] == gen;
  }

  /// Resets `slot` to a fresh kInitPending entry (re-init of an expired
  /// flow), keeping slot and generation.
  void Reinit(std::uint32_t slot);

  /// Visits every (key, FlowRef) pair — diagnostics and table dumps.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::uint32_t s = 0; s < live_.size(); ++s) {
      if (live_[s] != 0) fn(cold_[s].key, FlowRef(this, s));
    }
  }

  /// Clears everything (switch failure: all SRAM state is lost).  The
  /// owner cancels per-entry timers first (see RedPlaneSwitch::Reset).
  void Reset();

  /// Records a lease-renewing request send for expiry accounting.  Entries
  /// older than `horizon` are dead — their request either got acked (and
  /// was popped) or passed the retransmit give-up point — so they are
  /// compacted away; dropping one is conservative (a very late ack then
  /// skips the lease extension).  The hard cap bounds the queue even with
  /// horizon 0.
  void NoteSend(std::uint32_t slot, std::uint64_t seq, SimTime now,
                SimDuration horizon = 0);

  /// Processes an ack for `seq`: advances last_acked_seq and extends the
  /// lease to (send time of that request) + lease_period.
  void NoteAck(std::uint32_t slot, std::uint64_t seq,
               SimDuration lease_period);

  /// Send time recorded for `seq`, or 0 (write RTT accounting).
  SimTime SendTimeOf(std::uint32_t slot, std::uint64_t seq) const;

  /// Send time of the oldest outstanding lease-renewing request, or 0 when
  /// none: how long the durable store view may trail this switch's local
  /// state (the replicated-read staleness measure, DESIGN.md §14).
  SimTime OldestPendingSendTime(std::uint32_t slot) const {
    const auto& pending = cold_[slot].pending_sends;
    return pending.empty() ? 0 : pending.front().second;
  }

  /// Digest-index health for the load-factor / max-probe gauges.
  struct IndexStats {
    std::size_t capacity = 0;
    std::size_t used = 0;
    std::size_t max_probe = 0;  // longest probe chain over occupied cells
  };
  /// O(index capacity); sampled by the fleet time-series exporter, never on
  /// the packet path.
  IndexStats IndexStatsNow() const;

 private:
  friend class FlowRef;

  std::size_t FindCell(std::uint64_t digest,
                       const net::PartitionKey& key) const;
  void EraseCell(std::size_t cell);
  void GrowIndex();

  std::vector<FlowStatus> status_;
  std::vector<SimTime> lease_expiry_;
  std::vector<std::uint64_t> cur_seq_;
  std::vector<std::uint64_t> last_acked_;
  std::vector<Cold> cold_;
  std::vector<std::uint32_t> gen_;
  std::vector<std::uint8_t> live_;
  std::vector<std::uint32_t> free_link_;
  std::uint32_t free_head_ = kNilSlot;
  std::size_t count_ = 0;

  /// Open-addressed digest index (linear probe, power-of-two capacity,
  /// backward-shift deletion): cell = {digest, slot}; key equality is
  /// confirmed against the cold blob, so digest collisions only cost an
  /// extra probe.
  std::vector<std::uint64_t> idx_digest_;
  std::vector<std::uint32_t> idx_slot_;
  std::size_t idx_used_ = 0;
};

using FlowRef = FlowTable::FlowRef;

}  // namespace redplane::core
