#include "core/flow_table.h"

#include <algorithm>
#include <cassert>

namespace redplane::core {

std::uint32_t FlowTable::FindSlot(const net::PartitionKey& key) const {
  const std::size_t cell = FindCell(net::HashPartitionKey(key), key);
  return cell == dp::DigestIndex::kNoCell ? kNilSlot : index_.slot(cell);
}

std::uint32_t FlowTable::GetOrCreateSlot(const net::PartitionKey& key) {
  const std::uint64_t digest = net::HashPartitionKey(key);
  {
    const std::size_t cell = FindCell(digest, key);
    if (cell != dp::DigestIndex::kNoCell) return index_.slot(cell);
  }
  const std::uint32_t slot = free_head_ != kNilSlot
                                 ? free_head_
                                 : static_cast<std::uint32_t>(live_.size());
  index_.Insert(digest, slot);
  if (free_head_ != kNilSlot) {
    free_head_ = free_link_[slot];
  } else {
    status_.emplace_back();
    lease_expiry_.emplace_back();
    cur_seq_.emplace_back();
    last_acked_.emplace_back();
    cold_.emplace_back();
    gen_.emplace_back();
    live_.emplace_back();
    free_link_.emplace_back(kNilSlot);
  }
  Reinit(slot);
  cold_[slot].key = key;
  live_[slot] = 1;
  ++count_;
  return slot;
}

void FlowTable::Reinit(std::uint32_t slot) {
  status_[slot] = FlowStatus::kInitPending;
  lease_expiry_[slot] = 0;
  cur_seq_[slot] = 0;
  last_acked_[slot] = 0;
  Cold& c = cold_[slot];
  c.state.clear();
  c.pending_sends.clear();
  c.init_sent_at = 0;
  c.renew_sent_at = 0;
  c.last_write_span = 0;
  c.renew_timer = 0;
  c.init_loops = 0;
  c.has_state = false;
  c.renew_in_flight = false;
  c.merge_dirty = false;
  c.replica_subscribed = false;
}

void FlowTable::Erase(const net::PartitionKey& key) {
  const std::size_t cell = FindCell(net::HashPartitionKey(key), key);
  if (cell == dp::DigestIndex::kNoCell) return;
  const std::uint32_t slot = index_.slot(cell);
  index_.Erase(cell);
  cold_[slot].state.clear();
  cold_[slot].state.shrink_to_fit();
  cold_[slot].pending_sends.Release();
  live_[slot] = 0;
  ++gen_[slot];
  free_link_[slot] = free_head_;
  free_head_ = slot;
  --count_;
}

void FlowTable::Reset() {
  status_.clear();
  lease_expiry_.clear();
  cur_seq_.clear();
  last_acked_.clear();
  cold_.clear();
  gen_.clear();
  live_.clear();
  free_link_.clear();
  free_head_ = kNilSlot;
  count_ = 0;
  index_ = {};
}

void FlowTable::NoteSend(std::uint32_t slot, std::uint64_t seq, SimTime now,
                         SimDuration horizon) {
  auto& pending = cold_[slot].pending_sends;
  if (horizon > 0) {
    while (!pending.empty() && pending.front().second < now - horizon) {
      pending.pop_front();
    }
  }
  pending.push_back(seq, now);
  if (pending.size() > kMaxPendingSends) pending.pop_front();
}

void FlowTable::NoteAck(std::uint32_t slot, std::uint64_t seq,
                        SimDuration lease_period) {
  last_acked_[slot] = std::max(last_acked_[slot], seq);
  // The lease is valid for lease_period after the *send* of the newest
  // request the store has acknowledged; using send time keeps the switch's
  // view conservative relative to the store's.
  auto& pending = cold_[slot].pending_sends;
  SimTime newest_send = 0;
  while (!pending.empty() && pending.front().first <= seq) {
    newest_send = pending.front().second;
    pending.pop_front();
  }
  if (newest_send > 0) {
    lease_expiry_[slot] =
        std::max(lease_expiry_[slot], newest_send + lease_period);
  }
}

SimTime FlowTable::SendTimeOf(std::uint32_t slot, std::uint64_t seq) const {
  for (const auto& [pseq, at] : cold_[slot].pending_sends) {
    if (pseq == seq) return at;
  }
  return 0;
}

}  // namespace redplane::core
