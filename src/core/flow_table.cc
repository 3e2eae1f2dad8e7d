#include "core/flow_table.h"

#include <algorithm>
#include <cassert>

namespace redplane::core {

namespace {
constexpr std::size_t kMinIndexCap = 16;
}  // namespace

std::size_t FlowTable::FindCell(std::uint64_t digest,
                                const net::PartitionKey& key) const {
  if (idx_slot_.empty()) return SIZE_MAX;
  const std::size_t mask = idx_slot_.size() - 1;
  std::size_t i = digest & mask;
  while (idx_slot_[i] != kNilSlot) {
    if (idx_digest_[i] == digest && cold_[idx_slot_[i]].key == key) return i;
    i = (i + 1) & mask;
  }
  return SIZE_MAX;
}

void FlowTable::GrowIndex() {
  const std::size_t cap = std::max(kMinIndexCap, idx_slot_.size() * 2);
  std::vector<std::uint64_t> digests(cap, 0);
  std::vector<std::uint32_t> slots(cap, kNilSlot);
  const std::size_t mask = cap - 1;
  for (std::size_t i = 0; i < idx_slot_.size(); ++i) {
    if (idx_slot_[i] == kNilSlot) continue;
    std::size_t j = idx_digest_[i] & mask;
    while (slots[j] != kNilSlot) j = (j + 1) & mask;
    digests[j] = idx_digest_[i];
    slots[j] = idx_slot_[i];
  }
  idx_digest_ = std::move(digests);
  idx_slot_ = std::move(slots);
}

void FlowTable::EraseCell(std::size_t cell) {
  const std::size_t mask = idx_slot_.size() - 1;
  std::size_t hole = cell;
  std::size_t i = (cell + 1) & mask;
  while (idx_slot_[i] != kNilSlot) {
    const std::size_t home = idx_digest_[i] & mask;
    const bool movable = ((i - home) & mask) >= ((i - hole) & mask);
    if (movable) {
      idx_digest_[hole] = idx_digest_[i];
      idx_slot_[hole] = idx_slot_[i];
      hole = i;
    }
    i = (i + 1) & mask;
  }
  idx_slot_[hole] = kNilSlot;
  idx_digest_[hole] = 0;
  --idx_used_;
}

std::uint32_t FlowTable::FindSlot(const net::PartitionKey& key) const {
  const std::size_t cell = FindCell(net::HashPartitionKey(key), key);
  return cell == SIZE_MAX ? kNilSlot : idx_slot_[cell];
}

std::uint32_t FlowTable::GetOrCreateSlot(const net::PartitionKey& key) {
  const std::uint64_t digest = net::HashPartitionKey(key);
  {
    const std::size_t cell = FindCell(digest, key);
    if (cell != SIZE_MAX) return idx_slot_[cell];
  }
  if (idx_slot_.empty() || (idx_used_ + 1) * 10 > idx_slot_.size() * 7) {
    GrowIndex();
  }
  std::uint32_t slot;
  if (free_head_ != kNilSlot) {
    slot = free_head_;
    free_head_ = free_link_[slot];
  } else {
    slot = static_cast<std::uint32_t>(live_.size());
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

  const std::size_t mask = idx_slot_.size() - 1;
  std::size_t i = digest & mask;
  while (idx_slot_[i] != kNilSlot) i = (i + 1) & mask;
  idx_digest_[i] = digest;
  idx_slot_[i] = slot;
  ++idx_used_;
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
  if (cell == SIZE_MAX) return;
  const std::uint32_t slot = idx_slot_[cell];
  EraseCell(cell);
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
  idx_digest_.clear();
  idx_slot_.clear();
  idx_used_ = 0;
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

FlowTable::IndexStats FlowTable::IndexStatsNow() const {
  IndexStats s;
  s.capacity = idx_slot_.size();
  s.used = idx_used_;
  if (s.capacity == 0) return s;
  const std::size_t mask = s.capacity - 1;
  for (std::size_t i = 0; i < idx_slot_.size(); ++i) {
    if (idx_slot_[i] == kNilSlot) continue;
    const std::size_t home = idx_digest_[i] & mask;
    s.max_probe = std::max(s.max_probe, ((i - home) & mask) + 1);
  }
  return s;
}

}  // namespace redplane::core
