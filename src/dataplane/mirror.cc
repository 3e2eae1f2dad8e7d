#include "dataplane/mirror.h"

#include <algorithm>
#include <cassert>

namespace redplane::dp {

namespace {
constexpr std::size_t kMinIndexCap = 16;
}  // namespace

std::size_t MirrorTable::FindCell(std::uint64_t digest) const {
  if (idx_head_.empty()) return SIZE_MAX;
  const std::size_t mask = idx_head_.size() - 1;
  std::size_t i = digest & mask;
  while (idx_head_[i] != kNilSlot) {
    if (idx_digest_[i] == digest) return i;
    i = (i + 1) & mask;
  }
  return SIZE_MAX;
}

std::size_t MirrorTable::FindOrInsertCell(std::uint64_t digest) {
  if (idx_head_.empty() || (idx_used_ + 1) * 10 > idx_head_.size() * 7) {
    GrowIndex();
  }
  const std::size_t mask = idx_head_.size() - 1;
  std::size_t i = digest & mask;
  while (idx_head_[i] != kNilSlot) {
    if (idx_digest_[i] == digest) return i;
    i = (i + 1) & mask;
  }
  idx_digest_[i] = digest;
  ++idx_used_;
  return i;
}

void MirrorTable::GrowIndex() {
  const std::size_t cap = std::max(kMinIndexCap, idx_head_.size() * 2);
  std::vector<std::uint64_t> digests(cap, 0);
  std::vector<std::uint32_t> heads(cap, kNilSlot);
  const std::size_t mask = cap - 1;
  for (std::size_t i = 0; i < idx_head_.size(); ++i) {
    if (idx_head_[i] == kNilSlot) continue;
    std::size_t j = idx_digest_[i] & mask;
    while (heads[j] != kNilSlot) j = (j + 1) & mask;
    digests[j] = idx_digest_[i];
    heads[j] = idx_head_[i];
  }
  idx_digest_ = std::move(digests);
  idx_head_ = std::move(heads);
}

void MirrorTable::EraseCell(std::size_t cell) {
  // Backward-shift deletion keeps linear probing tombstone-free: pull each
  // displaced follower back into the hole it would rather occupy.
  const std::size_t mask = idx_head_.size() - 1;
  std::size_t hole = cell;
  std::size_t i = (cell + 1) & mask;
  while (idx_head_[i] != kNilSlot) {
    const std::size_t home = idx_digest_[i] & mask;
    // Move i into the hole unless i's home lies cyclically after the hole
    // (in which case shifting it would break its probe chain).
    const bool movable = ((i - home) & mask) >= ((i - hole) & mask);
    if (movable) {
      idx_digest_[hole] = idx_digest_[i];
      idx_head_[hole] = idx_head_[i];
      hole = i;
    }
    i = (i + 1) & mask;
  }
  idx_head_[hole] = kNilSlot;
  idx_digest_[hole] = 0;
  --idx_used_;
}

MirrorTable::Handle MirrorTable::Mirror(const net::PartitionKey& key,
                                        std::uint64_t seq,
                                        net::BufferView data, SimTime now) {
  std::uint32_t slot;
  if (free_head_ != kNilSlot) {
    slot = free_head_;
    free_head_ = fnext_[slot];
  } else {
    slot = static_cast<std::uint32_t>(keys_.size());
    keys_.emplace_back();
    seq_.emplace_back();
    data_.emplace_back();
    enqueued_.emplace_back();
    last_sent_.emplace_back();
    retx_.emplace_back();
    timer_.emplace_back();
    gen_.emplace_back();
    live_.emplace_back();
    fprev_.emplace_back(kNilSlot);
    fnext_.emplace_back(kNilSlot);
  }
  keys_[slot] = key;
  seq_[slot] = seq;
  data_[slot] = data.Prefix(truncate_to_);
  enqueued_[slot] = now;
  last_sent_[slot] = now;
  retx_[slot] = 0;
  timer_[slot] = 0;
  live_[slot] = 1;

  const std::size_t cell = FindOrInsertCell(net::HashPartitionKey(key));
  const std::uint32_t head = idx_head_[cell];
  fprev_[slot] = kNilSlot;
  fnext_[slot] = head;
  if (head != kNilSlot) fprev_[head] = slot;
  idx_head_[cell] = slot;

  ++count_;
  occupancy_ += data_[slot].size();
  peak_ = std::max(peak_, occupancy_);
  if (trace_.armed(obs::Ev::kMirrored)) {
    trace_.Emit(obs::Ev::kMirrored, net::HashPartitionKey(key), seq,
                static_cast<double>(data_[slot].size()));
  }
  return Handle{slot, gen_[slot]};
}

void MirrorTable::ReleaseSlot(std::uint32_t slot, std::size_t cell) {
  assert(live_[slot] != 0);
  if (fprev_[slot] != kNilSlot) {
    fnext_[fprev_[slot]] = fnext_[slot];
  } else {
    idx_head_[cell] = fnext_[slot];
  }
  if (fnext_[slot] != kNilSlot) fprev_[fnext_[slot]] = fprev_[slot];
  if (idx_head_[cell] == kNilSlot) EraseCell(cell);

  occupancy_ -= data_[slot].size();
  data_[slot].clear();  // drop the payload refcount now, not at slot reuse
  live_[slot] = 0;
  ++gen_[slot];
  fnext_[slot] = free_head_;
  free_head_ = slot;
  --count_;
}

MirrorTable::IndexStats MirrorTable::IndexStatsNow() const {
  IndexStats s;
  s.capacity = idx_head_.size();
  s.used = idx_used_;
  if (s.capacity == 0) return s;
  const std::size_t mask = s.capacity - 1;
  for (std::size_t i = 0; i < idx_head_.size(); ++i) {
    if (idx_head_[i] == kNilSlot) continue;
    const std::size_t home = idx_digest_[i] & mask;
    s.max_probe = std::max(s.max_probe, ((i - home) & mask) + 1);
  }
  return s;
}

}  // namespace redplane::dp
