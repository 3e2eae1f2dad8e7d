#include "dataplane/mirror.h"

#include <algorithm>
#include <cassert>

namespace redplane::dp {

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

  const std::uint64_t digest = net::HashPartitionKey(key);
  const std::size_t cell = FindChain(digest);
  fprev_[slot] = kNilSlot;
  if (cell == DigestIndex::kNoCell) {
    fnext_[slot] = kNilSlot;
    index_.Insert(digest, slot);
  } else {
    const std::uint32_t head = index_.slot(cell);
    fnext_[slot] = head;
    fprev_[head] = slot;
    index_.set_slot(cell, slot);
  }

  ++count_;
  occupancy_ += data_[slot].size();
  peak_ = std::max(peak_, occupancy_);
  if (trace_.armed(obs::Ev::kMirrored)) {
    trace_.Emit(obs::Ev::kMirrored, digest, seq,
                static_cast<double>(data_[slot].size()));
  }
  return Handle{slot, gen_[slot]};
}

void MirrorTable::ReleaseSlot(std::uint32_t slot, std::size_t cell) {
  assert(live_[slot] != 0);
  const std::uint32_t next = fnext_[slot];
  if (fprev_[slot] != kNilSlot) {
    fnext_[fprev_[slot]] = next;
  } else if (next != kNilSlot) {
    index_.set_slot(cell, next);
  } else {
    index_.Erase(cell);  // the chain is empty
  }
  if (next != kNilSlot) fprev_[next] = fprev_[slot];

  occupancy_ -= data_[slot].size();
  data_[slot].clear();  // drop the payload refcount now, not at slot reuse
  live_[slot] = 0;
  ++gen_[slot];
  fnext_[slot] = free_head_;
  free_head_ = slot;
  --count_;
}

}  // namespace redplane::dp
