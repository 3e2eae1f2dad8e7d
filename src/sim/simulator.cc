#include "sim/simulator.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "obs/profiler.h"

namespace redplane::sim {

namespace {
// Sampled wall-clock accounting of event dispatch: the "everything else"
// bucket that callee ProfScopes (switch/store/codec) subtract from.
obs::ProfSite g_prof_dispatch("sim.dispatch");
}  // namespace

Simulator::Simulator() {
  SetLogClock(this, [this] { return now_; });
}

Simulator::~Simulator() {
  ClearLogClock(this);
  // Destroy the callables of events still queued (cancelled-and-popped
  // slots are already back on the free list and not in the queue).
  for (const QueuedEvent& ev : queue_) ReleaseSlot(ev.slot);
  queue_.clear();
  due_buf_.clear();
  wheel_.DrainAll(due_buf_);
  for (const TimerWheel::Due& d : due_buf_) ReleaseSlot(d.payload);
}

void Simulator::Cancel(EventId id) {
  if ((id & kWheelFlag) != 0) {
    const EventId seq = id & kSeqMask;
    if (seq == 0 || seq >= next_id_) return;
    const auto idx = static_cast<std::uint32_t>((id & ~kWheelFlag)
                                                >> kWheelIdxShift);
    std::uint32_t slot;
    if (wheel_.Cancel(idx, seq, &slot)) {
      // Still parked in the wheel: free the callable immediately — O(1),
      // no tombstone to carry.
      ReleaseSlot(slot);
      --pending_;
      return;
    }
    // Already spilled into the heap (or long fired): tombstone the packed
    // id, which is what the spilled QueuedEvent carries.
  } else if (id == 0 || id >= next_id_) {
    return;
  }
  cancelled_.insert(id);
  // Cancelling an event that already fired (or double-cancelling) leaves a
  // tombstone no pop will ever erase.  Under mass cancel/re-arm churn those
  // dead tombstones used to accumulate without bound; purge them whenever
  // they outnumber the events that could legitimately still match.
  if (cancelled_.size() > 64 && cancelled_.size() > 2 * queue_.size()) {
    PurgeStaleTombstones();
  }
}

void Simulator::PurgeStaleTombstones() {
  std::unordered_set<EventId> live;
  live.reserve(queue_.size());
  for (const QueuedEvent& ev : queue_) live.insert(ev.id);
  for (auto it = cancelled_.begin(); it != cancelled_.end();) {
    // A tombstoned wheel id whose event is still parked in the wheel cannot
    // exist: Cancel() frees parked events directly.  So any id absent from
    // the heap is dead — either already fired or already skipped.
    it = live.count(*it) == 0 ? cancelled_.erase(it) : std::next(it);
  }
}

void Simulator::SpillDueWheelSlots(SimTime limit) {
  while (!wheel_.Empty()) {
    const SimTime at = wheel_.NextSlotTime();  // lower bound on earliest
    if (at > limit) return;
    if (!queue_.empty() && queue_.front().time < at) return;
    due_buf_.clear();
    wheel_.PopNextSlot(due_buf_);
    for (const TimerWheel::Due& d : due_buf_) {
      PushQueued(QueuedEvent{
          d.time,
          kWheelFlag | (static_cast<EventId>(d.idx) << kWheelIdxShift) |
              d.seq,
          d.payload});
    }
  }
}

bool Simulator::PopAndRunNext(SimTime limit) {
  for (;;) {
    // Re-spill each iteration: skipping a tombstoned heap event can move
    // the heap top past wheel slots that were not due a moment ago.  The
    // inline empty check keeps the wheel entirely off the dispatch path
    // when no coarse timers are pending (the packet-burst common case).
    if (!wheel_.Empty()) SpillDueWheelSlots(limit);
    if (queue_.empty()) return false;
    if (queue_.front().time > limit) return false;
    const QueuedEvent top = PopQueued();
    --pending_;
    // Skip tombstoned events.
    if (!cancelled_.empty() && cancelled_.erase(top.id) > 0) {
      ReleaseSlot(top.slot);
      continue;
    }
    assert(top.time >= now_);
    now_ = top.time;
    ++processed_;
    {
      obs::ProfScope prof(g_prof_dispatch);
      InvokeSlot(top.slot);  // may schedule more events; slab blocks never move
    }
    ReleaseSlot(top.slot);
    return true;
  }
}

std::size_t Simulator::Run(std::size_t limit) {
  std::size_t count = 0;
  while (count < limit && PopAndRunNext(INT64_MAX)) ++count;
  return count;
}

void Simulator::RunUntil(SimTime t) {
  while (PopAndRunNext(t)) {
  }
  now_ = std::max(now_, t);
}

}  // namespace redplane::sim
