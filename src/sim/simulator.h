// Discrete-event simulation kernel.
//
// Single-threaded, deterministic: events at equal timestamps fire in
// scheduling order (a monotonic tiebreak sequence), so a given seed always
// produces an identical run.
//
// Event storage is allocation-free in steady state: callables live in slabs
// of fixed-size slots recycled through free lists (heap fallback only for
// captures larger than the inline budget), and the priority queue holds
// plain {time, id, slot} records.  Once the slabs and queue are warm,
// scheduling and dispatching an event touches no allocator.  Two slot
// classes keep the cache footprint proportional to what events actually
// capture: small captures (a `this` pointer and a few words — the vast
// majority) get one-cache-line slots, while packet-carrying callables get
// kInlineCallableSize-byte slots.  Slabs grow in fixed blocks that never
// move, so slot addresses stay stable while a running callable schedules
// further events (growing a flat vector would move the storage out from
// under the callable being invoked).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/types.h"
#include "obs/tracer.h"
#include "sim/timer_wheel.h"

namespace redplane::sim {

/// Handle to a scheduled event; allows cancellation.
///
/// Packing: bit 63 set means the event lives in the timer wheel; bits 62:39
/// then hold the wheel node index and bits 38:0 the scheduling sequence
/// number (the determinism tiebreak).  Heap-resident events are just the
/// sequence number.  Callers treat the id as opaque either way.
using EventId = std::uint64_t;

class Simulator {
 public:
  /// Callables with captures up to this size are stored inline in the large
  /// slab (covers a Packet plus several pointers); larger ones fall back to
  /// one heap allocation.
  static constexpr std::size_t kInlineCallableSize = 256;

  /// Captures at or below this size use the small slab, whose slots fit a
  /// single cache line including their dispatch metadata.
  static constexpr std::size_t kSmallCallableSize = 32;

  /// Events at least this far in the future are coarse timers: they go to
  /// the hierarchical timing wheel (O(1) schedule/cancel) instead of the
  /// binary heap, and spill into the heap just in time to dispatch.  The
  /// default clears the dense band of packet-propagation events (hundreds
  /// of ns to a few µs) while catching protocol timers (retransmit, renew,
  /// lease expiry: hundreds of µs to seconds).
  static constexpr SimDuration kDefaultCoarseThreshold = Microseconds(64);

  /// Construction registers this simulator's clock with the logger, so
  /// RP_LOG lines carry simulated time (`[t=1.234ms]`); destruction
  /// unregisters it (last simulator constructed wins).
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime Now() const { return now_; }

  /// Records this simulation into `tracer` (its clock becomes Now()) until
  /// DetachTracer or destruction, which clear the clock again.  A tracer
  /// serves one simulator at a time and must outlive it or be detached.
  void AttachTracer(obs::Tracer& tracer) {
    DetachTracer();
    tracer_ = &tracer;
    tracer.SetClock([this] { return now_; });
  }
  void DetachTracer() {
    if (tracer_ != nullptr) tracer_->SetClock(nullptr);
    tracer_ = nullptr;
  }
  /// The slot every component's obs::TraceHandle reads: the attached
  /// tracer, or null.
  obs::Tracer* const& tracer_slot() const { return tracer_; }

  /// Schedules `fn` to run `delay` from now (delay may be 0; negative delays
  /// are clamped to 0).  Returns an id usable with Cancel().
  template <typename F>
  EventId Schedule(SimDuration delay, F&& fn) {
    return ScheduleAt(now_ + (delay > 0 ? delay : 0), std::forward<F>(fn));
  }

  /// Schedules `fn` at absolute time `t` (clamped to Now()).
  template <typename F>
  EventId ScheduleAt(SimTime t, F&& fn) {
    using Fn = std::decay_t<F>;
    std::uint32_t slot;
    if constexpr (sizeof(Fn) <= kSmallCallableSize &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      slot = small_slab_.Alloc();
      small_slab_.Emplace(slot, std::forward<F>(fn));
    } else {
      slot = large_slab_.Alloc();
      large_slab_.Emplace(slot, std::forward<F>(fn));
      slot |= kLargeSlot;
    }
    const EventId seq = next_id_++;
    const SimTime at = t > now_ ? t : now_;
    // Wheel ids pack the sequence into 39 bits; past that (≈5.5e11 events)
    // coarse timers stop using the wheel rather than corrupting the packed
    // node index (the assert that used to guard this vanished in release
    // builds — found by the fuzz campaign's handle audit).
    if (at - now_ >= coarse_threshold_ && seq <= kSeqMask) {
      // The wheel refuses times its cursor already passed (it can run a
      // little ahead of now_ when a due slot was spilled early) and slab
      // exhaustion; both fall back to the heap.
      const std::uint32_t idx = wheel_.Schedule(at, seq, slot);
      if (idx != TimerWheel::kNil) {
        ++pending_;
        return kWheelFlag | (static_cast<EventId>(idx) << kWheelIdxShift) |
               seq;
      }
    }
    PushQueued(QueuedEvent{at, seq, slot});
    ++pending_;
    return seq;
  }

  /// Cancels a pending event.  Cancelling an already-fired or unknown event
  /// is a no-op.  O(1): the event is tombstoned and skipped when popped.
  void Cancel(EventId id);

  /// Runs events until the queue is empty or `limit` events have fired.
  /// Returns the number of events processed.
  std::size_t Run(std::size_t limit = SIZE_MAX);

  /// Runs events with timestamp <= t; afterwards Now() == t (even if the
  /// queue emptied earlier), so periodic processes can be restarted.
  void RunUntil(SimTime t);

  /// Total events processed since construction.
  std::uint64_t EventsProcessed() const { return processed_; }

  /// Number of pending (non-cancelled) events.
  std::size_t PendingEvents() const { return pending_; }

  /// Number of cancel tombstones currently carried for events that were no
  /// longer parked in the wheel when cancelled.  Bounded: Cancel() purges
  /// tombstones that no longer match any queued event, so mass cancel /
  /// re-arm churn cannot grow this without bound (pinned by a stress test).
  std::size_t CancelTombstones() const { return cancelled_.size(); }

  /// Number of pending coarse timers currently parked in the timing wheel
  /// (excludes due slots already spilled into the heap).
  std::size_t CoarseTimersPending() const { return wheel_.Size(); }

  /// Read-only view of the timing wheel (per-level occupancy gauges).
  const TimerWheel& wheel() const { return wheel_; }

  /// Sets the delay at or beyond which events are stored in the timing
  /// wheel rather than the binary heap.  The backing store never changes
  /// firing times or tie order, so traces stay bit-identical across
  /// thresholds — the property the determinism tests pin.  INT64_MAX
  /// disables the wheel entirely.
  void SetCoarseTimerThreshold(SimDuration threshold) {
    coarse_threshold_ = threshold;
  }

 private:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  /// Slot-index tag bit selecting the large slab.
  static constexpr std::uint32_t kLargeSlot = 0x80000000u;
  /// Slabs grow one fixed block at a time, keeping cold-start allocation
  /// O(events / block) rather than per-event.
  static constexpr std::uint32_t kSlotsPerBlock = 64;

  /// EventId packing (see the EventId comment).
  static constexpr EventId kWheelFlag = 1ull << 63;
  static constexpr int kWheelIdxShift = 39;
  static constexpr EventId kSeqMask = (1ull << kWheelIdxShift) - 1;

  struct QueuedEvent {
    SimTime time;
    EventId id;
    std::uint32_t slot;

    bool operator>(const QueuedEvent& other) const {
      if (time != other.time) return time > other.time;
      // Compare by scheduling sequence first: events spilled from the wheel
      // carry their packed id (wheel flag + node index in the high bits)
      // but must keep their original schedule-order tiebreak against
      // heap-resident peers.  The full-id fallback only matters once the
      // 39-bit sequence space wraps for heap events (wheel ids never do);
      // it keeps the order deterministic there too.
      const EventId a = id & kSeqMask, b = other.id & kSeqMask;
      if (a != b) return a > b;
      return id > other.id;
    }
  };

  /// Free-listed pool of slots with `N` bytes of inline callable storage.
  /// Blocks are never moved or freed before the simulator dies, so a slot
  /// reference stays valid across any amount of scheduling.
  template <std::size_t N>
  class Slab {
   public:
    /// One cell: inline storage for the type-erased callable, or a heap
    /// pointer when the callable exceeds the inline budget.
    struct Slot {
      alignas(std::max_align_t) std::byte storage[N];
      void (*invoke)(void*) = nullptr;
      void (*destroy)(void*) = nullptr;
      void* heap = nullptr;
      std::uint32_t next_free = kNoSlot;
    };

    std::uint32_t Alloc() {
      if (free_head_ != kNoSlot) {
        const std::uint32_t index = free_head_;
        free_head_ = At(index).next_free;
        return index;
      }
      if (size_ == blocks_.size() * kSlotsPerBlock) {
        // Default-init, not value-init: zeroing each slot's inline storage
        // would memset the whole block for bytes the callable overwrites.
        blocks_.push_back(
            std::make_unique_for_overwrite<Slot[]>(kSlotsPerBlock));
      }
      return size_++;
    }

    template <typename F>
    void Emplace(std::uint32_t index, F&& fn) {
      using Fn = std::decay_t<F>;
      Slot& s = At(index);
      if constexpr (sizeof(Fn) <= N &&
                    alignof(Fn) <= alignof(std::max_align_t)) {
        ::new (static_cast<void*>(s.storage)) Fn(std::forward<F>(fn));
        s.heap = nullptr;
        s.invoke = [](void* p) { (*std::launder(static_cast<Fn*>(p)))(); };
        s.destroy = [](void* p) { std::launder(static_cast<Fn*>(p))->~Fn(); };
      } else {
        s.heap = new Fn(std::forward<F>(fn));
        s.invoke = [](void* p) { (*static_cast<Fn*>(p))(); };
        s.destroy = [](void* p) { delete static_cast<Fn*>(p); };
      }
    }

    void Invoke(std::uint32_t index) {
      Slot& s = At(index);
      s.invoke(s.heap != nullptr ? s.heap : static_cast<void*>(s.storage));
    }

    /// Destroys the slot's callable (if still present) and returns the slot
    /// to the free list.
    void Release(std::uint32_t index) {
      Slot& s = At(index);
      if (s.destroy != nullptr) {
        s.destroy(s.heap != nullptr ? s.heap : static_cast<void*>(s.storage));
        s.destroy = nullptr;
        s.invoke = nullptr;
        s.heap = nullptr;
      }
      s.next_free = free_head_;
      free_head_ = index;
    }

   private:
    Slot& At(std::uint32_t index) {
      return blocks_[index / kSlotsPerBlock][index % kSlotsPerBlock];
    }

    std::vector<std::unique_ptr<Slot[]>> blocks_;
    std::uint32_t size_ = 0;
    std::uint32_t free_head_ = kNoSlot;
  };

  void InvokeSlot(std::uint32_t slot) {
    if ((slot & kLargeSlot) != 0) {
      large_slab_.Invoke(slot & ~kLargeSlot);
    } else {
      small_slab_.Invoke(slot);
    }
  }

  void ReleaseSlot(std::uint32_t slot) {
    if ((slot & kLargeSlot) != 0) {
      large_slab_.Release(slot & ~kLargeSlot);
    } else {
      small_slab_.Release(slot);
    }
  }

  bool PopAndRunNext(SimTime limit);
  /// Moves every wheel slot due at or before `limit` and not after the
  /// current heap top into the heap, preserving (time, sequence) order.
  void SpillDueWheelSlots(SimTime limit);

  /// Min-heap primitives over queue_ (same ordering std::priority_queue
  /// used; an open vector so PurgeStaleTombstones can scan live ids).
  void PushQueued(QueuedEvent ev) {
    queue_.push_back(ev);
    std::push_heap(queue_.begin(), queue_.end(), std::greater<>{});
  }
  QueuedEvent PopQueued() {
    std::pop_heap(queue_.begin(), queue_.end(), std::greater<>{});
    const QueuedEvent ev = queue_.back();
    queue_.pop_back();
    return ev;
  }

  /// Drops every tombstone that no longer matches a queued event.  Called
  /// from Cancel() when the tombstone set outgrows the live queue: without
  /// it, cancelling an id that already fired (mass cancel/re-arm churn —
  /// the fuzz campaign's lease-churn attack) parked one dead entry in
  /// `cancelled_` forever.
  void PurgeStaleTombstones();

  SimTime now_ = 0;
  EventId next_id_ = 1;
  /// Lives with the other hot scalars (read on every ScheduleAt), not
  /// after the ~1.6 KB wheel where it would cost its own cache line.
  SimDuration coarse_threshold_ = kDefaultCoarseThreshold;
  std::uint64_t processed_ = 0;
  std::size_t pending_ = 0;
  /// Binary min-heap on (time, seq), maintained with std::push_heap /
  /// std::pop_heap — identical pop order to the std::priority_queue it
  /// replaced, but the underlying vector stays scannable for tombstone
  /// purging.
  std::vector<QueuedEvent> queue_;
  obs::Tracer* tracer_ = nullptr;  // beside the slab every Schedule touches
  Slab<kSmallCallableSize> small_slab_;
  Slab<kInlineCallableSize> large_slab_;
  /// Tombstones for cancelled-but-not-yet-popped events (O(1) insert/erase;
  /// the old linear-scanned vector degraded under retransmit-heavy runs).
  std::unordered_set<EventId> cancelled_;
  /// Coarse timers (wheel node payload = the callable's slot index).
  TimerWheel wheel_;
  /// Scratch for PopNextSlot/DrainAll output; reused to stay allocation-free
  /// in steady state.
  std::vector<TimerWheel::Due> due_buf_;
};

}  // namespace redplane::sim
