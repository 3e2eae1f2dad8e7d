// Hierarchical timing-wheel edge cases: slot-handle lifetime (cancel after
// fire/pop), same-tick ordering parity with the binary-heap scheduler,
// overflow into (and beyond) the top wheel level, and mass-cancel.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"
#include "sim/timer_wheel.h"

namespace redplane::sim {

/// Recounts pending timers per level by walking every bucket list — the
/// reference the wheel's incrementally kept counts are checked against.
struct TimerWheelTestPeer {
  static std::array<std::size_t, TimerWheel::kLevels + 1> Recount(
      const TimerWheel& wheel) {
    std::array<std::size_t, TimerWheel::kLevels + 1> counts{};
    for (std::uint16_t b = 0; b <= TimerWheel::kOverflowBucket; ++b) {
      for (std::uint32_t idx = wheel.heads_[b]; idx != TimerWheel::kNil;
           idx = wheel.nodes_[idx].next) {
        ++counts[static_cast<std::size_t>(TimerWheel::LevelOf(b))];
      }
    }
    return counts;
  }
};

namespace {

std::vector<TimerWheel::Due> DrainByPop(TimerWheel& wheel) {
  std::vector<TimerWheel::Due> out;
  std::vector<TimerWheel::Due> slot;
  while (!wheel.Empty()) {
    slot.clear();
    wheel.PopNextSlot(slot);
    out.insert(out.end(), slot.begin(), slot.end());
  }
  return out;
}

TEST(TimerWheelTest, PopsEveryEntryInTickOrder) {
  TimerWheel wheel;
  // Times spread across several wheel levels: sub-tick, level 0, and the
  // coarser levels (tick = 1024 ns, 64 slots per level).
  std::vector<SimTime> times;
  std::uint64_t seq = 1;
  for (SimTime t : {SimTime(100), SimTime(2048), SimTime(3000),
                    SimTime(70'000), SimTime(1'000'000), SimTime(50'000'000),
                    SimTime(3'000'000'000), SimTime(123'456'789'012)}) {
    times.push_back(t);
    ASSERT_NE(wheel.Schedule(t, seq++, 0), TimerWheel::kNil) << t;
  }
  EXPECT_EQ(wheel.Size(), times.size());
  const auto fired = DrainByPop(wheel);
  ASSERT_EQ(fired.size(), times.size());
  // Slots pop in nondecreasing tick order, and every entry surfaces with
  // its original timestamp.
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1].time >> 10, fired[i].time >> 10);
  }
  std::vector<SimTime> got;
  for (const auto& d : fired) got.push_back(d.time);
  std::sort(got.begin(), got.end());
  std::sort(times.begin(), times.end());
  EXPECT_EQ(got, times);
}

TEST(TimerWheelTest, CancelReturnsPayloadOnceThenRejectsStaleHandles) {
  TimerWheel wheel;
  const std::uint32_t idx = wheel.Schedule(SimTime(5'000'000), 7, 42);
  ASSERT_NE(idx, TimerWheel::kNil);
  std::uint32_t payload = 0;
  EXPECT_TRUE(wheel.Cancel(idx, 7, &payload));
  EXPECT_EQ(payload, 42u);
  EXPECT_TRUE(wheel.Empty());
  // Second cancel of the same handle: the node is free, seq no longer
  // matches — must refuse.
  EXPECT_FALSE(wheel.Cancel(idx, 7, &payload));
  // Node reuse bumps the stored seq; the old (idx, seq) handle stays dead.
  const std::uint32_t idx2 = wheel.Schedule(SimTime(6'000'000), 8, 43);
  ASSERT_EQ(idx2, idx);  // slab head reused
  EXPECT_FALSE(wheel.Cancel(idx, 7, &payload));
  EXPECT_TRUE(wheel.Cancel(idx, 8, &payload));
  EXPECT_EQ(payload, 43u);
}

TEST(TimerWheelTest, CancelAfterPopRejectsTheHandle) {
  TimerWheel wheel;
  const std::uint32_t idx = wheel.Schedule(SimTime(2048), 9, 5);
  ASSERT_NE(idx, TimerWheel::kNil);
  std::vector<TimerWheel::Due> due;
  while (due.empty() && !wheel.Empty()) wheel.PopNextSlot(due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].seq, 9u);
  std::uint32_t payload = 0;
  EXPECT_FALSE(wheel.Cancel(idx, 9, &payload));
}

TEST(TimerWheelTest, RefusesSchedulingBehindTheCursor) {
  TimerWheel wheel;
  ASSERT_NE(wheel.Schedule(SimTime(100'000'000), 1, 0), TimerWheel::kNil);
  // Pop the only entry: the cursor jumps to its tick.
  std::vector<TimerWheel::Due> due;
  while (due.empty() && !wheel.Empty()) wheel.PopNextSlot(due);
  ASSERT_EQ(due.size(), 1u);
  // A time strictly before the cursor cannot be placed (the caller falls
  // back to the heap).
  EXPECT_EQ(wheel.Schedule(SimTime(1000), 2, 0), TimerWheel::kNil);
}

TEST(TimerWheelTest, OverflowBeyondTopLevelRoundTrips) {
  TimerWheel wheel;
  // The six levels cover 2^36 ticks = 2^46 ns from the cursor; beyond that
  // entries park in the overflow list and re-enter when the cursor's epoch
  // catches up.
  const SimTime near = SimTime(1) << 20;
  const SimTime far1 = (SimTime(1) << 46) + 4096;    // first overflow epoch
  const SimTime far2 = (SimTime(1) << 47) + 8192;    // a later epoch still
  ASSERT_NE(wheel.Schedule(far2, 3, 0), TimerWheel::kNil);
  ASSERT_NE(wheel.Schedule(far1, 2, 0), TimerWheel::kNil);
  ASSERT_NE(wheel.Schedule(near, 1, 0), TimerWheel::kNil);
  EXPECT_EQ(wheel.NextSlotTime() >> 10, near >> 10);
  const auto fired = DrainByPop(wheel);
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0].time, near);
  EXPECT_EQ(fired[1].time, far1);
  EXPECT_EQ(fired[2].time, far2);
}

TEST(TimerWheelTest, CancellingTheOverflowMinimumRecomputesIt) {
  TimerWheel wheel;
  const SimTime far1 = (SimTime(1) << 46) + 1024;
  const SimTime far2 = (SimTime(1) << 46) + 2'000'000;
  const std::uint32_t i1 = wheel.Schedule(far1, 1, 0);
  const std::uint32_t i2 = wheel.Schedule(far2, 2, 0);
  ASSERT_NE(i1, TimerWheel::kNil);
  ASSERT_NE(i2, TimerWheel::kNil);
  std::uint32_t payload = 0;
  ASSERT_TRUE(wheel.Cancel(i1, 1, &payload));
  EXPECT_EQ(wheel.NextSlotTime() >> 10, far2 >> 10);
  const auto fired = DrainByPop(wheel);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].time, far2);
}

TEST(TimerWheelTest, DrainAllEmptiesTheWheelAndReturnsPayloads) {
  TimerWheel wheel;
  for (std::uint64_t i = 1; i <= 100; ++i) {
    ASSERT_NE(wheel.Schedule(SimTime(i * 777'777), i,
                             static_cast<std::uint32_t>(i)),
              TimerWheel::kNil);
  }
  std::vector<TimerWheel::Due> all;
  wheel.DrainAll(all);
  EXPECT_EQ(all.size(), 100u);
  EXPECT_TRUE(wheel.Empty());
  EXPECT_EQ(wheel.Size(), 0u);
  std::uint64_t payload_sum = 0;
  for (const auto& d : all) payload_sum += d.payload;
  EXPECT_EQ(payload_sum, 100u * 101u / 2);
}

TEST(TimerWheelTest, PerLevelCountsMatchABucketWalkUnderRandomOps) {
  // Interleaves schedules (near, level-spanning, and beyond the ~19.5 h
  // horizon into overflow), cancels (live and stale handles), slot pops
  // (which cascade higher levels down and refill from overflow) and the
  // occasional drain; after every operation the kept counts must equal a
  // recount of the bucket lists and sum to Size().
  TimerWheel wheel;
  Rng rng(20261018);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> handles;
  std::vector<TimerWheel::Due> due;
  SimTime now = 0;
  std::uint64_t seq = 0;
  constexpr SimTime kHorizon = SimTime(1) << 46;
  std::size_t overflow_seen = 0;
  std::size_t high_level_seen = 0;
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t pick = rng.NextBounded(100);
    if (pick < 50) {
      // Offsets from sub-tick to three horizons out, log-uniform so every
      // level (and overflow) gets filled.
      const SimTime offset =
          rng.UniformInt(0, (SimTime(1) << rng.UniformInt(0, 47)) - 1) +
          (rng.NextBounded(10) == 0 ? kHorizon * rng.UniformInt(1, 3) : 0);
      const std::uint32_t idx = wheel.Schedule(now + offset, ++seq, 0);
      ASSERT_NE(idx, TimerWheel::kNil);
      handles.emplace_back(idx, seq);
    } else if (pick < 75) {
      if (!handles.empty()) {
        const std::size_t h = rng.NextBounded(handles.size());
        std::uint32_t payload = 0;
        wheel.Cancel(handles[h].first, handles[h].second, &payload);
        handles[h] = handles.back();
        handles.pop_back();
      }
    } else if (pick < 99) {
      if (!wheel.Empty()) {
        due.clear();
        wheel.PopNextSlot(due);
        // The cursor now sits just past the popped slot's tick.
        for (const auto& d : due) {
          now = std::max(now, ((d.time >> TimerWheel::kTickShift) + 1)
                                  << TimerWheel::kTickShift);
        }
      }
    } else {
      due.clear();
      wheel.DrainAll(due);
      handles.clear();
    }
    const auto counts = wheel.CountPerLevel();
    ASSERT_EQ(counts, TimerWheelTestPeer::Recount(wheel)) << "op " << op;
    std::size_t total = 0;
    for (std::size_t n : counts) total += n;
    ASSERT_EQ(total, wheel.Size()) << "op " << op;
    overflow_seen += counts[TimerWheel::kLevels];
    for (int l = 2; l < TimerWheel::kLevels; ++l) {
      high_level_seen += counts[static_cast<std::size_t>(l)];
    }
  }
  EXPECT_GT(overflow_seen, 0u);
  EXPECT_GT(high_level_seen, 0u);
}

// --- Simulator integration -------------------------------------------------

/// Runs one schedule under the given coarse-timer threshold and returns the
/// observed firing order as (time, label) pairs.
std::vector<std::pair<SimTime, int>> RunSchedule(SimDuration threshold) {
  Simulator sim;
  sim.SetCoarseTimerThreshold(threshold);
  std::vector<std::pair<SimTime, int>> fired;
  auto record = [&](int label) {
    fired.emplace_back(sim.Now(), label);
  };
  // Mixed fine (heap) and coarse (wheel) delays, with deliberate same-time
  // collisions whose order must be the schedule order.
  sim.Schedule(Microseconds(500), [&] { record(1); });
  sim.Schedule(Microseconds(500), [&] { record(2); });
  sim.Schedule(Microseconds(1), [&] {
    record(3);
    sim.Schedule(Microseconds(499), [&] { record(4); });  // lands at 500 us
    sim.Schedule(Microseconds(63), [&] { record(5); });   // heap either way
  });
  sim.Schedule(Milliseconds(20), [&] { record(6); });
  sim.Schedule(Microseconds(500), [&] { record(7); });
  const EventId cancelled = sim.Schedule(Microseconds(300), [&] {
    record(99);  // must never fire
  });
  sim.Schedule(Microseconds(100), [&, cancelled] { sim.Cancel(cancelled); });
  sim.Schedule(Seconds(2), [&] { record(8); });
  sim.Run();
  return fired;
}

TEST(SimulatorWheelTest, WheelAndHeapFireInTheSameOrder) {
  // Determinism pin: routing coarse timers through the wheel must preserve
  // the heap scheduler's (time, schedule-order) firing sequence exactly.
  const auto with_wheel = RunSchedule(Simulator::kDefaultCoarseThreshold);
  const auto heap_only = RunSchedule(SimDuration{INT64_MAX});
  EXPECT_EQ(with_wheel, heap_only);
  const std::vector<int> expect_labels{3, 5, 1, 2, 7, 4, 6, 8};
  std::vector<int> labels;
  for (const auto& [t, l] : with_wheel) labels.push_back(l);
  EXPECT_EQ(labels, expect_labels);
}

TEST(SimulatorWheelTest, CancelAfterFireIsHarmless) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.Schedule(Milliseconds(1), [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  sim.Cancel(id);  // already fired: must not corrupt anything
  sim.Schedule(Milliseconds(1), [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_EQ(sim.CoarseTimersPending(), 0u);
}

TEST(SimulatorWheelTest, MassCancelDrainsWheelAndPendingCount) {
  Simulator sim;
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(
        sim.Schedule(Milliseconds(1) + Microseconds(i * 97), [&] { ++fired; }));
  }
  EXPECT_GT(sim.CoarseTimersPending(), 0u);
  // Cancel in a scrambled order (mass-cancel on Reset()/OnRecovery() hits
  // slots across every wheel level).
  for (std::size_t i = 0; i < ids.size(); i += 2) sim.Cancel(ids[i]);
  for (std::size_t i = 1; i < ids.size(); i += 2) sim.Cancel(ids[i]);
  EXPECT_EQ(sim.CoarseTimersPending(), 0u);
  EXPECT_EQ(sim.PendingEvents(), 0u);
  sim.Run();
  EXPECT_EQ(fired, 0);
  // The wheel stays usable after the purge.
  sim.Schedule(Milliseconds(5), [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorWheelTest, RunUntilLeavesFutureWheelTimersPending) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Milliseconds(1), [&] { ++fired; });
  sim.Schedule(Milliseconds(10), [&] { ++fired; });
  sim.RunUntil(Milliseconds(2));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

}  // namespace
}  // namespace redplane::sim
