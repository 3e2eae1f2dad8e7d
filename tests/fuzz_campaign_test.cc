// Adversarial scenario engine (DESIGN.md §15): schedule generator
// well-formedness, JSON round-trip, ddmin minimization, deterministic
// replay, and the committed schedules under tests/schedules/ (failover
// scenarios and minimized repros).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "obs/events.h"
#include "obs/tracer.h"
#include "tools/campaign/minimizer.h"
#include "tools/campaign/runner.h"
#include "tools/campaign/schedule.h"

namespace redplane::campaign {
namespace {

std::string TempOutDir(const char* leaf) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / leaf;
  std::filesystem::create_directories(dir);
  return dir.string();
}

// --- generator -------------------------------------------------------------

TEST(ScheduleGenerator, DrawsWellFormedSchedulesAcrossAllClasses) {
  for (const FuzzClass focus :
       {FuzzClass::kMixed, FuzzClass::kGray, FuzzClass::kChurn,
        FuzzClass::kFlash, FuzzClass::kCapacity}) {
    for (std::uint64_t seed = 100; seed < 140; ++seed) {
      GeneratorConfig config;
      config.focus = focus;
      const Schedule s = GenerateSchedule(seed, config);
      SCOPED_TRACE(std::string(FuzzClassName(focus)) + " seed " +
                   std::to_string(seed));
      EXPECT_FALSE(s.Empty());
      EXPECT_EQ(s.seed, seed);
      for (const FaultEvent& ev : s.faults) {
        EXPECT_GE(ev.at, 0);
        // The generator promises survivable schedules: every fault heals
        // inside the run, after it was injected.
        EXPECT_GT(ev.clear_at, ev.at);
        switch (ev.kind) {
          case FaultKind::kSlowShard:
            EXPECT_GE(ev.magnitude, 1.0);
            EXPECT_LE(ev.magnitude, 20.0);
            break;
          case FaultKind::kAsymLoss:
            EXPECT_GT(ev.magnitude, 0.0);
            EXPECT_LE(ev.magnitude, 1.0);
            break;
          case FaultKind::kCapacity:
            EXPECT_GE(ev.magnitude, 8.0);
            break;
          default:
            break;
        }
      }
      for (const LoadPhase& ph : s.loads) {
        EXPECT_GE(ph.at, 0);
        EXPECT_GT(ph.duration, 0);
        EXPECT_GT(ph.intensity, 0u);
      }
    }
  }
}

TEST(ScheduleGenerator, ClassFocusShapesTheDraw) {
  // Gray runs must contain at least one gray fault; churn runs at least one
  // rehash + a churn phase; capacity runs a capacity fault.  This is what
  // makes --fuzz-class a meaningful coverage knob rather than a label.
  for (std::uint64_t seed = 500; seed < 520; ++seed) {
    GeneratorConfig config;
    config.focus = FuzzClass::kGray;
    const Schedule gray = GenerateSchedule(seed, config);
    EXPECT_TRUE(std::any_of(gray.faults.begin(), gray.faults.end(),
                            [](const FaultEvent& e) {
                              return e.kind == FaultKind::kSlowShard ||
                                     e.kind == FaultKind::kAsymLoss ||
                                     e.kind == FaultKind::kPartition;
                            }));

    config.focus = FuzzClass::kChurn;
    const Schedule churn = GenerateSchedule(seed, config);
    EXPECT_TRUE(std::any_of(
        churn.faults.begin(), churn.faults.end(),
        [](const FaultEvent& e) { return e.kind == FaultKind::kEcmpRehash; }));
    EXPECT_TRUE(std::any_of(
        churn.loads.begin(), churn.loads.end(),
        [](const LoadPhase& p) { return p.kind == LoadKind::kLeaseChurn; }));

    // Flash schedules always carry the crash-mid-crowd pair: the crash is
    // what forces failover replay under admission pile-up, and the CI
    // class self-test (flash + mutate=seq) must reach it from any seed.
    config.focus = FuzzClass::kFlash;
    const Schedule flash = GenerateSchedule(seed, config);
    EXPECT_TRUE(std::any_of(
        flash.faults.begin(), flash.faults.end(),
        [](const FaultEvent& e) { return e.kind == FaultKind::kSwitchCrash; }));
    EXPECT_TRUE(std::any_of(
        flash.loads.begin(), flash.loads.end(),
        [](const LoadPhase& p) { return p.kind == LoadKind::kFlashCrowd; }));

    config.focus = FuzzClass::kCapacity;
    const Schedule cap = GenerateSchedule(seed, config);
    EXPECT_TRUE(std::any_of(
        cap.faults.begin(), cap.faults.end(),
        [](const FaultEvent& e) { return e.kind == FaultKind::kCapacity; }));
  }
}

TEST(ScheduleGenerator, SameSeedSameScheduleDifferentSeedsDiffer) {
  const Schedule a = GenerateSchedule(1234);
  const Schedule b = GenerateSchedule(1234);
  EXPECT_EQ(ToJson(a), ToJson(b));
  std::set<std::string> distinct;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    distinct.insert(ToJson(GenerateSchedule(seed)));
  }
  EXPECT_GT(distinct.size(), 8u);
}

// --- JSON round-trip -------------------------------------------------------

TEST(ScheduleJson, RoundTripsExactly) {
  for (std::uint64_t seed = 900; seed < 930; ++seed) {
    const Schedule s = GenerateSchedule(seed);
    const std::string json = ToJson(s);
    const auto back = ScheduleFromJson(json);
    ASSERT_TRUE(back.has_value()) << json;
    EXPECT_EQ(ToJson(*back), json);
    EXPECT_EQ(back->seed, s.seed);
    EXPECT_EQ(back->packets_per_flow, s.packets_per_flow);
    ASSERT_EQ(back->faults.size(), s.faults.size());
    ASSERT_EQ(back->loads.size(), s.loads.size());
  }
  // lease_ns is optional: absent means 50 ms and stays absent on output;
  // present, it survives the round trip.
  const auto plain = ScheduleFromJson(R"({"seed": 7, "faults": []})");
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->lease, Milliseconds(50));
  EXPECT_EQ(ToJson(*plain).find("lease_ns"), std::string::npos);
  const auto short_lease =
      ScheduleFromJson(R"({"seed": 7, "lease_ns": 10000000, "faults": []})");
  ASSERT_TRUE(short_lease.has_value());
  EXPECT_EQ(short_lease->lease, Milliseconds(10));
  const std::string json = ToJson(*short_lease);
  EXPECT_NE(json.find("\"lease_ns\": 10000000"), std::string::npos) << json;
  const auto back = ScheduleFromJson(json);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->lease, Milliseconds(10));
  EXPECT_EQ(ToJson(*back), json);
}

TEST(ScheduleJson, RejectsMalformedDocuments) {
  EXPECT_FALSE(ScheduleFromJson("").has_value());
  EXPECT_FALSE(ScheduleFromJson("not json").has_value());
  EXPECT_FALSE(ScheduleFromJson("[1, 2]").has_value());
  // Unknown fault kind: a repro written by a newer binary must not silently
  // replay with the unknown event dropped — that would "pass" a regression
  // without exercising it.
  EXPECT_FALSE(ScheduleFromJson(
                   R"({"faults": [{"kind": "warp_core_breach", "at_ns": 1}]})")
                   .has_value());
  EXPECT_FALSE(
      ScheduleFromJson(R"({"loads": [{"kind": "dance_party", "at_ns": 1}]})")
          .has_value());
  // Negative injection time / non-positive traffic or lease are nonsense
  // timelines.
  EXPECT_FALSE(ScheduleFromJson(
                   R"({"faults": [{"kind": "link_cut", "at_ns": -5}]})")
                   .has_value());
  EXPECT_FALSE(ScheduleFromJson(R"({"packets_per_flow": 0})").has_value());
  EXPECT_FALSE(ScheduleFromJson(R"({"lease_ns": 0})").has_value());
  EXPECT_FALSE(ScheduleFromJson(R"({"lease_ns": -10000000})").has_value());
  // Well-formed minimal document parses.
  EXPECT_TRUE(ScheduleFromJson(R"({"seed": 1, "faults": [], "loads": []})")
                  .has_value());
}

// --- minimizer -------------------------------------------------------------

TEST(Minimizer, IsolatesTheCausalPairOutOfManyEvents) {
  // Synthetic oracle: the "bug" needs a store crash AND a SYN flood in the
  // same schedule; the other six events are noise.  ddmin must delete the
  // noise and keep exactly the causal pair.
  Schedule full;
  full.seed = 77;
  for (int i = 0; i < 5; ++i) {
    FaultEvent ev;
    ev.kind = i == 2 ? FaultKind::kStoreCrash : FaultKind::kEcmpRehash;
    ev.at = Milliseconds(2 + i);
    ev.clear_at = Milliseconds(20 + i);
    ev.magnitude = 3;
    full.faults.push_back(ev);
  }
  for (int i = 0; i < 3; ++i) {
    LoadPhase ph;
    ph.kind = i == 1 ? LoadKind::kSynFlood : LoadKind::kFlashCrowd;
    ph.at = Milliseconds(4 + i);
    ph.intensity = 8;
    full.loads.push_back(ph);
  }
  const auto oracle = [](const Schedule& s) {
    const bool crash = std::any_of(
        s.faults.begin(), s.faults.end(),
        [](const FaultEvent& e) { return e.kind == FaultKind::kStoreCrash; });
    const bool flood = std::any_of(
        s.loads.begin(), s.loads.end(),
        [](const LoadPhase& p) { return p.kind == LoadKind::kSynFlood; });
    return crash && flood;
  };
  ASSERT_TRUE(oracle(full));

  const MinimizeResult result = MinimizeSchedule(full, oracle);
  EXPECT_EQ(result.schedule.NumEvents(), 2u);
  ASSERT_EQ(result.schedule.faults.size(), 1u);
  ASSERT_EQ(result.schedule.loads.size(), 1u);
  EXPECT_EQ(result.schedule.faults[0].kind, FaultKind::kStoreCrash);
  EXPECT_EQ(result.schedule.loads[0].kind, LoadKind::kSynFlood);
  EXPECT_TRUE(result.one_minimal);
  // Seed and traffic shape survive minimization (replayability).
  EXPECT_EQ(result.schedule.seed, full.seed);
  EXPECT_EQ(result.schedule.packets_per_flow, full.packets_per_flow);
  // ddmin on 8 events should need far fewer probes than 2^8 subsets.
  EXPECT_LE(result.probes, 40);
}

TEST(Minimizer, SingleCulpritReducesToOneEvent) {
  Schedule full = GenerateSchedule(4242);
  ASSERT_GE(full.NumEvents(), 1u);
  FaultEvent culprit;
  culprit.kind = FaultKind::kPartition;
  culprit.at = Milliseconds(3);
  culprit.clear_at = Milliseconds(9);
  culprit.magnitude = 1.0;
  full.faults.push_back(culprit);
  const auto oracle = [](const Schedule& s) {
    return std::any_of(
        s.faults.begin(), s.faults.end(),
        [](const FaultEvent& e) { return e.kind == FaultKind::kPartition; });
  };
  const MinimizeResult result = MinimizeSchedule(full, oracle);
  EXPECT_EQ(result.schedule.NumEvents(), 1u);
  ASSERT_EQ(result.schedule.faults.size(), 1u);
  EXPECT_EQ(result.schedule.faults[0].kind, FaultKind::kPartition);
}

TEST(Minimizer, RespectsTheProbeBudget) {
  Schedule full = GenerateSchedule(5555);
  int calls = 0;
  const auto oracle = [&calls](const Schedule&) {
    ++calls;
    return true;  // pathological: everything "fails"
  };
  const MinimizeResult result = MinimizeSchedule(full, oracle, /*max_probes=*/7);
  EXPECT_LE(result.probes, 7);
  EXPECT_EQ(result.probes, calls);
}

// --- deterministic replay --------------------------------------------------

TEST(DeterministicReplay, SameSeedAndScheduleGiveIdenticalTraceHash) {
  Schedule s;
  s.seed = 31337;
  s.packets_per_flow = 12;
  FaultEvent cut;
  cut.kind = FaultKind::kLinkCut;
  cut.at = Milliseconds(2);
  cut.clear_at = Milliseconds(12);
  s.faults.push_back(cut);
  LoadPhase crowd;
  crowd.kind = LoadKind::kFlashCrowd;
  crowd.at = Milliseconds(3);
  crowd.duration = Milliseconds(4);
  crowd.intensity = 8;
  s.loads.push_back(crowd);

  const std::string out_dir = TempOutDir("fuzz_replay");
  for (const core::ConsistencyMode mode :
       {core::ConsistencyMode::kSingleOwner,
        core::ConsistencyMode::kReplicatedRead,
        core::ConsistencyMode::kMergeable}) {
    SCOPED_TRACE(static_cast<int>(mode));
    const RunResult first = RunSchedule(s, mode, {}, out_dir, "replay_a");
    const RunResult second = RunSchedule(s, mode, {}, out_dir, "replay_b");
    EXPECT_TRUE(first.Clean()) << first.oracle_why;
    EXPECT_TRUE(second.Clean()) << second.oracle_why;
    EXPECT_NE(first.trace_hash, 0u);
    // The replay contract: bit-identical delivery stream, not merely the
    // same counters.  This is what makes a minimized schedule a *repro*.
    EXPECT_EQ(first.trace_hash, second.trace_hash);
    EXPECT_EQ(first.sent, second.sent);
    EXPECT_EQ(first.delivered, second.delivered);
  }
}

// --- committed schedules ---------------------------------------------------

std::filesystem::path SchedulesDir() {
  return std::filesystem::path(REDPLANE_SOURCE_DIR) / "tests" / "schedules";
}

std::optional<Schedule> LoadSchedule(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return ScheduleFromJson(buf.str());
}

// One row of tests/schedules/golden_replays.csv, keyed by
// "schedule,mode,batching_us": the replay's fingerprint, taken from an
// earlier build.  audit_events is what catches a component whose records
// stop reaching the tracer; the delivery hash cannot.
struct GoldenReplay {
  std::uint64_t trace_hash = 0;
  int sent = 0;
  int delivered = 0;
  std::uint64_t audit_events = 0;
};

std::map<std::string, GoldenReplay> LoadGoldenReplays() {
  std::ifstream in(SchedulesDir() / "golden_replays.csv");
  std::map<std::string, GoldenReplay> table;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string schedule, mode, batching_us, field;
    std::getline(row, schedule, ',');
    std::getline(row, mode, ',');
    std::getline(row, batching_us, ',');
    GoldenReplay& g = table[schedule + "," + mode + "," + batching_us];
    std::getline(row, field, ',');
    g.trace_hash = std::stoull(field);
    std::getline(row, field, ',');
    g.sent = std::stoi(field);
    std::getline(row, field, ',');
    g.delivered = std::stoi(field);
    std::getline(row, field, ',');
    g.audit_events = std::stoull(field);
  }
  return table;
}

TEST(CommittedSchedules, EveryReproParsesAndReplaysClean) {
  const std::filesystem::path dir = SchedulesDir();
  ASSERT_TRUE(std::filesystem::is_directory(dir));
  const std::map<std::string, GoldenReplay> golden = LoadGoldenReplays();
  const std::string out_dir = TempOutDir("fuzz_repro");
  std::size_t count = 0;
  std::size_t checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    ++count;
    SCOPED_TRACE(entry.path().filename().string());
    const auto schedule = LoadSchedule(entry.path());
    ASSERT_TRUE(schedule.has_value());
    EXPECT_FALSE(schedule->Empty());
    // Round-trip stability keeps the committed artifacts diff-friendly.
    const auto again = ScheduleFromJson(ToJson(*schedule));
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(ToJson(*again), ToJson(*schedule));
    // Replay as a regression: failover scenarios and minimized repros of
    // fixed bugs, so a clean run that reproduces its golden row is the pass
    // condition.  The schedule does not pin a consistency mode and some
    // bugs only reproduce under a weaker one (the tail-crash commit gap
    // needs replicated buffered reads; the stale-resync rollback needs
    // mergeable deltas), so replay all three, plus single-owner with the
    // 16 µs replication batching of CI's batched passes.
    struct Pass {
      core::ConsistencyMode mode;
      const char* name;  // the campaign's --consistency value
      int batching_us;
    };
    constexpr Pass kPasses[] = {
        {core::ConsistencyMode::kSingleOwner, "single", 0},
        {core::ConsistencyMode::kReplicatedRead, "replicated", 0},
        {core::ConsistencyMode::kMergeable, "mergeable", 0},
        {core::ConsistencyMode::kSingleOwner, "single", 16},
    };
    for (const Pass& p : kPasses) {
      const std::string stem = entry.path().stem().string();
      const std::string key =
          stem + "," + p.name + "," + std::to_string(p.batching_us);
      SCOPED_TRACE(key);
      const RunResult result = RunSchedule(*schedule, p.mode, {}, out_dir,
                                           stem, Microseconds(p.batching_us));
      EXPECT_TRUE(result.Clean())
          << result.oracle_why << " violations=" << result.violations.size();
      const auto row = golden.find(key);
      ASSERT_NE(row, golden.end()) << "no golden_replays.csv row";
      EXPECT_EQ(result.trace_hash, row->second.trace_hash);
      EXPECT_EQ(result.sent, row->second.sent);
      EXPECT_EQ(result.delivered, row->second.delivered);
      EXPECT_EQ(result.audit_events, row->second.audit_events);
      ++checked;
    }
  }
  EXPECT_GE(count, 26u);
  EXPECT_EQ(checked, golden.size()) << "golden rows without a schedule";
}

TEST(CommittedSchedules, FailoverScenariosRecoverInOneEpisode) {
  // Each failover scenario injects exactly one fault, so it must yield
  // exactly one recovery episode that completes (service resumed) with
  // phase durations summing to the measured downtime (DESIGN.md §13).
  // Mergeable mode never pauses flows, so its episodes are not judged.
  const std::string out_dir = TempOutDir("fuzz_failover");
  for (const char* name : {"switch_crash_s42", "link_flap_s42",
                           "lease_race_s42", "store_failover_s42"}) {
    SCOPED_TRACE(name);
    const auto schedule =
        LoadSchedule(SchedulesDir() / (std::string(name) + ".json"));
    ASSERT_TRUE(schedule.has_value());
    ASSERT_EQ(schedule->faults.size(), 1u);
    for (const core::ConsistencyMode mode :
         {core::ConsistencyMode::kSingleOwner,
          core::ConsistencyMode::kReplicatedRead}) {
      SCOPED_TRACE(static_cast<int>(mode));
      const RunResult r = RunSchedule(*schedule, mode, {}, out_dir, name);
      EXPECT_TRUE(r.Clean()) << r.oracle_why;
      ASSERT_EQ(r.episodes.size(), 1u);
      EXPECT_TRUE(r.episodes[0].complete);
      EXPECT_TRUE(r.episodes[0].phase_sum_ok);
    }
  }
}

// Per-kind record counts of the switch crash replay, per sink: taken when
// the ring and the audit taps were two separate streams, so any kind whose
// routing (obs/events.h) drifts between the ring and the subscribers fails
// here.  Index 0 = single-owner, 1 = replicated-read.
struct SinkCounts {
  obs::Ev ev;
  std::uint64_t ring[2];
  std::uint64_t subscribers[2];
};
constexpr SinkCounts kSwitchCrashCounts[] = {
    {obs::Ev::kIngress, {160, 440}, {0, 0}},
    {obs::Ev::kHostRecv, {152, 418}, {0, 0}},
    {obs::Ev::kLinkDrop, {8, 22}, {0, 0}},
    {obs::Ev::kNodeFailure, {1, 1}, {0, 0}},
    {obs::Ev::kNodeRecovery, {1, 1}, {0, 0}},
    {obs::Ev::kReroute, {2, 2}, {2, 2}},
    {obs::Ev::kPipeline, {3002, 6847}, {0, 0}},
    {obs::Ev::kRecirculate, {94, 274}, {0, 0}},
    {obs::Ev::kMirrored, {161, 161}, {0, 0}},
    {obs::Ev::kMirrorCleared, {161, 161}, {0, 0}},
    {obs::Ev::kLeaseMiss, {7, 7}, {0, 0}},
    {obs::Ev::kLeaseGrant, {4, 4}, {4, 4}},
    {obs::Ev::kFailoverRehome, {3, 3}, {3, 3}},
    {obs::Ev::kReplicationSent, {154, 154}, {0, 0}},
    {obs::Ev::kRenewSent, {3, 3}, {0, 0}},
    {obs::Ev::kRenewAck, {3, 3}, {0, 0}},
    {obs::Ev::kBufferedRead, {0, 41}, {0, 0}},
    {obs::Ev::kBufferedReadLoop, {87, 267}, {0, 0}},
    {obs::Ev::kRetransmit, {287, 602}, {0, 0}},
    {obs::Ev::kAckReleased, {154, 508}, {154, 508}},
    {obs::Ev::kStoreRecv, {1036, 2017}, {0, 0}},
    {obs::Ev::kStoreServiceStart, {1036, 2017}, {0, 0}},
    {obs::Ev::kStoreApplied, {458, 458}, {458, 458}},
    {obs::Ev::kStoreBuffered, {3, 3}, {0, 0}},
    {obs::Ev::kStoreReadParked, {87, 267}, {0, 0}},
    {obs::Ev::kStoreResponded, {249, 468}, {0, 0}},
    {obs::Ev::kLeaseAcquired, {0, 0}, {164, 477}},
    {obs::Ev::kLeaseReleased, {0, 0}, {1, 1}},
    {obs::Ev::kLeaseRequested, {0, 0}, {7, 7}},
    {obs::Ev::kOutputServed, {0, 0}, {152, 418}},
    {obs::Ev::kStoreFiltered, {0, 0}, {2, 317}},
    {obs::Ev::kDupAckDurable, {0, 0}, {2, 317}},
    {obs::Ev::kTailCommit, {0, 0}, {152, 152}},
    {obs::Ev::kNodeDown, {0, 0}, {1, 1}},
    {obs::Ev::kNodeUp, {0, 0}, {1, 1}},
    {obs::Ev::kFlowAdmitted, {0, 0}, {0, 7}},
    {obs::Ev::kLocalReadServed, {0, 0}, {0, 224}},
    {obs::Ev::kReplicaPushed, {0, 0}, {0, 90}},
};

TEST(CommittedSchedules, SwitchCrashRoutesEachKindToItsSinks) {
  const auto schedule = LoadSchedule(SchedulesDir() / "switch_crash_s42.json");
  ASSERT_TRUE(schedule.has_value());
  const std::string out_dir = TempOutDir("routing_pin");
  const core::ConsistencyMode modes[] = {
      core::ConsistencyMode::kSingleOwner,
      core::ConsistencyMode::kReplicatedRead};
  for (int m = 0; m < 2; ++m) {
    SCOPED_TRACE(static_cast<int>(modes[m]));
    obs::Tracer tracer;
    std::vector<std::uint64_t> ring(obs::kNumEvents, 0);
    std::vector<std::uint64_t> dispatched(obs::kNumEvents, 0);
    tracer.Subscribe([&](const obs::TraceRecord& r) {
      ++dispatched[static_cast<std::size_t>(r.ev)];
    });
    const RunResult result = RunSchedule(*schedule, modes[m], {}, out_dir,
                                         "switch_crash_s42", 0, &tracer);
    ASSERT_EQ(tracer.evicted(), 0u);
    for (const obs::TraceRecord& r : tracer.Records()) {
      ++ring[static_cast<std::size_t>(r.ev)];
    }
    std::vector<std::uint64_t> want_ring(obs::kNumEvents, 0);
    std::vector<std::uint64_t> want_dispatched(obs::kNumEvents, 0);
    for (const SinkCounts& c : kSwitchCrashCounts) {
      want_ring[static_cast<std::size_t>(c.ev)] = c.ring[m];
      want_dispatched[static_cast<std::size_t>(c.ev)] = c.subscribers[m];
    }
    for (int k = 0; k < obs::kNumEvents; ++k) {
      const auto ev = static_cast<obs::Ev>(k);
      EXPECT_EQ(ring[static_cast<std::size_t>(k)],
                want_ring[static_cast<std::size_t>(k)])
          << "ring " << obs::EvName(ev);
      EXPECT_EQ(dispatched[static_cast<std::size_t>(k)],
                want_dispatched[static_cast<std::size_t>(k)])
          << "subscribers " << obs::EvName(ev);
    }
    EXPECT_EQ(result.audit_events, m == 0 ? 1103u : 2987u);
  }
}

TEST(CommittedSchedules, OnlyFailingRunsLeaveArtifacts) {
  // A passing run replays bit-identically, so it writes nothing; a failing
  // one leaves its episode timeline, fleet time-series and causal slices.
  const auto clean_dir =
      std::filesystem::path(::testing::TempDir()) / "artifacts_clean";
  std::filesystem::remove_all(clean_dir);
  const auto clean_schedule =
      LoadSchedule(SchedulesDir() / "switch_crash_s42.json");
  ASSERT_TRUE(clean_schedule.has_value());
  const RunResult clean =
      RunSchedule(*clean_schedule, core::ConsistencyMode::kSingleOwner, {},
                  clean_dir.string(), "switch_crash_s42");
  EXPECT_TRUE(clean.Failure(/*require_recovery=*/true).empty());
  EXPECT_TRUE(clean.recovery_json_path.empty());
  EXPECT_TRUE(clean.fleet_csv_path.empty());
  EXPECT_GT(clean.fleet_samples, 0u);
  EXPECT_TRUE(!std::filesystem::exists(clean_dir) ||
              std::filesystem::is_empty(clean_dir));

  // An inflated switch lease trips single_owner on the link flap (the
  // auditor's per-violation error lines are expected, so muted).
  const std::string failing_dir = TempOutDir("artifacts_failing");
  const auto flap = LoadSchedule(SchedulesDir() / "link_flap_s42.json");
  ASSERT_TRUE(flap.has_value());
  const LogLevel prev_level = SetLogLevel(LogLevel::kOff);
  const RunResult failing =
      RunSchedule(*flap, core::ConsistencyMode::kSingleOwner,
                  MutationSpec{.lease = true}, failing_dir, "link_flap_s42");
  SetLogLevel(prev_level);
  ASSERT_FALSE(failing.violations.empty());
  EXPECT_EQ(failing.violations[0].monitor, "single_owner");
  EXPECT_FALSE(failing.Failure(/*require_recovery=*/true).empty());
  ASSERT_FALSE(failing.recovery_json_path.empty());
  ASSERT_FALSE(failing.fleet_csv_path.empty());
  EXPECT_TRUE(std::filesystem::exists(failing.recovery_json_path));
  EXPECT_TRUE(std::filesystem::exists(failing.violations[0].slice_json_path));
  std::ifstream csv(failing.fleet_csv_path);
  std::string header;
  ASSERT_TRUE(std::getline(csv, header));
  EXPECT_EQ(header.rfind("t_ns,", 0), 0u);
}

// --- pending suspects -------------------------------------------------------

/// The phase an incomplete episode is stuck in: its last phase that ran.
/// (A phase never reached reports zero duration.)
std::string OpenPhase(const EpisodeOut& e) {
  int open = 0;
  for (int p = 0; p < obs::kNumRecoveryPhases; ++p) {
    if (e.phase[static_cast<std::size_t>(p)] > 0) open = p;
  }
  return obs::RecoveryPhaseName(static_cast<obs::RecoveryPhase>(open));
}

TEST(PendingSchedules, ReplayTheirDocumentedFailures) {
  // Fuzz-sweep failures not yet fixed, saved under tests/schedules/pending/
  // (which the committed-schedule replay does not read).  Each replays in
  // the mode it failed in, with its documented failure and its trace hash;
  // a fix flips its expectation and moves it up to tests/schedules/.
  struct Pending {
    const char* file;
    core::ConsistencyMode mode;
    std::uint64_t trace_hash;
    int sent;
    int delivered;
    const char* violation;   // substring of the first violation, or null
    const char* open_phase;  // phase of the one open episode, or null
  };
  const Pending pending[] = {
      {"fuzz_s1370.json", core::ConsistencyMode::kReplicatedRead,
       1458847117700188063ull, 440, 402, "two packets share counter value",
       nullptr},
      {"fuzz_s1078.json", core::ConsistencyMode::kSingleOwner,
       408866336126569346ull, 160, 156, nullptr, "first_packet_served"},
      {"fuzz_s1249.json", core::ConsistencyMode::kSingleOwner,
       5579130251717966469ull, 264, 116, nullptr, "route_reconvergence"},
  };
  const std::string out_dir = TempOutDir("fuzz_pending");
  const LogLevel prev_level = SetLogLevel(LogLevel::kOff);
  for (const Pending& p : pending) {
    SCOPED_TRACE(p.file);
    const auto schedule = LoadSchedule(SchedulesDir() / "pending" / p.file);
    ASSERT_TRUE(schedule.has_value());
    const RunResult r = RunSchedule(*schedule, p.mode, {}, out_dir,
                                    std::filesystem::path(p.file).stem());
    EXPECT_EQ(r.trace_hash, p.trace_hash);
    EXPECT_EQ(r.sent, p.sent);
    EXPECT_EQ(r.delivered, p.delivered);
    EXPECT_FALSE(r.Failure(/*require_recovery=*/true).empty());
    if (p.violation != nullptr) {
      ASSERT_FALSE(r.violations.empty());
      EXPECT_NE(r.violations[0].detail.find(p.violation), std::string::npos)
          << r.violations[0].detail;
      for (const EpisodeOut& e : r.episodes) EXPECT_TRUE(e.complete);
    } else {
      EXPECT_EQ(r.NumViolations(), 0u);
      std::vector<std::string> open;
      for (const EpisodeOut& e : r.episodes) {
        if (!e.complete) open.push_back(OpenPhase(e));
      }
      EXPECT_EQ(open, std::vector<std::string>{p.open_phase});
    }
  }
  SetLogLevel(prev_level);
}

}  // namespace
}  // namespace redplane::campaign
