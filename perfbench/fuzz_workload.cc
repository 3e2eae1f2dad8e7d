// The fuzz_audited workload: campaign::RunSchedule over a fixed range of
// mixed-class schedules, split across the three consistency modes, with the
// auditor and oracles armed and no minimisation.  It is the only workload
// with audit taps armed, injected faults (crashes, link cuts, gray failures,
// ECMP re-salts) and the replicated-read/mergeable modes.
#include <algorithm>
#include <filesystem>
#include <vector>

#include "common/rng.h"
#include "perfbench/perfbench.h"
#include "tools/campaign/runner.h"
#include "tools/campaign/schedule.h"

namespace redplane::perfbench {
namespace {

obs::ProfSite g_prof_schedule("campaign.schedule");

/// Schedules per batch; a multiple of the three modes.
constexpr std::uint64_t kSchedules = 48;
/// The fixed schedule range starts at the campaign's default fuzz seed.  The
/// workload seed only orders the runs: schedules differ several-fold in cost,
/// so drawing a different set per seed would swamp host-time comparisons.
constexpr std::uint64_t kFirstScheduleSeed = 1000;

constexpr core::ConsistencyMode kModes[] = {
    core::ConsistencyMode::kSingleOwner,
    core::ConsistencyMode::kReplicatedRead,
    core::ConsistencyMode::kMergeable,
};

/// Runs that end with one recovery episode still open (service not observed
/// to resume before the schedule ends; 1046 never observes route
/// re-convergence after its link cut).  Pinned so that any other episode
/// left open fails the check.
struct KnownOpen {
  std::uint64_t seed;
  core::ConsistencyMode mode;
};
constexpr KnownOpen kKnownOpen[] = {
    {1008, core::ConsistencyMode::kMergeable},
    {1023, core::ConsistencyMode::kMergeable},
    {1046, core::ConsistencyMode::kReplicatedRead},
};

/// Empty when the schedule met the fuzz oracle (no monitor, linearizability
/// or per-mode oracle failure, traffic delivered), every closed recovery
/// episode has phases summing to its downtime, and no episode is open beyond
/// the one kKnownOpen allows.
std::string CheckRun(const campaign::RunResult& r, core::ConsistencyMode mode) {
  if (!r.violations.empty()) {
    return "monitor violation: " + r.violations[0].monitor;
  }
  if (r.lin_failures != 0) return "linearizability failure";
  if (r.oracle_failures != 0) return "oracle failure: " + r.oracle_why;
  if (r.delivered <= 0) return "no traffic delivered";
  std::size_t open = 0;
  for (const campaign::EpisodeOut& e : r.episodes) {
    if (!e.complete) {
      ++open;
    } else if (!e.phase_sum_ok) {
      return "recovery phases do not sum to the downtime";
    }
  }
  std::size_t allowed = 0;
  for (const KnownOpen& k : kKnownOpen) {
    if (k.seed == r.seed && k.mode == mode) allowed = 1;
  }
  if (open > allowed) return "recovery episode never closed";
  return {};
}

}  // namespace

Batch RunFuzzAuditedBatch(const BatchOptions& opt) {
  Batch b;
  const std::uint64_t count = opt.size > 0 ? opt.size : kSchedules;
  // Each batch writes its campaign artifacts into an emptied directory and
  // deletes them once measured, before writeback reaches the disk:
  // truncating and rewriting old files, or unlinking ones already written
  // back, stalls on the filesystem and swamps the measurement.
  const std::string out_dir = opt.out_dir + "/fuzz_artifacts";
  std::filesystem::remove_all(out_dir);
  const double t_begin = WallSeconds();
  campaign::GeneratorConfig gen;
  gen.focus = campaign::FuzzClass::kMixed;
  std::vector<campaign::Schedule> schedules;
  for (std::uint64_t i = 0; i <= count; ++i) {
    schedules.push_back(
        campaign::GenerateSchedule(kFirstScheduleSeed + i, gen));
  }
  // Warm-up: one extra schedule, outside the measured set.
  const campaign::RunResult warm = campaign::RunSchedule(
      schedules.back(), kModes[0], {}, out_dir, "perfbench_warmup");
  schedules.pop_back();
  b.error = CheckRun(warm, kModes[0]);
  // Schedule i always runs in mode i % 3; the seed shuffles the run order.
  std::vector<std::uint64_t> order(count);
  for (std::uint64_t i = 0; i < count; ++i) order[i] = i;
  Rng rng(opt.seed);
  for (std::uint64_t i = count; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }

  std::vector<double> schedule_ms;
  std::vector<double> downtime_ms;
  std::vector<double> rtt_p50_us;
  std::vector<double> rtt_p99_us;
  double audit_events = 0;
  std::uint64_t delivered = 0;
  double open_episodes = 0;
  b.digest = kFnvOffset;
  if (opt.profiler != nullptr) opt.profiler->SetEnabled(true);
  const double t_start = WallSeconds();
  for (const std::uint64_t i : order) {
    const core::ConsistencyMode mode = kModes[i % 3];
    const double t0 = WallSeconds();
    campaign::RunResult r;
    {
      obs::ProfScope prof(g_prof_schedule);
      r = campaign::RunSchedule(
          schedules[i], mode, {}, out_dir,
          std::string("perfbench_") + core::ConsistencyModeName(mode));
    }
    schedule_ms.push_back((WallSeconds() - t0) * 1e3);
    const std::string why = CheckRun(r, mode);
    if (!why.empty()) {
      ++b.failed_ops;
      if (b.error.empty()) {
        b.error = why + " (schedule seed " + std::to_string(schedules[i].seed) +
                  ", " + core::ConsistencyModeName(mode) + ")";
      }
    }
    b.packets += static_cast<std::uint64_t>(std::max(r.sent, 0));
    delivered += static_cast<std::uint64_t>(std::max(r.delivered, 0));
    audit_events += static_cast<double>(r.audit_events);
    for (const campaign::EpisodeOut& e : r.episodes) {
      if (e.complete) {
        downtime_ms.push_back(static_cast<double>(e.downtime) / 1e6);
      } else {
        ++open_episodes;
      }
    }
    if (r.write_rtt_p50_us > 0) {
      rtt_p50_us.push_back(r.write_rtt_p50_us);
      rtt_p99_us.push_back(r.write_rtt_p99_us);
    }
    FnvMix(b.digest, r.trace_hash);
  }
  const double t_end = WallSeconds();
  if (opt.profiler != nullptr) opt.profiler->SetEnabled(false);
  std::filesystem::remove_all(out_dir);

  b.setup_s = t_start - t_begin;
  b.measured_s = t_end - t_start;
  b.ops = count;
  const double pkts =
      static_cast<double>(std::max<std::uint64_t>(b.packets, 1));
  b.host["campaign.schedule_ms_p50"] = Median(schedule_ms);
  b.host["campaign.schedules_per_s"] =
      static_cast<double>(count) / std::max(b.measured_s, 1e-9);
  auto& v = b.values;
  v["delivered_pct"] = 100.0 * static_cast<double>(delivered) / pkts;
  v["virtual.downtime_p50_ms"] = Median(downtime_ms);
  v["virtual.episodes"] = static_cast<double>(downtime_ms.size());
  v["virtual.open_episodes"] = open_episodes;
  v["audit.events_per_schedule"] = audit_events / static_cast<double>(count);
  v["core.write_rtt_p50_us"] = Median(rtt_p50_us);
  v["core.write_rtt_p99_us"] = Median(rtt_p99_us);
  // The runner owns its testbed, so the layers it hides from the benchmark
  // (and the benchmark's own source and wrappers) read an explicit 0.
  for (const char* name :
       {"sim.link_deliveries_per_pkt", "sim.link_drops",
        "sim.wheel_timers_peak", "routing.ecmp_calls_per_pkt",
        "routing.build_s", "dataplane.switch_rx_per_pkt",
        "dataplane.mirror_peak_kb", "dataplane.cp_installs",
        "core.reqs_per_pkt", "core.retransmits", "core.init_loop_drops",
        "core.reads_buffered_per_pkt", "core.flows_peak",
        "net.req_bytes_per_req", "statestore.reqs_per_pkt",
        "statestore.chain_forwards_per_req", "statestore.head_busy_frac",
        "statestore.applied_ratio", "statestore.flows", "apps.calls_per_pkt",
        "trace.gen_s", "virtual.lat_p50_us", "virtual.lat_p999_us",
        "virtual.lat_samples", "virtual.repl_overhead_pct"}) {
    v[name] = 0;
  }
  return b;
}

}  // namespace redplane::perfbench
