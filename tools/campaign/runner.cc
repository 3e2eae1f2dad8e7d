#include "tools/campaign/runner.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <unordered_set>

#include "audit/auditor.h"
#include "audit/lin_feed.h"
#include "audit/slice.h"
#include "common/hash.h"
#include "core/redplane_switch.h"
#include "modelcheck/linearizability.h"
#include "net/codec.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/tracer.h"
#include "routing/failure.h"
#include "routing/topology.h"
#include "sim/timer_wheel.h"
#include "statestore/chain_manager.h"
#include "trace/workload.h"

namespace redplane::campaign {
namespace {

using routing::BuildTestbed;
using routing::ExternalHostIp;
using routing::RackServerIp;
using routing::Testbed;
using routing::TestbedConfig;

/// Counter app that echoes the sender's 8-byte marker and appends the
/// per-flow count, so the receiving host can feed (marker, observed value)
/// pairs to the linearizability checker.  The marker travels in the payload
/// because packet *ids* are not stable across failover: a packet buffered
/// during lease acquisition is re-injected as a fresh packet.
/// Markers with the high bit set are read requests: they stamp the current
/// count without incrementing it, so the replicated-read campaign has a
/// read-heavy op mix whose reads can legally be served from local state.
constexpr std::uint64_t kReadMarkerBit = 1ull << 63;

class StampedCounterApp : public core::SwitchApp {
 public:
  std::string_view name() const override { return "stamped_counter"; }
  core::ProcessResult Process(core::AppContext&, net::Packet pkt,
                              std::vector<std::byte>& state) override {
    std::uint64_t marker = 0;
    if (pkt.payload.size() >= sizeof(marker)) {
      std::memcpy(&marker, pkt.payload.data(), sizeof(marker));
    }
    const bool is_read = (marker & kReadMarkerBit) != 0;
    std::uint64_t count = core::StateAs<std::uint64_t>(state).value_or(0);
    if (!is_read) {
      ++count;
      core::SetState(state, count);
    }
    std::vector<std::byte> stamped(2 * sizeof(std::uint64_t));
    std::memcpy(stamped.data(), &marker, sizeof(marker));
    std::memcpy(stamped.data() + sizeof(marker), &count, sizeof(count));
    pkt.payload = net::BufferView(std::move(stamped));
    core::ProcessResult result;
    result.state_modified = !is_read;
    result.output = std::move(pkt);
    return result;
  }
  /// Mergeable-capable: per-flow counts only grow, so replicas join by max.
  /// The app still defaults to single-owner; the campaign's --consistency
  /// axis picks the weaker mode via RedPlaneConfig::mode_override.  Under
  /// replicated-read its reads tolerate 50 µs of staleness: tight enough
  /// that serving locally or waiting is a real decision.
  core::StateTraits Traits() const override {
    core::StateTraits t;
    t.merge = core::MergeMaxU64;
    t.measure = core::MeasureU64;
    t.staleness_bound = Microseconds(50);
    return t;
  }
};

std::uint64_t FlowHash(const net::FlowKey& flow) {
  return net::HashPartitionKey(net::PartitionKey::OfFlow(flow));
}

/// FNV-1a step over one u64 (byte-at-a-time so the hash is width-stable).
void HashMix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
}

}  // namespace

std::string RunResult::Failure(bool require_recovery) const {
  if (delivered <= 0) return "no traffic delivered";
  if (NumViolations() > 0) {
    return std::to_string(NumViolations()) + " invariant violation(s)";
  }
  if (!require_recovery) return {};
  for (const EpisodeOut& eo : episodes) {
    if (!eo.complete) {
      return "recovery episode " + std::to_string(eo.id) +
             " incomplete (service never resumed)";
    }
    if (!eo.phase_sum_ok) {
      return "recovery episode " + std::to_string(eo.id) +
             " phases do not sum to the measured downtime (see " +
             recovery_json_path + ")";
    }
  }
  return {};
}

RunResult RunSchedule(const Schedule& schedule, core::ConsistencyMode mode,
                      const MutationSpec& mut, const std::string& out_dir,
                      const std::string& label, SimDuration coalesce_delay,
                      obs::Tracer* tracer_override) {
  RunResult out;
  out.label = label;
  out.seed = schedule.seed;

  const SimDuration lease = schedule.lease;
  const int packets_per_flow = std::max(10, schedule.packets_per_flow);
  const bool replicated = mode == core::ConsistencyMode::kReplicatedRead;
  const bool mergeable = mode == core::ConsistencyMode::kMergeable;

  // Declared before the simulator, which detaches it when the run ends.
  obs::Tracer local_tracer;
  obs::Tracer& tracer = tracer_override != nullptr ? *tracer_override
                                                   : local_tracer;
  sim::Simulator sim;
  TestbedConfig cfg;
  cfg.seed = schedule.seed;
  cfg.store.lease_period = lease;
  cfg.store.mutations.disable_seq_filter = mut.seq;
  cfg.store.mutations.early_chain_ack = mut.chain;
  cfg.store.mutations.overwrite_instead_of_merge = mut.merge;
  if (replicated) {
    // Stretch the store's service time so write acks stay in flight long
    // enough that "serve this read locally or wait?" is a real decision
    // against the app's tight 50 µs bound — but not so long that the
    // store queue saturates (4 writes + buffered reads per 800 µs round).
    cfg.store.service_time = Microseconds(40);
  }
  cfg.fabric.failure_detection_delay = Milliseconds(2);
  Testbed tb = BuildTestbed(sim, cfg);
  sim.AttachTracer(tracer);
  tracer.SetEnabled(true);

  // Recovery forensics: every subscriber record feeds the episode tracker,
  // which decomposes the injected fault's recovery into causally ordered
  // phases (obs/recovery.h).  The same stream feeds the offline per-mode
  // oracles: staleness samples from locally served reads and measure
  // samples from store-side merge applications (with the store reset epoch
  // folded into the replica, mirroring the online monitor's re-baseline
  // rule).  The oracles name a replica by the rank of its first record in
  // this stream, so their verdict text does not depend on the order in
  // which ring-only components were interned.
  obs::RecoveryTracker recovery(&tracer);
  std::vector<modelcheck::StalenessSample> stale_samples;
  std::vector<modelcheck::MergeSample> merge_samples;
  std::vector<std::uint64_t> rank_of;  // component id -> 1 + first-record rank
  std::uint64_t ranked = 0;
  std::map<std::uint64_t, std::uint64_t> store_epoch;
  const std::uint64_t forensics =
      tracer.Subscribe([&](const obs::TraceRecord& r) {
        recovery.OnRecord(r);
        if (r.component >= rank_of.size()) rank_of.resize(r.component + 1, 0);
        if (rank_of[r.component] == 0) rank_of[r.component] = ++ranked;
        const std::uint64_t replica = rank_of[r.component] - 1;
        switch (r.ev) {
          case obs::Ev::kLocalReadServed:
            if (r.aux != 0) {  // aux 0 = no staleness contract (mergeable)
              stale_samples.push_back(
                  {r.flow, static_cast<std::uint64_t>(r.arg), r.aux});
            }
            break;
          case obs::Ev::kMergeApplied:
            merge_samples.push_back(
                {HashCombine(replica, store_epoch[replica]), r.flow, r.arg});
            break;
          case obs::Ev::kStoreReset:
            ++store_epoch[replica];
            break;
          default:
            break;
        }
      });

  audit::Auditor auditor;
  auditor.ArmStandardMonitors();
  auditor.Attach(&tracer);
  audit::LinearizabilityFeed feed(&auditor);

  store::ChainManager mgr(sim, tb.store,
                          store::ChainManagerConfig{
                              .probe_interval = Milliseconds(5),
                              .resync_delay = Milliseconds(2),
                              .readmit_recovered = true,
                          });
  mgr.Start();

  StampedCounterApp app;
  core::RedPlaneConfig rp_cfg;
  rp_cfg.lease_period = lease;
  rp_cfg.renew_interval = lease / 2;
  rp_cfg.coalesce_delay = coalesce_delay;
  rp_cfg.mode_override = mode;
  rp_cfg.mutation_stale_reads = mut.stale;
  if (mut.lease) rp_cfg.mutation_lease_extension = Seconds(10);
  auto shard_for = [&mgr](const net::PartitionKey&) { return mgr.HeadIp(); };
  std::array<std::unique_ptr<core::RedPlaneSwitch>, 2> rp;
  for (int i = 0; i < 2; ++i) {
    rp[i] = std::make_unique<core::RedPlaneSwitch>(*tb.agg[i], app, shard_for,
                                                   rp_cfg);
    tb.agg[i]->SetPipeline(rp[i].get());
  }
  // The store joins merge deltas with the app's declared CRDT join and
  // reports the monotone measure on the kMergeApplied record.
  for (store::StateStoreServer* server : tb.store) {
    server->SetSpec(rp[0]->spec());
  }
  routing::FailureInjector injector(sim, *tb.fabric);

  // Fleet time-series: per-sample goodput / lease churn / replication-byte
  // rates plus store, timer-wheel, and SoA-table occupancy levels
  // (obs/timeseries.h).  The wheel gauges live here because obs must not
  // depend on sim.
  obs::MetricRegistry wheel_reg("wheel");
  for (int l = 0; l <= sim::TimerWheel::kLevels; ++l) {
    const std::string gauge_name =
        l == sim::TimerWheel::kLevels ? "overflow" : "level" + std::to_string(l);
    wheel_reg.AddCallbackGauge(gauge_name, [&sim, l] {
      return static_cast<double>(
          sim.wheel().CountPerLevel()[static_cast<std::size_t>(l)]);
    });
  }
  obs::MetricsHub hub;
  hub.Register(&rp[0]->stats());
  hub.Register(&rp[1]->stats());
  for (store::StateStoreServer* server : tb.store) {
    hub.Register(&server->counters());
  }
  hub.Register(&wheel_reg);
  obs::FleetSampler fleet(&hub);
  fleet.Sample(sim.Now());  // rate baseline

  constexpr int kFlows = 4;
  const std::uint64_t seed = schedule.seed;
  auto flow_key = [seed](int f) {
    return net::FlowKey{ExternalHostIp(0), RackServerIp(0, 0),
                        static_cast<std::uint16_t>(20000 + 17 * f +
                                                   (seed % 7) * 101),
                        80, net::IpProto::kUdp};
  };
  // Only the instrumented base flows feed the linearizability checker:
  // load-phase flows (flash crowds, SYN floods) are uninstrumented
  // background pressure, and their app outputs carry marker 0, which the
  // feed would treat as an input-less output.
  std::unordered_set<std::uint64_t> base_flow_hashes;
  for (int f = 0; f < kFlows; ++f) {
    base_flow_hashes.insert(FlowHash(flow_key(f)));
  }

  // Receiver: record every delivered (marker, stamped count).  Reads and
  // mergeable-mode outputs stay out of the linearizability feed: reads
  // don't advance the counter, and zero-RTT multi-writer counts converge
  // by lattice join, not by a single linearizable history (their promise
  // is checked by the merge-convergence oracle instead).  Every delivery —
  // base or load — folds into the replay fingerprint.
  std::uint64_t trace_hash = 14695981039346656037ull;  // FNV-1a offset basis
  tb.rack_servers[0][0]->SetHandler([&](sim::HostNode&, net::Packet pkt) {
    ++out.delivered;
    auto flow = pkt.Flow();
    std::uint64_t marker = 0, value = 0;
    if (pkt.payload.size() >= 2 * sizeof(std::uint64_t)) {
      std::memcpy(&marker, pkt.payload.data(), sizeof(marker));
      std::memcpy(&value, pkt.payload.data() + sizeof(marker), sizeof(value));
    }
    HashMix(trace_hash, static_cast<std::uint64_t>(sim.Now()));
    HashMix(trace_hash, marker);
    HashMix(trace_hash, value);
    if (!flow.has_value() ||
        pkt.payload.size() < 2 * sizeof(std::uint64_t)) {
      return;
    }
    if (mergeable || (marker & kReadMarkerBit) != 0) return;
    if (base_flow_hashes.find(FlowHash(*flow)) == base_flow_hashes.end()) {
      return;
    }
    // The receiver sees the flow as sent; hash the same key the switch used.
    feed.Output(FlowHash(*flow), marker, sim.Now(), value);
  });

  std::uint64_t next_marker = 0;
  auto send_marked = [&](std::uint64_t marker_bits) {
    for (int f = 0; f < kFlows; ++f) {
      net::Packet pkt = net::MakeUdpPacket(flow_key(f), 0);
      const std::uint64_t marker = marker_bits | ++next_marker;
      std::vector<std::byte> payload(sizeof(marker));
      std::memcpy(payload.data(), &marker, sizeof(marker));
      pkt.payload = net::BufferView(std::move(payload));
      if (!mergeable && marker_bits == 0) {
        feed.Input(FlowHash(flow_key(f)), marker, sim.Now());
      }
      ++out.sent;
      tb.external[0]->Send(std::move(pkt));
    }
  };
  auto send_round = [&] { send_marked(0); };

  // Warmup: establish leases and find the switch actually carrying traffic.
  const int warmup_rounds = std::min(5, packets_per_flow);
  for (int i = 0; i < warmup_rounds; ++i) {
    send_round();
    sim.RunUntil(sim.Now() + Microseconds(500));
  }
  sim.RunUntil(sim.Now() + Milliseconds(3));
  const bool agg0_active =
      rp[0]->stats().Get("app_pkts") >= rp[1]->stats().Get("app_pkts");
  dp::SwitchNode* active = agg0_active ? tb.agg[0] : tb.agg[1];
  dp::SwitchNode* standby = agg0_active ? tb.agg[1] : tb.agg[0];

  // Inject the fault/load plan.
  const SimTime t0 = sim.Now();
  for (const FaultEvent& ev : schedule.faults) {
    const SimTime at = t0 + ev.at;
    const SimTime clear = ev.clear_at >= 0 ? t0 + ev.clear_at : -1;
    dp::SwitchNode* agg_target = ev.target % 2 == 0 ? active : standby;
    switch (ev.kind) {
      case FaultKind::kSwitchCrash:
        injector.ScheduleNodeFailure(agg_target, at, clear);
        break;
      case FaultKind::kLinkCut: {
        sim::Link* link = tb.network->FindLink(tb.core, agg_target);
        if (link != nullptr) injector.ScheduleLinkFailure(link, at, clear);
        break;
      }
      case FaultKind::kStoreCrash: {
        store::StateStoreServer* victim =
            tb.store.size() > 1
                ? tb.store[1 + static_cast<std::size_t>(ev.target) %
                                   (tb.store.size() - 1)]
                : tb.store[0];
        injector.ScheduleNodeFailure(victim, at, clear);
        break;
      }
      case FaultKind::kSlowShard: {
        store::StateStoreServer* shard =
            tb.store[static_cast<std::size_t>(ev.target) % tb.store.size()];
        const double factor = std::max(1.0, ev.magnitude);
        sim.ScheduleAt(at,
                       [shard, factor] { shard->SetServiceTimeFactor(factor); });
        if (clear >= 0) {
          sim.ScheduleAt(clear,
                         [shard] { shard->SetServiceTimeFactor(1.0); });
        }
        break;
      }
      case FaultKind::kAsymLoss:
      case FaultKind::kPartition: {
        sim::Link* link = tb.network->FindLink(tb.core, agg_target);
        const double rate = ev.kind == FaultKind::kPartition
                                ? 1.0
                                : std::clamp(ev.magnitude, 0.0, 1.0);
        if (link != nullptr) {
          injector.ScheduleAsymmetricLoss(link, tb.core->id(), rate, at,
                                          clear);
        }
        break;
      }
      case FaultKind::kCapacity: {
        store::StateStoreServer* head = tb.store.front();
        const std::size_t cap = std::max<std::size_t>(
            8, static_cast<std::size_t>(ev.magnitude));
        sim.ScheduleAt(at, [head, cap] { head->SetMaxFlows(cap); });
        if (clear >= 0) {
          sim.ScheduleAt(clear, [head] { head->SetMaxFlows(0); });
        }
        break;
      }
      case FaultKind::kEcmpRehash: {
        routing::RoutingFabric* fabric = tb.fabric.get();
        const auto salt = static_cast<std::uint64_t>(ev.magnitude);
        sim.ScheduleAt(at, [fabric, salt] { fabric->SetEcmpSalt(salt); });
        if (clear >= 0) {
          sim.ScheduleAt(clear, [fabric] { fabric->SetEcmpSalt(0); });
        }
        break;
      }
    }
  }

  // Load phases: pre-generate each phase's packets from a forked stream
  // (draw counts never disturb the testbed RNG) and schedule the sends.
  Rng base_rng(schedule.seed);
  Rng load_rng = base_rng.Fork(0x10adull);
  std::vector<trace::TracePacket> load_pkts;
  for (const LoadPhase& ph : schedule.loads) {
    switch (ph.kind) {
      case LoadKind::kFlashCrowd: {
        trace::FlashCrowdConfig c;
        c.start = t0 + ph.at;
        c.duration = ph.duration;
        c.num_flows = ph.intensity;
        c.src = ExternalHostIp(1);
        c.dst = RackServerIp(0, 0);
        const auto pkts = trace::GenerateFlashCrowd(load_rng, c);
        load_pkts.insert(load_pkts.end(), pkts.begin(), pkts.end());
        break;
      }
      case LoadKind::kLeaseChurn: {
        trace::LeaseChurnConfig c;
        c.start = t0 + ph.at;
        c.duration = ph.duration;
        c.num_flows = std::min<std::size_t>(ph.intensity, 8);
        c.src = ExternalHostIp(1);
        c.dst = RackServerIp(0, 0);
        const auto pkts = trace::GenerateLeaseChurn(load_rng, c);
        load_pkts.insert(load_pkts.end(), pkts.begin(), pkts.end());
        // The churn itself: re-salt ECMP at each burst boundary so the
        // next burst (and the base flows) can land on the other switch
        // and must re-acquire leases — ownership ping-pong.
        routing::RoutingFabric* fabric = tb.fabric.get();
        const std::uint64_t churn_salt = schedule.seed | 1;
        int k = 0;
        for (SimTime flip_at = c.start; flip_at < c.start + c.duration;
             flip_at += c.burst_gap, ++k) {
          const std::uint64_t salt = k % 2 == 1 ? churn_salt : 0;
          sim.ScheduleAt(flip_at, [fabric, salt] { fabric->SetEcmpSalt(salt); });
        }
        sim.ScheduleAt(c.start + c.duration,
                       [fabric] { fabric->SetEcmpSalt(0); });
        break;
      }
      case LoadKind::kSynFlood: {
        trace::SynFloodConfig c;
        c.start = t0 + ph.at;
        c.duration = ph.duration;
        c.num_packets = ph.intensity;
        c.dst = RackServerIp(0, 0);
        const auto pkts = trace::GenerateSynFlood(load_rng, c);
        load_pkts.insert(load_pkts.end(), pkts.begin(), pkts.end());
        break;
      }
    }
  }
  for (const trace::TracePacket& tp : load_pkts) {
    sim.ScheduleAt(tp.time, [&out, &tb, tp] {
      ++out.sent;
      tb.external[1]->Send(trace::MaterializePacket(tp));
    });
  }

  // Keep traffic flowing across the fault window and the recovery.  Under
  // replicated-read, chase each write round with a read round while the
  // write's ~300 µs replication ack is still in flight: within the 50 µs
  // bound the switch must wait (read-buffer loop), and with --mutate=stale
  // it illegally serves them — exactly what the staleness oracles check.
  for (int i = warmup_rounds; i < packets_per_flow; ++i) {
    send_round();
    if (replicated) {
      // First read round lands ~20 µs after the write — inside the bound,
      // legally served from local state (the oracle sees the sample pass).
      sim.RunUntil(sim.Now() + Microseconds(20));
      send_marked(kReadMarkerBit);
      // Second round lands ~150 µs in — beyond the bound, must wait.
      sim.RunUntil(sim.Now() + Microseconds(130));
      send_marked(kReadMarkerBit);
      sim.RunUntil(sim.Now() + Microseconds(650));
    } else {
      sim.RunUntil(sim.Now() + Microseconds(800));
    }
    fleet.Sample(sim.Now());
  }
  // Bounded drain: the chain manager's periodic probe keeps the event queue
  // non-empty forever, so run to a horizon rather than to quiescence.
  // Stepped so the time series covers the recovery tail.
  for (int i = 0; i < 15; ++i) {
    sim.RunUntil(sim.Now() + Milliseconds(10));
    fleet.Sample(sim.Now());
  }
  out.lin_failures = feed.CloseAll();
  recovery.Finalize(sim.Now());
  out.trace_hash = trace_hash;

  // Offline per-mode oracles: the stream-derived samples must satisfy the
  // mode's promise independently of the online monitors.
  out.staleness_samples = stale_samples.size();
  out.merge_samples = merge_samples.size();
  std::string why;
  if (!modelcheck::CheckBoundedStaleness(stale_samples, &why)) {
    ++out.oracle_failures;
    out.oracle_why = why;
  }
  if (!modelcheck::CheckMergeConvergence(merge_samples, &why)) {
    ++out.oracle_failures;
    out.oracle_why = out.oracle_why.empty() ? why : out.oracle_why + "; " + why;
  }

  // Harvest results.
  out.audit_events = auditor.events_seen();
  const std::string run_stem =
      out_dir + "/" + label + "_s" + std::to_string(schedule.seed);
  // One slice pair per (monitor, key): a broken invariant usually fires on
  // every packet of a flow, so repeats point at the first one's pair.
  std::map<std::pair<std::string, std::uint64_t>, std::size_t> first_of;
  std::vector<std::size_t> sliced;  // violations whose slice pair is written
  for (const auto& v : auditor.violations()) {
    ViolationOut vo;
    vo.monitor = v.monitor;
    vo.detail = v.detail;
    vo.at = v.at.t;
    vo.slice_events = v.slice.events.size();
    vo.slice_closed = audit::IsHappensBeforeClosed(v.slice);
    const auto [first, added] =
        first_of.try_emplace({v.monitor, v.at.flow}, out.violations.size());
    if (added) {
      const std::string stem =
          run_stem + "_v" + std::to_string(out.violations.size());
      vo.slice_json_path = stem + ".slice.json";
      vo.slice_text_path = stem + ".slice.txt";
      sliced.push_back(out.violations.size());
    } else {
      vo.slice_json_path = out.violations[first->second].slice_json_path;
      vo.slice_text_path = out.violations[first->second].slice_text_path;
    }
    out.violations.push_back(std::move(vo));
  }
  for (const auto& phase : tracer.LatencyBreakdown()) {
    PhaseOut po;
    po.name = phase.name;
    po.count = phase.samples_us.Count();
    po.p50_us = phase.samples_us.Percentile(50);
    po.p99_us = phase.samples_us.Percentile(99);
    out.phases.push_back(std::move(po));
  }
  for (const auto& reg : {rp[0].get(), rp[1].get()}) {
    for (const auto& mv : reg->stats().Snapshot().values) {
      if (mv.name == "write_rtt_us" && mv.value > 0) {
        out.write_rtt_p50_us = std::max(out.write_rtt_p50_us, mv.hist_p50);
        out.write_rtt_p99_us = std::max(out.write_rtt_p99_us, mv.hist_p99);
      }
    }
  }

  out.fleet_samples = fleet.NumSamples();
  for (const obs::RecoveryEpisode& e : recovery.episodes()) {
    EpisodeOut eo;
    eo.id = e.id;
    eo.trigger = e.trigger;
    eo.complete = e.complete;
    eo.phase_sum_ok = obs::PhaseSumOk(e);
    eo.downtime = e.phase_end.back() - e.fault_at;
    for (int p = 0; p < obs::kNumRecoveryPhases; ++p) {
      eo.phase[static_cast<std::size_t>(p)] =
          e.PhaseDuration(static_cast<obs::RecoveryPhase>(p));
    }
    eo.flows = e.flow_downtime_us.Count();
    if (!e.flow_downtime_us.Empty()) {
      eo.flow_p50_us = e.flow_downtime_us.Percentile(50);
      eo.flow_p99_us = e.flow_downtime_us.Percentile(99);
      eo.flow_max_us = e.flow_downtime_us.Max();
    }
    eo.extra_faults = e.extra_faults;
    out.episodes.push_back(std::move(eo));
  }

  // Artifacts only for a failing run: each violation's causal slice, the
  // episode-timeline JSON and the fleet time-series CSV.
  if (!out.Failure(/*require_recovery=*/true).empty()) {
    std::filesystem::create_directories(out_dir);
    for (const std::size_t i : sliced) {
      const audit::CausalSlice& slice = auditor.violations()[i].slice;
      std::ofstream(out.violations[i].slice_json_path) << slice.PerfettoJson();
      std::ofstream(out.violations[i].slice_text_path) << slice.Text();
    }
    out.recovery_json_path = run_stem + ".recovery.json";
    std::ofstream(out.recovery_json_path) << recovery.Json();
    out.fleet_csv_path = run_stem + ".fleet.csv";
    std::ofstream fleet_csv(out.fleet_csv_path);
    fleet.WriteCsv(fleet_csv);
  }

  // A caller's tracer outlives this run's subscribers (the auditor
  // unsubscribes itself).
  tracer.Unsubscribe(forensics);
  return out;
}

void WriteJsonReport(std::ostream& os, const std::vector<RunResult>& runs,
                     core::ConsistencyMode mode, const MutationSpec& mut) {
  os << "{\"consistency\": \"" << core::ConsistencyModeName(mode) << "\",\n";
  os << " \"mutation\": {\"lease\": " << (mut.lease ? "true" : "false")
     << ", \"seq\": " << (mut.seq ? "true" : "false")
     << ", \"chain\": " << (mut.chain ? "true" : "false")
     << ", \"stale\": " << (mut.stale ? "true" : "false")
     << ", \"merge\": " << (mut.merge ? "true" : "false") << "},\n";
  os << " \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    os << "  {\"label\": \"" << obs::JsonEscape(r.label)
       << "\", \"seed\": " << r.seed << ", \"sent\": " << r.sent
       << ", \"delivered\": " << r.delivered
       << ", \"audit_events\": " << r.audit_events
       << ", \"lin_failures\": " << r.lin_failures
       << ", \"oracle_failures\": " << r.oracle_failures
       << ", \"staleness_samples\": " << r.staleness_samples
       << ", \"merge_samples\": " << r.merge_samples
       << ", \"oracle_why\": \"" << obs::JsonEscape(r.oracle_why) << "\""
       << ", \"trace_hash\": \"" << std::to_string(r.trace_hash) << "\""
       << ", \"write_rtt_p50_us\": " << obs::JsonNumber(r.write_rtt_p50_us)
       << ", \"write_rtt_p99_us\": " << obs::JsonNumber(r.write_rtt_p99_us)
       << ",\n   \"phases\": [";
    for (std::size_t p = 0; p < r.phases.size(); ++p) {
      const PhaseOut& ph = r.phases[p];
      os << (p ? ", " : "") << "{\"name\": \"" << obs::JsonEscape(ph.name)
         << "\", \"count\": " << ph.count
         << ", \"p50_us\": " << obs::JsonNumber(ph.p50_us)
         << ", \"p99_us\": " << obs::JsonNumber(ph.p99_us) << "}";
    }
    os << "],\n   \"recovery_json\": \""
       << obs::JsonEscape(r.recovery_json_path) << "\", \"fleet_csv\": \""
       << obs::JsonEscape(r.fleet_csv_path)
       << "\", \"fleet_samples\": " << r.fleet_samples
       << ",\n   \"episodes\": [";
    for (std::size_t e = 0; e < r.episodes.size(); ++e) {
      const EpisodeOut& eo = r.episodes[e];
      os << (e ? ", " : "") << "{\"id\": " << eo.id << ", \"trigger\": \""
         << obs::JsonEscape(eo.trigger)
         << "\", \"complete\": " << (eo.complete ? "true" : "false")
         << ", \"phase_sum_ok\": " << (eo.phase_sum_ok ? "true" : "false")
         << ", \"downtime_ns\": " << eo.downtime << ", \"phases_ns\": [";
      for (int p = 0; p < obs::kNumRecoveryPhases; ++p) {
        os << (p ? ", " : "") << eo.phase[static_cast<std::size_t>(p)];
      }
      os << "], \"flows\": " << eo.flows
         << ", \"flow_p99_us\": " << obs::JsonNumber(eo.flow_p99_us)
         << ", \"extra_faults\": " << eo.extra_faults << "}";
    }
    os << "],\n   \"violations\": [";
    for (std::size_t v = 0; v < r.violations.size(); ++v) {
      const ViolationOut& vo = r.violations[v];
      os << (v ? ", " : "") << "{\"monitor\": \"" << obs::JsonEscape(vo.monitor)
         << "\", \"t_ns\": " << vo.at
         << ", \"slice_events\": " << vo.slice_events
         << ", \"slice_hb_closed\": " << (vo.slice_closed ? "true" : "false")
         << ", \"slice_json\": \"" << obs::JsonEscape(vo.slice_json_path)
         << "\", \"detail\": \"" << obs::JsonEscape(vo.detail) << "\"}";
    }
    os << "]}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  os << "]}\n";
}

void WriteMarkdownReport(std::ostream& os, const std::vector<RunResult>& runs) {
  os << "# Fault campaign report\n\n";
  os << "| schedule | seed | sent | delivered | audit events | violations | "
        "lin failures | write RTT p99 (µs) | episodes | downtime (ms) | "
        "phase sum |\n";
  os << "|---|---|---|---|---|---|---|---|---|---|---|\n";
  std::size_t total_violations = 0;
  for (const RunResult& r : runs) {
    total_violations += r.violations.size() + r.lin_failures +
                        r.oracle_failures;
    double downtime_ms = 0;
    bool sum_ok = !r.episodes.empty();
    for (const EpisodeOut& eo : r.episodes) {
      downtime_ms += static_cast<double>(eo.downtime) / 1e6;
      sum_ok = sum_ok && eo.phase_sum_ok;
    }
    os << "| " << r.label << " | " << r.seed << " | " << r.sent << " | "
       << r.delivered << " | " << r.audit_events << " | "
       << r.violations.size() << " | " << r.lin_failures << " | "
       << obs::JsonNumber(r.write_rtt_p99_us) << " | " << r.episodes.size()
       << " | " << obs::JsonNumber(downtime_ms) << " | "
       << (r.episodes.empty() ? "n/a" : (sum_ok ? "ok" : "VIOLATED"))
       << " |\n";
  }
  os << "\nTotal violations (monitors + linearizability + per-mode oracles): "
     << total_violations << "\n";
  for (const RunResult& r : runs) {
    if (r.oracle_failures > 0) {
      os << "\n- oracle failure (" << r.label << " seed " << r.seed
         << "): " << r.oracle_why << "\n";
    }
  }
  os << "\n## Recovery episodes\n\n";
  os << "| schedule | seed | trigger | ";
  for (int p = 0; p < obs::kNumRecoveryPhases; ++p) {
    os << obs::RecoveryPhaseName(static_cast<obs::RecoveryPhase>(p))
       << " (ms) | ";
  }
  os << "downtime (ms) | flows | flow p99 (µs) |\n";
  os << "|---|---|---|---|---|---|---|---|---|---|---|\n";
  for (const RunResult& r : runs) {
    for (const EpisodeOut& eo : r.episodes) {
      os << "| " << r.label << " | " << r.seed << " | " << eo.trigger
         << (eo.complete ? "" : " (incomplete)") << " | ";
      for (int p = 0; p < obs::kNumRecoveryPhases; ++p) {
        os << obs::JsonNumber(
                  static_cast<double>(eo.phase[static_cast<std::size_t>(p)]) /
                  1e6)
           << " | ";
      }
      os << obs::JsonNumber(static_cast<double>(eo.downtime) / 1e6) << " | "
         << eo.flows << " | " << obs::JsonNumber(eo.flow_p99_us) << " |\n";
    }
  }
  for (const RunResult& r : runs) {
    for (const auto& v : r.violations) {
      os << "\n## " << r.label << " seed " << r.seed << ": " << v.monitor
         << "\n\n"
         << v.detail << "\n\nslice: `" << v.slice_json_path << "` ("
         << v.slice_events << " events, happens-before "
         << (v.slice_closed ? "closed" : "NOT CLOSED") << ")\n";
    }
  }
}

}  // namespace redplane::campaign
