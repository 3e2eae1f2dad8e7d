// The two packet workloads: sync_write (Sync-Counter, every packet a write)
// and nat_churn (read-centric NAT with tens of thousands of flows).
//
// Traffic is a trace synthesised up front with src/trace and paced by a
// source that keeps exactly one pending send event, so the event heap holds
// the program's own events rather than the benchmark's backlog.  In virtual
// time the load is open loop (every packet leaves at its trace time); in host
// time the batch is a fixed amount of work ending at a fixed virtual time.
#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "apps/counter.h"
#include "apps/nat.h"
#include "bench/harness.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/redplane_switch.h"
#include "net/packet.h"
#include "perfbench/perfbench.h"
#include "routing/failure.h"
#include "routing/topology.h"
#include "trace/workload.h"

namespace redplane::perfbench {
namespace {

obs::ProfSite g_prof_source("bench.source");
obs::ProfSite g_prof_sink("bench.sink");
obs::ProfSite g_prof_app_process("apps.process");
obs::ProfSite g_prof_app_key("apps.key_of");
obs::ProfSite g_prof_ecmp("routing.ecmp");

struct PacketWorkload {
  bool nat = false;
  std::size_t packets = 0;
  std::size_t flows = 0;
  /// 0 = uniform flow choice.
  double zipf_theta = 0;
  SimDuration interarrival = 0;
  /// New flows are introduced at most once per this much trace time.
  SimDuration churn_gap = 0;
  /// Virtual time the run continues after the last injection.
  SimDuration drain = 0;
};

// A few hundred Zipf-popular flows at the Fig. 10 operating point (64 B, one
// packet per 4 µs): each packet costs a replication request, three chain
// hops and an ack.  agg[1] is failed so all traffic crosses agg[0].
constexpr PacketWorkload kSyncWrite{
    .nat = false,
    .packets = 200'000,
    .flows = 256,
    .zipf_theta = 1.05,
    .interarrival = Microseconds(4),
    .churn_gap = Milliseconds(1),
    .drain = Milliseconds(20),
};

// 20k uniformly chosen flows introduced one per 90 µs (about 11k new flows a
// second, a third of the two switches' control-plane install capacity), so
// flow state outgrows the caches and the run spans several lease-renewal
// periods.  Both aggregation switches share the flows under ECMP.
constexpr PacketWorkload kNatChurn{
    .nat = true,
    .packets = 1'000'000,
    .flows = 20'000,
    .zipf_theta = 0,
    .interarrival = Microseconds(2),
    .churn_gap = Microseconds(90),
    .drain = Milliseconds(20),
};

/// Virtual time at which injection starts: after agg[1]'s failure has been
/// detected and routes have converged (detection delay 500 ms).
constexpr SimTime kInjectAt = Seconds(1);
constexpr std::uint16_t kBasePort = 20000;  // trace::FlowForIndex's port base
constexpr std::uint16_t kNatFirstPort = 5000;
constexpr std::uint16_t kNatPorts = 60000;
/// Payload stamp: flow index (u32) then due time (u64); the frame stays at
/// the 64 B minimum.
constexpr std::size_t kStampBytes = 12;

net::FlowKey FlowKeyFor(std::size_t index) {
  return net::FlowKey{routing::ExternalHostIp(0), routing::RackServerIp(0, 1),
                      static_cast<std::uint16_t>(kBasePort + index), 80,
                      net::IpProto::kUdp};
}

/// Synthesises the batch's trace: Poisson arrivals over `flows` flows with
/// gradual flow introduction, re-addressed from the external host to a rack
/// server (the trace generator's default destinations are not routable).
std::vector<trace::TracePacket> SynthesizeTrace(const PacketWorkload& w,
                                                std::uint64_t seed,
                                                std::size_t packets) {
  Rng rng(seed);
  trace::FlowMixConfig mix;
  mix.num_packets = packets;
  mix.num_flows = w.flows;
  mix.zipf_theta = w.zipf_theta;
  mix.mean_interarrival = w.interarrival;
  mix.proto = net::IpProto::kUdp;
  mix.realistic_sizes = false;
  std::vector<trace::TracePacket> trace = trace::GenerateFlowMix(rng, mix);
  bench::ShapeFlowChurn(trace, w.churn_gap);
  for (trace::TracePacket& tp : trace) {
    tp.flow = FlowKeyFor(tp.flow.src_port - kBasePort);
  }
  return trace;
}

/// Pass-through app that brackets the app's calls with benchmark-owned
/// profiler sites (installed in traced runs only).
class ProfiledApp : public core::SwitchApp {
 public:
  explicit ProfiledApp(core::SwitchApp& inner) : inner_(inner) {}

  std::string_view name() const override { return inner_.name(); }
  std::optional<net::PartitionKey> KeyOf(
      const net::Packet& pkt) const override {
    obs::ProfScope prof(g_prof_app_key);
    return inner_.KeyOf(pkt);
  }
  core::StateTraits Traits() const override { return inner_.Traits(); }
  core::ProcessResult Process(core::AppContext& ctx, net::Packet pkt,
                              std::vector<std::byte>& state) override {
    ++calls_;
    obs::ProfScope prof(g_prof_app_process);
    return inner_.Process(ctx, std::move(pkt), state);
  }
  bool StateInMatchTable() const override {
    return inner_.StateInMatchTable();
  }
  void Reset() override { inner_.Reset(); }

  std::uint64_t calls() const { return calls_; }

 private:
  core::SwitchApp& inner_;
  std::uint64_t calls_ = 0;
};

/// Re-installs every switch's forwarder with a profiled one that makes the
/// same RoutingFabric::NextHop call RoutingFabric::Install() installs.
void InstallProfiledForwarders(routing::Testbed& tb, std::uint64_t& calls) {
  routing::RoutingFabric* fabric = tb.fabric.get();
  for (std::size_t i = 0; i < tb.network->NumNodes(); ++i) {
    auto* sw = dynamic_cast<dp::SwitchNode*>(
        tb.network->GetNode(static_cast<NodeId>(i)));
    if (sw == nullptr) continue;
    sw->SetForwarder([fabric, sw, &calls](const net::Packet& pkt,
                                          PortId) -> std::optional<PortId> {
      ++calls;
      obs::ProfScope prof(g_prof_ecmp);
      return fabric->NextHop(sw, pkt);
    });
  }
}

/// Sends the trace one packet at a time, keeping a single pending event.
class PacedSource {
 public:
  PacedSource(sim::Simulator& sim, sim::HostNode& host,
              const std::vector<trace::TracePacket>& trace, SimTime start,
              std::array<core::RedPlaneSwitch*, 2> rp)
      : sim_(sim), host_(host), trace_(trace), start_(start), rp_(rp) {}

  void Start() {
    if (!trace_.empty()) Arm();
  }

  std::size_t sent() const { return next_; }
  double wheel_timers_peak() const { return wheel_peak_; }
  double flows_peak() const { return flows_peak_; }

 private:
  void Arm() {
    sim_.ScheduleAt(start_ + trace_[next_].time, [this] { Fire(); });
  }

  void Fire() {
    {
      obs::ProfScope prof(g_prof_source);
      const trace::TracePacket& tp = trace_[next_];
      net::Packet pkt = net::MakeUdpPacket(tp.flow, 0);
      const std::uint32_t flow = tp.flow.src_port - kBasePort;
      const auto due = static_cast<std::uint64_t>(sim_.Now());
      std::vector<std::byte> stamp(kStampBytes);
      std::memcpy(stamp.data(), &flow, sizeof(flow));
      std::memcpy(stamp.data() + sizeof(flow), &due, sizeof(due));
      pkt.payload = net::BufferView(std::move(stamp));
      host_.Send(std::move(pkt));
    }
    // Occupancy gauges, sampled rather than tracked per event.
    if (next_ % 1024 == 0) {
      wheel_peak_ = std::max(wheel_peak_,
                             static_cast<double>(sim_.CoarseTimersPending()));
      double flows = 0;
      for (core::RedPlaneSwitch* rp : rp_) {
        flows += static_cast<double>(rp->flow_table().Size());
      }
      flows_peak_ = std::max(flows_peak_, flows);
    }
    if (++next_ < trace_.size()) Arm();
  }

  sim::Simulator& sim_;
  sim::HostNode& host_;
  const std::vector<trace::TracePacket>& trace_;
  SimTime start_;
  std::array<core::RedPlaneSwitch*, 2> rp_;
  std::size_t next_ = 0;
  double wheel_peak_ = 0;
  double flows_peak_ = 0;
};

/// Receives every delivered packet: latency, digest, per-flow counts, and the
/// NAT's translation checks.
class Sink {
 public:
  Sink(sim::Simulator& sim, std::size_t flows, bool nat)
      : sim_(sim), nat_(nat), delivered_(flows, 0) {
    if (nat_) {
      port_of_flow_.assign(flows, 0);
      flow_of_port_.assign(65536, -1);
    }
  }

  void Receive(const net::Packet& pkt) {
    obs::ProfScope prof(g_prof_sink);
    std::uint32_t flow = 0;
    std::uint64_t due = 0;
    if (pkt.payload.size() != kStampBytes || !pkt.ip || !pkt.udp) {
      Fail("delivered packet lost its stamp or headers");
      return;
    }
    std::memcpy(&flow, pkt.payload.data(), sizeof(flow));
    std::memcpy(&due, pkt.payload.data() + sizeof(flow), sizeof(due));
    if (flow >= delivered_.size()) {
      Fail("delivered packet names an unknown flow");
      return;
    }
    const SimTime now = sim_.Now();
    ++delivered_[flow];
    ++total_;
    latency_us_.Add(static_cast<double>(now - static_cast<SimTime>(due)) /
                    1e3);
    FnvMix(digest_, static_cast<std::uint64_t>(now));
    FnvMix(digest_, flow);
    if (nat_) CheckNat(pkt, flow);
  }

  std::uint64_t total() const { return total_; }
  std::uint64_t delivered(std::size_t flow) const { return delivered_[flow]; }
  std::uint64_t digest() const { return digest_; }
  const SampleSet& latency_us() const { return latency_us_; }
  const std::string& error() const { return error_; }

 private:
  void CheckNat(const net::Packet& pkt, std::uint32_t flow) {
    if (pkt.ip->src != bench::kNatIp) {
      Fail("delivered packet does not carry the NAT address");
      return;
    }
    const std::uint16_t port = pkt.udp->src_port;
    if (port_of_flow_[flow] == 0) {
      if (flow_of_port_[port] != -1) {
        Fail("two flows share one external port");
        return;
      }
      port_of_flow_[flow] = port;
      flow_of_port_[port] = static_cast<std::int32_t>(flow);
    } else if (port_of_flow_[flow] != port) {
      Fail("a flow changed its external port");
    }
  }

  void Fail(const char* why) {
    if (error_.empty()) error_ = why;
  }

  sim::Simulator& sim_;
  bool nat_;
  std::vector<std::uint64_t> delivered_;
  std::vector<std::uint16_t> port_of_flow_;
  std::vector<std::int32_t> flow_of_port_;
  SampleSet latency_us_;
  std::uint64_t total_ = 0;
  std::uint64_t digest_ = kFnvOffset;
  std::string error_;
};

struct LinkTotals {
  double delivered = 0;
  double dropped = 0;
};

LinkTotals SumLinks(const sim::Network& network) {
  LinkTotals t;
  for (std::size_t i = 0; i < network.NumLinks(); ++i) {
    t.delivered += static_cast<double>(network.GetLink(i)->packets_delivered());
    t.dropped += static_cast<double>(network.GetLink(i)->packets_dropped());
  }
  return t;
}

/// Every drop the components count: node, switch-pipeline and link drops.
double CountedDrops(const routing::Testbed& tb,
                    const std::array<core::RedPlaneSwitch*, 2>& rp) {
  double drops = SumLinks(*tb.network).dropped;
  for (std::size_t i = 0; i < tb.network->NumNodes(); ++i) {
    const obs::MetricRegistry& c =
        tb.network->GetNode(static_cast<NodeId>(i))->counters();
    drops += c.Get("drop_node_down") + c.Get("drop_no_link") +
             c.Get("drop_no_route") + c.Get("drop_no_forwarder") +
             c.Get("pipeline_drops");
  }
  for (core::RedPlaneSwitch* s : rp) {
    drops += s->stats().Get("init_loop_drops");
  }
  return drops;
}

double SumStat(const std::array<core::RedPlaneSwitch*, 2>& rp,
               const char* name) {
  return rp[0]->stats().Get(name) + rp[1]->stats().Get(name);
}

/// Write-RTT histogram percentiles of whichever switch carried more writes.
std::pair<double, double> WriteRtt(
    const std::array<core::RedPlaneSwitch*, 2>& rp) {
  double count = 0, p50 = 0, p99 = 0;
  for (core::RedPlaneSwitch* s : rp) {
    for (const obs::MetricValue& mv : s->stats().Snapshot().values) {
      if (mv.name == "write_rtt_us" && mv.value > count) {
        count = mv.value;
        p50 = mv.hist_p50;
        p99 = mv.hist_p99;
      }
    }
  }
  return {p50, p99};
}

Batch RunPacketBatch(const PacketWorkload& w, const BatchOptions& opt) {
  Batch b;
  const double t_begin = WallSeconds();
  const std::vector<trace::TracePacket> trace =
      SynthesizeTrace(w, opt.seed, opt.size > 0 ? opt.size : w.packets);
  const double t_trace = WallSeconds();

  net::ResetPacketIds();
  std::unique_ptr<apps::NatGlobalState> nat_global;
  std::unique_ptr<core::SwitchApp> app;
  std::unique_ptr<ProfiledApp> profiled;
  std::uint64_t ecmp_calls = 0;
  std::optional<Sink> sink;
  std::optional<PacedSource> source;
  // Declared after everything its callbacks reference, so it dies first.
  bench::Deployment deploy;
  routing::TestbedConfig config;
  if (w.nat) {
    // The external hosts' prefix is "internal", so outbound flows allocate.
    nat_global = std::make_unique<apps::NatGlobalState>(
        bench::kNatIp, kNatFirstPort, kNatPorts, net::Ipv4Addr(10, 0, 0, 0),
        0xff000000);
    config.store.initializer = [g = nat_global.get()](
                                   const net::PartitionKey& key) {
      return g->InitializeFlow(key);
    };
    app = std::make_unique<apps::NatApp>(*nat_global);
  } else {
    app = std::make_unique<apps::SyncCounterApp>();
  }
  deploy.Build(config);
  const double t_build = WallSeconds();
  sim::Simulator& sim = deploy.sim();
  routing::Testbed& tb = deploy.testbed();

  core::SwitchApp* deployed = app.get();
  if (opt.profiler != nullptr) {
    profiled = std::make_unique<ProfiledApp>(*app);
    deployed = profiled.get();
    InstallProfiledForwarders(tb, ecmp_calls);
  }
  deploy.DeployRedPlane(*deployed);
  const std::array<core::RedPlaneSwitch*, 2> rp{deploy.redplane(0),
                                                deploy.redplane(1)};
  if (!w.nat) {
    routing::FailureInjector injector(sim, *tb.fabric);
    injector.FailNode(tb.agg[1]);
  }
  sim.RunUntil(kInjectAt);

  sink.emplace(sim, w.flows, w.nat);
  tb.rack_servers[0][1]->SetHandler(
      [&sink](sim::HostNode&, net::Packet pkt) { sink->Receive(pkt); });
  source.emplace(sim, *tb.external[0], trace, kInjectAt, rp);
  const SimTime end_at =
      kInjectAt + (trace.empty() ? 0 : trace.back().time) + w.drain;

  const std::uint64_t events0 = sim.EventsProcessed();
  const LinkTotals links0 = SumLinks(*tb.network);
  if (opt.profiler != nullptr) opt.profiler->SetEnabled(true);
  const double t_start = WallSeconds();
  source->Start();
  sim.RunUntil(end_at);
  const double t_end = WallSeconds();
  if (opt.profiler != nullptr) opt.profiler->SetEnabled(false);

  b.setup_s = t_start - t_begin;
  b.measured_s = t_end - t_start;
  b.packets = source->sent();
  const std::uint64_t delivered = sink->total();
  b.ops = b.packets;
  b.failed_ops = b.packets - std::min(b.packets, delivered);
  b.digest = sink->digest();
  b.host["trace.gen_s"] = t_trace - t_begin;
  b.host["routing.build_s"] = t_build - t_trace;

  // --- correctness -----------------------------------------------------
  b.error = sink->error();
  const double drops = CountedDrops(tb, rp);
  if (b.error.empty() && static_cast<double>(delivered) + drops !=
                             static_cast<double>(b.packets)) {
    b.error = "injected != delivered + counted drops";
  }
  if (b.error.empty() && !w.nat) {
    const store::StateStoreServer* tail = tb.store.back();
    for (std::size_t f = 0; f < w.flows && b.error.empty(); ++f) {
      const store::FlowRecord* rec =
          tail->Find(net::PartitionKey::OfFlow(FlowKeyFor(f)));
      const std::uint64_t count =
          rec == nullptr
              ? 0
              : core::StateAs<std::uint64_t>(rec->state).value_or(0);
      if (count != sink->delivered(f)) {
        b.error = "tail counter differs from the flow's delivered count";
      }
    }
  }

  // --- exact figures (virtual time and counts) ---------------------------
  const double pkts =
      static_cast<double>(std::max<std::uint64_t>(b.packets, 1));
  const LinkTotals links1 = SumLinks(*tb.network);
  const store::StateStoreServer* head = tb.store.front();
  const obs::MetricRegistry& hc = head->counters();
  const double head_reqs = hc.Get("repl_reqs") + hc.Get("renew_reqs") +
                           hc.Get("init_reqs") + hc.Get("read_buffer_reqs");
  double chain_forwards = 0;
  for (const store::StateStoreServer* s : tb.store) {
    chain_forwards += s->counters().Get("chain_forwards");
  }
  double switch_rx = 0;
  double mirror_peak = 0;
  for (std::size_t i = 0; i < tb.network->NumNodes(); ++i) {
    auto* sw = dynamic_cast<dp::SwitchNode*>(
        tb.network->GetNode(static_cast<NodeId>(i)));
    if (sw == nullptr) continue;
    switch_rx += sw->counters().Get("rx_pkts");
    mirror_peak = std::max(
        mirror_peak, static_cast<double>(sw->mirror().PeakOccupancyBytes()));
  }
  const double req_bytes = rp[0]->protocol_request_bytes() +
                           rp[1]->protocol_request_bytes();
  const double resp_bytes = rp[0]->protocol_response_bytes() +
                            rp[1]->protocol_response_bytes();
  const double orig_bytes =
      rp[0]->original_bytes() + rp[1]->original_bytes();
  const double reqs_sent = SumStat(rp, "reqs_sent");
  const double repl = hc.Get("repl_reqs");
  const auto [rtt_p50, rtt_p99] = WriteRtt(rp);
  const SampleSet& lat = sink->latency_us();

  auto& v = b.values;
  v["delivered_pct"] = 100.0 * static_cast<double>(delivered) / pkts;
  v["virtual.lat_p50_us"] = lat.Empty() ? 0 : lat.Percentile(50);
  v["virtual.lat_p999_us"] = lat.Empty() ? 0 : lat.Percentile(99.9);
  v["virtual.lat_samples"] = static_cast<double>(lat.Count());
  v["virtual.repl_overhead_pct"] =
      100.0 * (req_bytes + resp_bytes) /
      std::max(orig_bytes + req_bytes + resp_bytes, 1.0);
  v["sim.events_per_pkt"] =
      static_cast<double>(sim.EventsProcessed() - events0) / pkts;
  v["sim.link_deliveries_per_pkt"] =
      (links1.delivered - links0.delivered) / pkts;
  v["sim.link_drops"] = links1.dropped;
  v["sim.wheel_timers_peak"] = source->wheel_timers_peak();
  v["dataplane.switch_rx_per_pkt"] = switch_rx / pkts;
  v["dataplane.mirror_peak_kb"] = mirror_peak / 1024.0;
  v["dataplane.cp_installs"] = SumStat(rp, "cp_installs");
  v["core.reqs_per_pkt"] = reqs_sent / pkts;
  v["core.retransmits"] = SumStat(rp, "retransmits");
  v["core.init_loop_drops"] = SumStat(rp, "init_loop_drops");
  v["core.reads_buffered_per_pkt"] = SumStat(rp, "reads_buffered") / pkts;
  v["core.write_rtt_p50_us"] = rtt_p50;
  v["core.write_rtt_p99_us"] = rtt_p99;
  v["core.flows_peak"] = source->flows_peak();
  v["net.req_bytes_per_req"] = reqs_sent > 0 ? req_bytes / reqs_sent : 0;
  v["statestore.reqs_per_pkt"] = head_reqs / pkts;
  v["statestore.chain_forwards_per_req"] =
      head_reqs > 0 ? chain_forwards / head_reqs : 0;
  v["statestore.head_busy_frac"] =
      static_cast<double>(head->busy_time()) /
      static_cast<double>(end_at - kInjectAt);
  // No writes received means none wasted.
  v["statestore.applied_ratio"] =
      repl > 0 ? (repl - hc.Get("stale_writes")) / repl : 1.0;
  v["statestore.flows"] = static_cast<double>(tb.store.back()->NumFlows());
  // No auditor, campaign runner or injected fault in these workloads.
  for (const char* name :
       {"audit.events_per_schedule", "campaign.schedule_ms_p50",
        "campaign.schedules_per_s", "virtual.downtime_p50_ms",
        "virtual.episodes", "virtual.open_episodes"}) {
    v[name] = 0;
  }
  if (profiled != nullptr) {
    v["routing.ecmp_calls_per_pkt"] = static_cast<double>(ecmp_calls) / pkts;
    v["apps.calls_per_pkt"] = static_cast<double>(profiled->calls()) / pkts;
  }
  return b;
}

}  // namespace

Batch RunSyncWriteBatch(const BatchOptions& opt) {
  return RunPacketBatch(kSyncWrite, opt);
}

Batch RunNatChurnBatch(const BatchOptions& opt) {
  return RunPacketBatch(kNatChurn, opt);
}

}  // namespace redplane::perfbench
