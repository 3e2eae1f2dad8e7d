// Fig. 10: replication bandwidth overhead per application — the share of
// total traffic consumed by RedPlane protocol messages (requests and
// responses) versus original packets.
//
// Paper anchors: ~0-1% for read-centric apps (NAT, firewall, LB), 12.8% for
// EPC-SGW, negligible for HH detection (1 ms snapshots), and 51.2% for
// Sync-Counter (whose requests carry headers plus the piggybacked packet).
#include <cstdio>

#include "harness.h"
#include "net/codec.h"

using namespace redplane;
using namespace redplane::bench;

namespace {

constexpr std::size_t kPackets = 30'000;
constexpr std::size_t kFlows = 200;

struct BandwidthResult {
  double original = 0;
  double requests = 0;
  double responses = 0;

  double OverheadPct() const {
    const double total = original + requests + responses;
    return total > 0 ? 100.0 * (requests + responses) / total : 0;
  }
};

struct Harness {
  Deployment deploy;
  routing::Testbed* tb = nullptr;

  void Build(std::function<std::vector<std::byte>(const net::PartitionKey&)>
                 initializer = nullptr) {
    routing::TestbedConfig config;
    config.store.initializer = std::move(initializer);
    deploy.Build(config);
    tb = &deploy.testbed();
    routing::FailureInjector injector(deploy.sim(), *tb->fabric);
    injector.FailNode(tb->agg[1]);
    deploy.sim().RunUntil(Seconds(1));
  }

  BandwidthResult Collect() {
    // Drain to the end of the injected traffic plus a short settling tail;
    // running longer would let periodic snapshot traffic accumulate against
    // a finished workload and skew the ratio.
    deploy.sim().RunUntil(inject_end + Milliseconds(5));
    BandwidthResult result;
    result.original = deploy.redplane(0)->original_bytes();
    result.requests = deploy.redplane(0)->protocol_request_bytes();
    result.responses = deploy.redplane(0)->protocol_response_bytes();
    return result;
  }

  /// 64 B packets across flows with realistic gradual flow churn, as in
  /// the paper's bandwidth experiments.  `num_users` > 0 spreads EPC
  /// traffic over that many user addresses (all terminating at one rack
  /// server, like anycast user prefixes).
  void Inject(std::size_t flows, std::uint16_t vlan = 0,
              std::size_t data_per_signaling = 0, std::size_t num_users = 0,
              SimDuration interarrival = Microseconds(4),
              SimDuration churn_gap = Milliseconds(1), bool stamp = false) {
    Rng rng(41);
    auto& sim = deploy.sim();
    std::vector<net::Ipv4Addr> users;
    for (std::size_t u = 0; u < num_users; ++u) {
      net::Ipv4Addr ip(100, 64, 0, static_cast<std::uint8_t>(10 + u));
      tb->fabric->AssignAddress(tb->rack_servers[0][1], ip);
      users.push_back(ip);
    }
    if (num_users > 0) tb->fabric->RecomputeNow();

    trace::FlowMixConfig mix;
    mix.num_packets = kPackets;
    mix.num_flows = flows;
    mix.realistic_sizes = false;  // 64 B
    mix.mean_interarrival = interarrival;
    mix.proto = net::IpProto::kUdp;
    auto packets = trace::GenerateFlowMix(rng, mix);
    ShapeFlowChurn(packets, churn_gap);
    const SimTime start = sim.Now();
    std::size_t since_signaling = 0;
    std::size_t user_cursor = 0;
    for (const auto& spec : packets) {
      inject_end = start + spec.time;
      const net::Ipv4Addr dst =
          users.empty() ? routing::RackServerIp(0, 1)
                        : users[user_cursor++ % users.size()];
      if (data_per_signaling > 0 && ++since_signaling > data_per_signaling) {
        since_signaling = 0;
        sim.ScheduleAt(inject_end, [this, dst]() {
          tb->external[0]->Send(apps::MakeSgwSignalingPacket(
              routing::ExternalHostIp(0), dst, 7, net::Ipv4Addr(1, 1, 1, 1)));
        });
        continue;
      }
      net::FlowKey flow = spec.flow;
      flow.src_ip = routing::ExternalHostIp(0);
      flow.dst_ip = dst;
      flow.dst_port = data_per_signaling > 0 ? apps::kSgwDataPort
                                             : std::uint16_t{80};
      sim.ScheduleAt(inject_end, [this, flow, vlan, stamp]() {
        net::Packet pkt = net::MakeUdpPacket(flow, 0);  // min-size frame
        pkt.vlan = vlan;
        if (stamp) {
          // Send time in the payload: the delivery handler turns it into a
          // one-way switch-traversal latency (payload bytes survive
          // RedPlane's piggybacking, as in RttProbe).
          std::vector<std::byte> buf;
          net::ByteWriter w(buf);
          w.U64(static_cast<std::uint64_t>(deploy.sim().Now()));
          pkt.payload = std::move(buf);
        }
        tb->external[0]->Send(std::move(pkt));
      });
    }
  }

  SimTime inject_end = 0;
};

BandwidthResult RunReadCentric(const char* which) {
  auto nat_global = std::make_shared<apps::NatGlobalState>(
      kNatIp, 5000, 4096, net::Ipv4Addr(10, 0, 0, 0), 0xff000000);
  auto lb_global = std::make_shared<apps::LbGlobalState>(kVip, 80);
  lb_global->AddBackend(routing::RackServerIp(0, 0), 80);

  Harness h;
  std::unique_ptr<core::SwitchApp> app;
  if (std::string_view(which) == "nat") {
    // "Internal" = the external hosts' prefix so min-size outbound flows
    // allocate mappings.
    h.Build([nat_global](const net::PartitionKey& key) {
      return nat_global->InitializeFlow(key);
    });
    app = std::make_unique<apps::NatApp>(*nat_global);
  } else if (std::string_view(which) == "firewall") {
    h.Build();
    app = std::make_unique<apps::FirewallApp>(net::Ipv4Addr(10, 0, 0, 0),
                                              0xff000000);
  } else {
    h.Build([lb_global](const net::PartitionKey& key) {
      return lb_global->InitializeFlow(key);
    });
    app = std::make_unique<apps::LoadBalancerApp>(*lb_global);
  }
  h.deploy.DeployRedPlane(*app);
  // Long-lived flows with modest churn, as in the replayed traces.
  h.Inject(kFlows);
  return h.Collect();
}

BandwidthResult RunEpc() {
  Harness h;
  h.Build();
  apps::EpcSgwApp sgw;
  h.deploy.DeployRedPlane(sgw);
  // A population of users; signaling (and therefore write-buffering)
  // touches one user's partition at a time.
  h.Inject(kFlows, 0, /*data_per_signaling=*/17, /*num_users=*/32);
  return h.Collect();
}

BandwidthResult RunHeavyHitter() {
  Harness h;
  h.Build();
  apps::HeavyHitterConfig cfg;
  cfg.vlans = {1};
  apps::HeavyHitterApp hh(cfg);
  core::RedPlaneConfig rp;
  rp.linearizable = false;
  rp.snapshot_period = Milliseconds(1);
  h.deploy.DeployRedPlane(hh, rp);
  h.deploy.redplane(0)->StartSnapshotReplication(hh);
  // Write-centric traffic runs at high rate; snapshot bandwidth is fixed,
  // so its share is rate-dependent (the paper measures at ~Tbps-scale
  // injection).
  h.Inject(kFlows, /*vlan=*/1, 0, 0, /*interarrival=*/Nanoseconds(300));
  return h.Collect();
}

BandwidthResult RunSyncCounter(ObsSession* obs) {
  Harness h;
  h.Build();
  apps::SyncCounterApp counter;
  h.deploy.DeployRedPlane(counter);
  if (obs != nullptr) {
    // Sync-Counter is the observability showcase: every packet's write
    // traverses the full switch → store chain → ack lifecycle, so its spans
    // exercise every segment kind.
    obs->AttachTracer(h.deploy.sim());
    obs->Watch(h.deploy.redplane(0)->stats());
    for (auto* server : h.tb->store) obs->Watch(server->counters());
    obs->StartSampling(h.deploy.sim(), obs->metrics_period(), Seconds(2));
  }
  h.Inject(kFlows);
  BandwidthResult r = h.Collect();
  if (obs != nullptr) {
    obs->SampleOnce(h.deploy.sim().Now());
    obs->UnwatchAll();
    obs->DetachTracer();
  }
  return r;
}

// --- Replication batching at the write-heavy operating point ----------------
//
// Sync-Counter replicates every packet, so it is the point where per-request
// wire overhead (IP/UDP headers per replication packet) and per-request
// store service slots dominate.  Coalescing (DESIGN.md §10) amortizes both:
// N requests share one packet's headers and one store service slot.

struct BatchingResult {
  BandwidthResult bw;
  double req_bytes = 0;        // replication request bytes on the wire
  double store_slots = 0;      // store-head service occupancies
  double store_subs = 0;       // requests served (same with/without batching)
  double batch_envelopes = 0;  // envelopes sent by the switch
};

BatchingResult RunSyncCounterBatching(SimDuration coalesce_delay) {
  Harness h;
  h.Build();
  apps::SyncCounterApp counter;
  core::RedPlaneConfig rp;
  rp.coalesce_delay = coalesce_delay;
  h.deploy.DeployRedPlane(counter, rp);
  h.Inject(kFlows);
  BatchingResult r;
  r.bw = h.Collect();
  r.req_bytes = h.deploy.redplane(0)->protocol_request_bytes();
  const auto* head = h.tb->store.front();
  // One service occupancy per wire arrival: an envelope of N costs one slot.
  r.store_slots = static_cast<double>(head->busy_time()) /
                  static_cast<double>(head->config().service_time);
  r.store_subs = head->counters().Get("repl_reqs") +
                 head->counters().Get("renew_reqs") +
                 head->counters().Get("init_reqs");
  r.batch_envelopes = h.deploy.redplane(0)->stats().Get("batch_envelopes");
  return r;
}

// --- Consistency-mode spectrum at the write-heavy operating point -----------
//
// Sync-Counter is where the consistency mode matters most: every packet is a
// write, so single-owner holds every output behind a store round trip while
// mergeable (DESIGN.md §14) releases at zero RTT and durably merges on a
// timer.  Replicated-read only relaxes reads, so on an all-writes workload it
// tracks the single-owner point (the residual gap is the store's subscriber
// pushes, which exist only in that mode).

struct ModeResult {
  BandwidthResult bw;
  SampleSet oneway_us;  // injection -> delivery, through the owner switch
  double delivered = 0;
  double merge_deltas = 0;
};

ModeResult RunSyncCounterMode(core::ConsistencyMode mode) {
  Harness h;
  h.Build();
  apps::SyncCounterApp counter;
  core::RedPlaneConfig rp;
  rp.mode_override = mode;
  h.deploy.DeployRedPlane(counter, rp);
  ModeResult r;
  sim::HostNode* sink = h.tb->rack_servers[0][1];
  sink->SetHandler([&r, sink](sim::HostNode&, net::Packet pkt) {
    ++r.delivered;
    if (pkt.payload.size() < 8) return;
    net::ByteReader rd(pkt.payload);
    const auto sent_at = static_cast<SimTime>(rd.U64());
    const SimTime now = sink->sim().Now();
    if (now >= sent_at) r.oneway_us.Add(ToMicroseconds(now - sent_at));
  });
  h.Inject(kFlows, 0, 0, 0, Microseconds(4), Milliseconds(1),
           /*stamp=*/true);
  r.bw = h.Collect();
  r.merge_deltas = h.deploy.redplane(0)->stats().Get("merge_deltas_sent");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  ObsSession obs(argc, argv);
  ObsSession* obs_ptr = obs.enabled() ? &obs : nullptr;
  std::printf("=== Fig. 10: RedPlane replication bandwidth overhead ===\n");
  std::printf("(64 B packets, %zu flows, %zu packets per app)\n\n", kFlows,
              kPackets);
  struct Row {
    const char* name;
    BandwidthResult r;
  };
  const Row rows[] = {
      {"NAT", RunReadCentric("nat")},
      {"Firewall", RunReadCentric("firewall")},
      {"Load balancer", RunReadCentric("lb")},
      {"EPC-SGW", RunEpc()},
      {"HH-detector", RunHeavyHitter()},
      {"Sync-Counter", RunSyncCounter(obs_ptr)},
  };
  TablePrinter table({"Application", "Original %", "RedPlane req %",
                      "RedPlane resp %", "Overhead %"});
  for (const Row& row : rows) {
    const double total = row.r.original + row.r.requests + row.r.responses;
    auto pct = [&](double v) {
      return FormatDouble(total > 0 ? 100.0 * v / total : 0, 1);
    };
    table.Row({row.name, pct(row.r.original), pct(row.r.requests),
               pct(row.r.responses),
               FormatDouble(row.r.OverheadPct(), 1)});
  }
  std::printf("\nPaper anchors: read-centric apps ~0-1%% overhead (protocol "
              "messages only for each flow's first packet);\nEPC-SGW 12.8%% "
              "(signaling writes + buffered data); HH-detector <1%% at 1 ms "
              "snapshots;\nSync-Counter ~51%% (every packet's request and "
              "response carry headers plus the packet itself).\n");

  std::printf("\n=== Replication batching (Sync-Counter, write-per-packet) "
              "===\n\n");
  const BatchingResult off = RunSyncCounterBatching(0);
  const BatchingResult on = RunSyncCounterBatching(Microseconds(16));
  TablePrinter batch_table({"Coalescing", "Req bytes", "Store slots",
                            "Reqs served", "Envelopes", "Overhead %"});
  auto batch_row = [&](const char* name, const BatchingResult& r) {
    batch_table.Row({name, FormatDouble(r.req_bytes, 0),
                     FormatDouble(r.store_slots, 0),
                     FormatDouble(r.store_subs, 0),
                     FormatDouble(r.batch_envelopes, 0),
                     FormatDouble(r.bw.OverheadPct(), 1)});
  };
  batch_row("off", off);
  batch_row("16 us", on);
  std::printf("\nSame requests served either way; batching shares one "
              "packet's headers and one store\nservice slot across a "
              "coalescing window's worth of writes (bytes on the wire and\n"
              "store occupancies both drop).\n");

  std::printf("\n=== Consistency-mode spectrum (Sync-Counter, DESIGN.md "
              "section 14) ===\n\n");
  const ModeResult single =
      RunSyncCounterMode(core::ConsistencyMode::kSingleOwner);
  const ModeResult replicated =
      RunSyncCounterMode(core::ConsistencyMode::kReplicatedRead);
  const ModeResult mergeable =
      RunSyncCounterMode(core::ConsistencyMode::kMergeable);
  TablePrinter mode_table({"Mode", "Overhead %", "Delivered", "One-way p50 us",
                           "One-way p99 us", "Merge deltas"});
  auto mode_row = [&](const char* name, const ModeResult& r) {
    mode_table.Row({name, FormatDouble(r.bw.OverheadPct(), 1),
                    FormatDouble(r.delivered, 0),
                    FormatDouble(r.oneway_us.Percentile(50), 1),
                    FormatDouble(r.oneway_us.Percentile(99), 1),
                    FormatDouble(r.merge_deltas, 0)});
  };
  mode_row("single-owner", single);
  mode_row("replicated-read", replicated);
  mode_row("mergeable", mergeable);
  std::printf("\nEvery Sync-Counter packet is a write, so single-owner holds "
              "each output behind a store\nround trip; replicated-read only "
              "relaxes reads and tracks it to within the store's\nsubscriber "
              "pushes; mergeable releases at zero RTT and durably merges its "
              "local state on\na timer, so both the delivery latency and the "
              "replication overhead collapse.\n");

  if (argc > 1) {
    if (std::FILE* f = std::fopen(argv[1], "w")) {
      std::fprintf(
          f,
          "{\n"
          "  \"experiment\": \"fig10_sync_counter_batching\",\n"
          "  \"coalesce_delay_us\": {\"off\": 0, \"on\": 16},\n"
          "  \"before\": {\"req_bytes\": %.0f, \"store_slots\": %.0f, "
          "\"reqs_served\": %.0f, \"overhead_pct\": %.2f},\n"
          "  \"after\": {\"req_bytes\": %.0f, \"store_slots\": %.0f, "
          "\"reqs_served\": %.0f, \"envelopes\": %.0f, "
          "\"overhead_pct\": %.2f},\n"
          "  \"req_bytes_drop_pct\": %.2f,\n"
          "  \"store_slots_drop_pct\": %.2f,\n"
          "  \"consistency_modes\": {\n"
          "    \"single_owner\": {\"overhead_pct\": %.2f, \"delivered\": "
          "%.0f, \"oneway_p50_us\": %.2f, \"oneway_p99_us\": %.2f},\n"
          "    \"replicated_read\": {\"overhead_pct\": %.2f, \"delivered\": "
          "%.0f, \"oneway_p50_us\": %.2f, \"oneway_p99_us\": %.2f},\n"
          "    \"mergeable\": {\"overhead_pct\": %.2f, \"delivered\": %.0f, "
          "\"oneway_p50_us\": %.2f, \"oneway_p99_us\": %.2f, "
          "\"merge_deltas\": %.0f}\n"
          "  }\n"
          "}\n",
          off.req_bytes, off.store_slots, off.store_subs,
          off.bw.OverheadPct(), on.req_bytes, on.store_slots, on.store_subs,
          on.batch_envelopes, on.bw.OverheadPct(),
          off.req_bytes > 0
              ? 100.0 * (off.req_bytes - on.req_bytes) / off.req_bytes
              : 0,
          off.store_slots > 0
              ? 100.0 * (off.store_slots - on.store_slots) / off.store_slots
              : 0,
          single.bw.OverheadPct(), single.delivered,
          single.oneway_us.Percentile(50), single.oneway_us.Percentile(99),
          replicated.bw.OverheadPct(), replicated.delivered,
          replicated.oneway_us.Percentile(50),
          replicated.oneway_us.Percentile(99), mergeable.bw.OverheadPct(),
          mergeable.delivered, mergeable.oneway_us.Percentile(50),
          mergeable.oneway_us.Percentile(99), mergeable.merge_deltas);
      std::fclose(f);
      std::printf("\nWrote %s\n", argv[1]);
    }
  }
  obs.Finish();
  return 0;
}
