// Fig. 13: in-switch key-value store throughput vs update ratio, for 1-3
// state-store shards.
//
// At paper scale (hundreds of Mpps offered) this uses the calibrated
// analytic model (as the paper itself does for its at-scale analysis); the
// model is validated against packet-level simulation in tests/ and by the
// small-scale packet-level sweep printed below.
#include <cstdio>

#include <deque>
#include <map>

#include "core/analytic.h"
#include "harness.h"
#include "net/codec.h"

using namespace redplane;

namespace {

double PacketLevelGoodput(double update_ratio, SimDuration store_service,
                          bench::ObsSession* obs = nullptr) {
  bench::Deployment deploy;
  routing::TestbedConfig cfg;
  cfg.store.service_time = store_service;
  deploy.Build(cfg);
  apps::KvStoreApp kv;
  deploy.DeployRedPlane(kv);
  if (obs != nullptr) {
    obs->AttachTracer(deploy.sim());
    obs->Watch(deploy.redplane(0)->stats());
    for (auto* server : deploy.testbed().store) obs->Watch(server->counters());
    obs->StartSampling(deploy.sim(), obs->metrics_period(), Milliseconds(20));
  }

  std::uint64_t replies = 0;
  deploy.testbed().external[0]->SetHandler(
      [&](sim::HostNode&, net::Packet) { ++replies; });

  Rng rng(3);
  trace::KvOpsConfig ops;
  ops.num_ops = 3000;
  ops.num_keys = 128;
  ops.update_ratio = update_ratio;
  ops.mean_interarrival = Microseconds(3);
  net::FlowKey client{routing::ExternalHostIp(0), routing::RackServerIp(0, 0),
                      3333, apps::kKvUdpPort, net::IpProto::kUdp};
  SimTime last = 0;
  for (const auto& op : trace::GenerateKvOps(rng, ops)) {
    last = op.time;
    deploy.sim().ScheduleAt(op.time, [&deploy, client, op]() {
      deploy.testbed().external[0]->Send(
          apps::MakeKvPacket(client, op.request));
    });
  }
  deploy.sim().Run();
  if (obs != nullptr) {
    obs->SampleOnce(deploy.sim().Now());
    obs->UnwatchAll();
  }
  return static_cast<double>(replies) / ToSeconds(last) / 1e6;  // Mops/s
}

// --- Consistency modes (DESIGN.md section 14): read latency ----------------
//
// KvStoreApp declares replicated-read; both columns pin the mode explicitly
// through RedPlaneConfig::mode_override so the comparison is deployment-
// controlled, not declaration-controlled.  Few keys + a mixed workload put
// reads behind their own key's in-flight updates, which is exactly where the
// modes diverge: single-owner loops such reads through the store's buffering
// path, replicated-read answers them from local state within the staleness
// bound.

struct KvModeResult {
  double mops = 0;          // replies per second of completed-run time
  SampleSet read_rtt_us;
  double local_reads = 0;
  double buffered_reads = 0;
};

KvModeResult KvModeRun(core::ConsistencyMode mode, double update_ratio,
                       SimDuration store_service) {
  bench::Deployment deploy;
  routing::TestbedConfig cfg;
  cfg.store.service_time = store_service;
  deploy.Build(cfg);
  apps::KvStoreApp kv;
  core::RedPlaneConfig rp;
  rp.mode_override = mode;
  deploy.DeployRedPlane(kv, rp);

  KvModeResult r;
  std::uint64_t replies = 0;
  // Read replies echo the key, so a per-key FIFO of send times recovers each
  // read's round trip (per-key ordering holds on the local-serve path and is
  // close enough on the buffering path for percentile comparison).
  std::map<std::uint64_t, std::deque<SimTime>> pending_reads;
  deploy.testbed().external[0]->SetHandler(
      [&](sim::HostNode& self, net::Packet pkt) {
        ++replies;
        net::ByteReader rd(pkt.payload);
        const auto op = static_cast<apps::KvOp>(rd.U8());
        const std::uint64_t key = rd.U64();
        rd.U64();
        if (!rd.ok() || op != apps::KvOp::kRead) return;
        auto it = pending_reads.find(key);
        if (it == pending_reads.end() || it->second.empty()) return;
        r.read_rtt_us.Add(ToMicroseconds(self.sim().Now() - it->second.front()));
        it->second.pop_front();
      });

  Rng rng(3);
  trace::KvOpsConfig ops;
  ops.num_ops = 3000;
  ops.num_keys = 16;
  ops.update_ratio = update_ratio;
  ops.mean_interarrival = Microseconds(3);
  net::FlowKey client{routing::ExternalHostIp(0), routing::RackServerIp(0, 0),
                      3333, apps::kKvUdpPort, net::IpProto::kUdp};
  for (const auto& op : trace::GenerateKvOps(rng, ops)) {
    deploy.sim().ScheduleAt(op.time, [&deploy, &pending_reads, client, op]() {
      if (op.request.op == apps::KvOp::kRead) {
        pending_reads[op.request.key].push_back(deploy.sim().Now());
      }
      deploy.testbed().external[0]->Send(apps::MakeKvPacket(client, op.request));
    });
  }
  deploy.sim().Run();
  r.mops = static_cast<double>(replies) / ToSeconds(deploy.sim().Now()) / 1e6;
  // No failure is injected here, so ECMP may land flows on either agg
  // switch: sum the counters over both.
  for (int i = 0; i < 2; ++i) {
    r.local_reads += deploy.redplane(i)->stats().Get("local_reads_served");
    r.buffered_reads += deploy.redplane(i)->stats().Get("reads_buffered");
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsSession obs(argc, argv);
  std::printf("=== Fig. 13: KV-store throughput vs update ratio ===\n\n");
  std::printf("-- analytic model, paper scale (Mpps) --\n");
  bench::TablePrinter table(
      {"Update ratio", "1 store", "2 stores", "3 stores"});
  for (double u = 0.0; u <= 1.001; u += 0.1) {
    std::vector<std::string> row{FormatDouble(u, 1)};
    for (int stores = 1; stores <= 3; ++stores) {
      core::AnalyticConfig cfg;
      cfg.sync_update_fraction = u;
      cfg.num_stores = stores;
      cfg.store_rps = 35e6;
      row.push_back(FormatDouble(
          core::PredictThroughput(cfg).throughput_pps / 1e6, 1));
    }
    table.Row(row);
  }

  std::printf("\n-- packet-level validation, small scale (Mops/s completed; "
              "single store, 2 us service) --\n");
  bench::TablePrinter small({"Update ratio", "Goodput"});
  for (double u : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    // Instrument the all-updates point: every op pays a store round trip.
    bench::ObsSession* obs_ptr = obs.enabled() && u == 1.0 ? &obs : nullptr;
    small.Row({FormatDouble(u, 2),
               FormatDouble(PacketLevelGoodput(u, Microseconds(2), obs_ptr),
                            3)});
  }
  obs.Finish();
  std::printf("\nShape check: throughput falls as the update ratio grows "
              "(every update pays a store round trip);\nadding store shards "
              "shifts the curve up — matching the paper's Fig. 13.\n");

  std::printf("\n-- consistency modes (DESIGN.md section 14): pinned "
              "single-owner vs replicated-read --\n");
  std::printf("   (update ratio 0.5, 16 keys, 4 us store service; read "
              "latency at the client)\n");
  bench::TablePrinter modes({"Mode", "Mops/s", "Read p50 us", "Read p99 us",
                             "Local reads", "Buffered reads"});
  const KvModeResult kv_single =
      KvModeRun(core::ConsistencyMode::kSingleOwner, 0.5, Microseconds(4));
  const KvModeResult kv_repl =
      KvModeRun(core::ConsistencyMode::kReplicatedRead, 0.5, Microseconds(4));
  auto kv_mode_row = [&](const char* name, const KvModeResult& r) {
    modes.Row({name, FormatDouble(r.mops, 3),
               FormatDouble(r.read_rtt_us.Percentile(50), 1),
               FormatDouble(r.read_rtt_us.Percentile(99), 1),
               FormatDouble(r.local_reads, 0),
               FormatDouble(r.buffered_reads, 0)});
  };
  kv_mode_row("single-owner", kv_single);
  kv_mode_row("replicated-read", kv_repl);
  std::printf("\nReads that land behind their own key's in-flight update "
              "loop through the store under\nsingle-owner but are answered "
              "from local state under replicated-read (within the\n1 ms "
              "staleness bound) — the tail read latency is where the "
              "buffering path shows up.\n");
  return 0;
}
