// Fig. 14: end-to-end TCP throughput across a switch failure and recovery.
//
// An iperf-like TCP flow runs through an in-switch NAT on the testbed for
// 60 seconds; the carrying aggregation switch fails at t=15 s and recovers
// at t=40 s.  Three configurations:
//   * Baseline (no failure),
//   * Failure without RedPlane — the rerouted flow hits a NAT with no
//     translation state and a switch-local port pool, so the connection's
//     identity changes and it never recovers,
//   * Failure + RedPlane — the standby switch migrates the mapping from
//     the state store and throughput recovers within about a second
//     (failure-detection delay + lease period), as in the paper.
//
// The fabric runs at 1 Gbps so a minute-long flow is tractable to simulate
// packet by packet; failover dynamics are rate-independent (the paper's
// absolute 100 Gbps plateau is a link-speed constant).
#include <cstdio>
#include <fstream>
#include <sstream>

#include "harness.h"
#include "obs/recovery.h"
#include "obs/timeseries.h"
#include "sim/timer_wheel.h"
#include "tcp/tcp.h"

using namespace redplane;
using namespace redplane::bench;

namespace {

constexpr SimTime kFailAt = Seconds(15);
constexpr SimTime kRecoverAt = Seconds(40);
constexpr SimTime kEnd = Seconds(60);

constexpr SimDuration kDetectionDelay = Milliseconds(400);
constexpr SimDuration kLeasePeriod = Milliseconds(500);

enum class Mode { kBaseline, kFailureNoRedPlane, kFailureRedPlane };

std::vector<double> RunTimeline(Mode mode, ObsSession* obs = nullptr,
                                obs::RecoveryTracker* tracker = nullptr,
                                const std::string& fleet_out = {}) {
  obs::Tracer local_tracer;  // outlives the deployment's simulator
  Deployment deploy;
  auto store_pool = std::make_shared<apps::NatGlobalState>(
      kNatIp, 5000, 128, kInternalPrefix, kInternalMask);
  routing::TestbedConfig config;
  config.fabric_link.bandwidth_bps = 1e9;
  config.host_link.bandwidth_bps = 1e9;
  config.store.lease_period = kLeasePeriod;
  config.fabric.failure_detection_delay = kDetectionDelay;
  config.store.initializer = [store_pool](const net::PartitionKey& key) {
    return store_pool->InitializeFlow(key);
  };
  deploy.Build(config);
  auto& tb = deploy.testbed();
  auto& sim = deploy.sim();

  apps::NatApp rp_nat(*store_pool);
  // The no-FT baseline keeps a pool per switch: after a failure the
  // survivor allocates fresh (different) mappings.
  apps::NatGlobalState local_pool0(kNatIp, 5000, 128, kInternalPrefix,
                                   kInternalMask);
  apps::NatGlobalState local_pool1(kNatIp, 6000, 128, kInternalPrefix,
                                   kInternalMask);
  apps::NatApp plain_nat0(local_pool0);
  apps::NatApp plain_nat1(local_pool1);
  std::unique_ptr<baselines::PlainAppPipeline> plain[2];

  core::RedPlaneConfig rp_config;
  rp_config.lease_period = kLeasePeriod;
  rp_config.renew_interval = kLeasePeriod / 2;
  if (mode == Mode::kFailureNoRedPlane) {
    plain[0] = std::make_unique<baselines::PlainAppPipeline>(
        *tb.agg[0], plain_nat0, [&](const net::PartitionKey& key) {
          return local_pool0.InitializeFlow(key);
        });
    plain[1] = std::make_unique<baselines::PlainAppPipeline>(
        *tb.agg[1], plain_nat1, [&](const net::PartitionKey& key) {
          return local_pool1.InitializeFlow(key);
        });
    tb.agg[0]->SetPipeline(plain[0].get());
    tb.agg[1]->SetPipeline(plain[1].get());
  } else {
    deploy.DeployRedPlane(rp_nat, rp_config);
  }
  deploy.AnycastToAgg(kNatIp, 0);

  if (obs != nullptr && mode == Mode::kFailureRedPlane) {
    obs->AttachTracer(sim);
    obs->Watch(deploy.redplane(0)->stats());
    obs->Watch(deploy.redplane(1)->stats());
    for (auto* server : tb.store) obs->Watch(server->counters());
    obs->StartSampling(sim, obs->metrics_period(), kEnd);
  }

  // Recovery forensics: the episode tracker subscribes to the record
  // stream (fault injected, routes rebuilt, lease re-acquired, first
  // output), which replaces the old "first bucket above 50% goodput"
  // recovery estimate with a causal phase decomposition.  The stream is
  // the ObsSession's tracer, or the bench-local one whose ring stays
  // disabled.
  obs::Tracer* bus = nullptr;
  std::uint64_t subscription = 0;
  obs::MetricRegistry wheel_reg("wheel");
  obs::MetricsHub fleet_hub;
  std::unique_ptr<obs::FleetSampler> fleet;
  if (tracker != nullptr && mode == Mode::kFailureRedPlane) {
    bus = obs != nullptr ? &obs->tracer() : &local_tracer;
    if (obs == nullptr) sim.AttachTracer(local_tracer);
    subscription = bus->Subscribe(
        [tracker](const obs::TraceRecord& r) { tracker->OnRecord(r); });
    if (!fleet_out.empty()) {
      // Continuous fleet telemetry: per-second goodput / lease churn /
      // replication rates plus wheel and SoA-table occupancy, one CSV row
      // per second of the 60 s timeline.
      for (int l = 0; l <= sim::TimerWheel::kLevels; ++l) {
        const std::string gauge_name =
            l == sim::TimerWheel::kLevels ? "overflow"
                                          : "level" + std::to_string(l);
        wheel_reg.AddCallbackGauge(gauge_name, [&sim, l] {
          return static_cast<double>(
              sim.wheel().CountPerLevel()[static_cast<std::size_t>(l)]);
        });
      }
      fleet_hub.Register(&deploy.redplane(0)->stats());
      fleet_hub.Register(&deploy.redplane(1)->stats());
      for (auto* server : tb.store) fleet_hub.Register(&server->counters());
      fleet_hub.Register(&wheel_reg);
      fleet = std::make_unique<obs::FleetSampler>(&fleet_hub);
      for (SimTime t = 0; t <= kEnd; t += Seconds(1)) {
        sim.ScheduleAt(t, [&sim, sampler = fleet.get()] {
          sampler->Sample(sim.Now());
        });
      }
    }
  }

  // TCP endpoints: sender inside rack 0, receiver outside the DC.
  auto* sender = tb.network->AddNode<tcp::TcpSenderNode>(
      "iperf-c", net::Ipv4Addr(192, 168, 10, 50));
  auto* receiver = tb.network->AddNode<tcp::TcpReceiverNode>(
      "iperf-s", net::Ipv4Addr(10, 0, 0, 50), 5001, Seconds(1));
  tb.network->Connect(sender, 0, tb.tor[0], 6, config.host_link);
  tb.network->Connect(receiver, 0, tb.core, 8, config.host_link);
  tb.fabric->AssignAddress(sender, sender->ip());
  tb.fabric->AssignAddress(receiver, receiver->ip());
  tb.fabric->RecomputeNow();

  routing::FailureInjector injector(sim, *tb.fabric);
  if (mode != Mode::kBaseline) {
    sim.ScheduleAt(kFailAt, [&]() {
      injector.FailNode(tb.agg[0]);
      // Anycast re-advertisement of the NAT address to the survivor.
      tb.fabric->AssignAddress(tb.agg[1], kNatIp);
    });
    sim.ScheduleAt(kRecoverAt, [&]() {
      injector.RecoverNode(tb.agg[0]);
      // agg0 re-advertises; flows hash back across both paths.
      tb.fabric->AssignAddress(tb.agg[0], kNatIp);
    });
  }

  sender->Start({sender->ip(), receiver->ip(), 40000, 5001,
                 net::IpProto::kTcp});
  sim.RunUntil(kEnd);
  if (obs != nullptr && mode == Mode::kFailureRedPlane) {
    obs->SampleOnce(sim.Now());
    obs->UnwatchAll();
  }
  if (tracker != nullptr && mode == Mode::kFailureRedPlane) {
    bus->Unsubscribe(subscription);
    tracker->Finalize(sim.Now());
    if (fleet != nullptr && !fleet_out.empty()) {
      std::ofstream csv(fleet_out);
      fleet->WriteCsv(csv);
      std::printf("fleet time-series: %zu samples -> %s\n",
                  fleet->NumSamples(), fleet_out.c_str());
    }
  }

  std::vector<double> gbps;
  for (std::size_t s = 0; s < static_cast<std::size_t>(kEnd / Seconds(1));
       ++s) {
    gbps.push_back(receiver->goodput().BucketSum(s) * 8.0 / 1e9);
  }
  return gbps;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string fleet_out = TakeFlag(argc, argv, "fleet-out");
  ObsSession obs(argc, argv);
  std::printf("=== Fig. 14: TCP throughput across switch failure/recovery "
              "===\n");
  std::printf("(1 Gbps fabric; failure at t=15 s, recovery at t=40 s; "
              "1 s buckets)\n\n");
  ObsSession* obs_ptr = obs.enabled() ? &obs : nullptr;
  const auto baseline = RunTimeline(Mode::kBaseline);
  const auto failure = RunTimeline(Mode::kFailureNoRedPlane);
  obs::RecoveryTracker tracker(obs.enabled() ? &obs.tracer() : nullptr);
  const auto redplane =
      RunTimeline(Mode::kFailureRedPlane, obs_ptr, &tracker, fleet_out);

  TablePrinter table({"t (s)", "Baseline (Gbps)", "Failure (Gbps)",
                      "Failure+RedPlane (Gbps)"});
  for (std::size_t s = 0; s < baseline.size(); ++s) {
    table.Row({std::to_string(s), FormatDouble(baseline[s], 2),
               FormatDouble(failure[s], 2), FormatDouble(redplane[s], 2)});
  }

  // Recovery decomposition from the recorded episode: fault injection to
  // first packet served, split into causally ordered phases.
  std::printf("\n=== RedPlane recovery decomposition ===\n");
  std::ostringstream timeline;
  tracker.PrintTimeline(timeline);
  std::fputs(timeline.str().c_str(), stdout);
  if (!tracker.episodes().empty() && tracker.episodes().front().complete) {
    const obs::RecoveryEpisode& e = tracker.episodes().front();
    const double measured_ms = static_cast<double>(e.Downtime()) / 1e6;
    const double model_ms =
        static_cast<double>(kDetectionDelay + kLeasePeriod) / 1e6;
    const double detect_ms = static_cast<double>(kDetectionDelay) / 1e6;
    std::printf(
        "\nmeasured downtime %.1f ms vs model bound %.0f ms (failure "
        "detection %.0f ms + lease period %.0f ms): %s\n",
        measured_ms, model_ms, detect_ms,
        static_cast<double>(kLeasePeriod) / 1e6,
        measured_ms >= detect_ms && measured_ms <= model_ms
            ? "within the paper's detection+lease window"
            : "OUTSIDE the detection+lease window");
  }
  std::printf("Without RedPlane the connection never recovers "
              "(NAT identity lost).\n");
  obs.Finish();
  return 0;
}
