// Shared experiment harness for the paper-reproduction benches.
//
// Provides the pieces every figure needs: the testbed with a chosen
// application deployment, round-trip latency probing (a probe host stamps
// its send time into the payload; an echo host reflects the packet; the
// probe computes the RTT on return — timestamps survive RedPlane's
// piggybacking because payload bytes do), trace replay, and tabular output
// helpers that print the series each figure plots.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/counter.h"
#include "apps/epc_sgw.h"
#include "apps/firewall.h"
#include "apps/heavy_hitter.h"
#include "apps/kv_store.h"
#include "apps/load_balancer.h"
#include "apps/nat.h"
#include "baselines/controller_ft.h"
#include "baselines/plain_pipeline.h"
#include "baselines/server_nf.h"
#include "common/stats.h"
#include "core/redplane_switch.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/tracer.h"
#include "routing/failure.h"
#include "routing/topology.h"
#include "trace/workload.h"

namespace redplane::bench {

/// Addressing constants shared by the experiments.
inline constexpr net::Ipv4Addr kInternalPrefix{192, 168, 0, 0};
inline constexpr std::uint32_t kInternalMask = 0xffff0000;
inline constexpr net::Ipv4Addr kNatIp{100, 100, 0, 1};
inline constexpr net::Ipv4Addr kVip{100, 100, 0, 2};

/// A testbed plus one application deployed on the aggregation switches.
/// Owns every heap object an experiment needs.
class Deployment {
 public:
  Deployment();
  ~Deployment();

  sim::Simulator& sim() { return sim_; }
  routing::Testbed& testbed() { return *testbed_; }
  core::RedPlaneSwitch* redplane(int i) { return redplane_[i].get(); }
  baselines::PlainAppPipeline* plain(int i) { return plain_[i].get(); }

  /// Rebuilds the testbed with `store_config` merged in.
  void Build(routing::TestbedConfig config = {});

  /// Deploys `app` RedPlane-enabled on both aggregation switches and hands
  /// the resolved consistency spec to every store.
  void DeployRedPlane(core::SwitchApp& app, core::RedPlaneConfig config = {});

  /// Deploys `app` without fault tolerance (per-switch local state).
  void DeployPlain(core::SwitchApp& app,
                   std::function<std::vector<std::byte>(
                       const net::PartitionKey&)> initializer = nullptr);

  /// Assigns an application-terminated address (NAT IP, VIP) to agg
  /// switch `i` and recomputes routes.
  void AnycastToAgg(net::Ipv4Addr ip, int i);

 private:
  sim::Simulator sim_;
  std::unique_ptr<routing::Testbed> testbed_;
  std::array<std::unique_ptr<core::RedPlaneSwitch>, 2> redplane_;
  std::array<std::unique_ptr<baselines::PlainAppPipeline>, 2> plain_;
};

/// Round-trip probing: stamps send time into payload; the echo side calls
/// MakeEchoHandler; the probe side records RTTs into `rtt_us`.
class RttProbe {
 public:
  /// Installs the probe receive handler on `probe_host`.
  explicit RttProbe(sim::HostNode* probe_host);

  /// Sends one probe packet for `flow` with `pad` extra bytes.
  void Send(const net::FlowKey& flow, std::uint32_t pad = 40);

  /// Sends a pre-built packet after stamping the timestamp (the packet's
  /// payload is overwritten).
  void SendPacket(net::Packet pkt);

  SampleSet& rtt_us() { return rtt_us_; }
  std::size_t sent() const { return sent_; }
  std::size_t received() const { return received_; }

 private:
  sim::HostNode* host_;
  SampleSet rtt_us_;
  std::size_t sent_ = 0;
  std::size_t received_ = 0;
};

/// Echo handler: reflects any UDP/TCP packet back to its source,
/// preserving the payload (and therefore the probe timestamp).
void InstallEcho(sim::HostNode* host);

/// Prints "name: p50=... p90=... p99=..." and optionally a CDF block.
void PrintLatencySummary(const std::string& name, const SampleSet& samples);
void PrintCdf(const std::string& name, const SampleSet& samples,
              std::size_t points = 20);

/// Rewrites a trace so that new flows are introduced at most once per
/// `min_gap` of trace time (packets of not-yet-introduced flows are remapped
/// onto already-active ones).  Real traces have steady flow churn; synthetic
/// mixes introduce every flow in an initial burst, which overloads the
/// control-plane install queue in a way no production trace does.
void ShapeFlowChurn(std::vector<trace::TracePacket>& packets,
                    SimDuration min_gap);

/// Observability session for benches: owns a Tracer, a MetricsHub, a
/// time-series log and a Profiler, driven by command-line flags (both
/// `--flag=value` and `--flag value` forms):
///   --trace-out=FILE     Chrome-trace event dump + per-phase breakdown
///   --metrics-out=FILE   periodic metric snapshots (JSON)
///   --metrics-every=DUR  snapshot period (e.g. 50us, 10ms, 1s; default
///                        100ms)
///   --spans-out=FILE     per-request span trees reconstructed from the
///                        trace (implies tracing; see obs/spans.h)
///   --profile-out=FILE   wall-clock subsystem profile: JSON to FILE plus
///                        collapsed stacks to FILE.folded
/// When no flag is given the session is inert and adds no overhead.
///
/// Lifecycle per experiment run:
///   AttachTracer(sim)  — attach the tracer to the simulator, which detaches
///                        it when destroyed, and enable recording
///   Watch(registry)    — include a component's metrics in snapshots
///   StartSampling(...) — pre-schedule periodic MetricsHub snapshots up to a
///                        bounded horizon (the simulator runs until its
///                        queue drains, so sampling must not self-reschedule)
///   SampleOnce(t)      — take one extra snapshot (e.g. after sim.Run())
///   UnwatchAll()       — BEFORE the watched components are destroyed (the
///                        hub holds non-owning pointers)
///   Finish()           — write the trace / metrics JSON files and print the
///                        per-phase latency breakdown
class ObsSession {
 public:
  /// Parses and removes the observability flags from argv.
  ObsSession(int& argc, char** argv);
  ~ObsSession();

  bool trace_enabled() const { return !trace_path_.empty(); }
  bool metrics_enabled() const { return !metrics_path_.empty(); }
  bool spans_enabled() const { return !spans_path_.empty(); }
  bool profile_enabled() const { return !profile_path_.empty(); }
  bool enabled() const {
    return trace_enabled() || metrics_enabled() || spans_enabled() ||
           profile_enabled();
  }

  /// Snapshot period for StartSampling (from --metrics-every; 100ms default).
  SimDuration metrics_period() const { return metrics_period_; }

  void AttachTracer(sim::Simulator& sim);

  void Watch(const obs::MetricRegistry& registry);
  void UnwatchAll();

  /// Pre-schedules snapshots at `period` intervals in (0, horizon].
  void StartSampling(sim::Simulator& sim, SimDuration period, SimTime horizon);
  void SampleOnce(SimTime t);

  /// Writes the output files and prints the phase breakdown; idempotent.
  void Finish();

  obs::Tracer& tracer() { return tracer_; }

 private:
  std::string trace_path_;
  std::string metrics_path_;
  std::string spans_path_;
  std::string profile_path_;
  SimDuration metrics_period_ = Milliseconds(100);
  obs::Tracer tracer_;
  obs::MetricsHub hub_;
  obs::TimeSeriesLog series_;
  obs::Profiler profiler_;
  obs::Profiler* prev_profiler_ = nullptr;
  bool profiler_installed_ = false;
  bool finished_ = false;
};

/// Consumes `--<flag>=value` or `--<flag> value` from argv; returns the
/// value (empty when absent).  Benches use this for their own axes (e.g.
/// `--flows`) before handing the remaining argv to ObsSession.
std::string TakeFlag(int& argc, char** argv, const std::string& flag);

/// Markdown-ish table printer.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void Row(const std::vector<std::string>& cells);

 private:
  std::vector<std::size_t> widths_;
};

}  // namespace redplane::bench
