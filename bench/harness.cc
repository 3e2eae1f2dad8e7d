#include "harness.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <unordered_set>

#include "net/codec.h"
#include "obs/spans.h"

namespace redplane::bench {

Deployment::Deployment() = default;
Deployment::~Deployment() = default;

void Deployment::Build(routing::TestbedConfig config) {
  testbed_ = std::make_unique<routing::Testbed>(
      routing::BuildTestbed(sim_, config));
}

void Deployment::DeployRedPlane(core::SwitchApp& app,
                                core::RedPlaneConfig config) {
  auto shard_for = [this](const net::PartitionKey&) {
    return testbed_->StoreHeadIp();
  };
  for (int i = 0; i < 2; ++i) {
    redplane_[i] = std::make_unique<core::RedPlaneSwitch>(
        *testbed_->agg[i], app, shard_for, config);
    testbed_->agg[i]->SetPipeline(redplane_[i].get());
  }
  for (store::StateStoreServer* server : testbed_->store) {
    server->SetSpec(redplane_[0]->spec());
  }
}

void Deployment::DeployPlain(
    core::SwitchApp& app,
    std::function<std::vector<std::byte>(const net::PartitionKey&)>
        initializer) {
  for (int i = 0; i < 2; ++i) {
    plain_[i] = std::make_unique<baselines::PlainAppPipeline>(
        *testbed_->agg[i], app, initializer);
    testbed_->agg[i]->SetPipeline(plain_[i].get());
  }
}

void Deployment::AnycastToAgg(net::Ipv4Addr ip, int i) {
  testbed_->fabric->AssignAddress(testbed_->agg[i], ip);
  testbed_->fabric->RecomputeNow();
}

RttProbe::RttProbe(sim::HostNode* probe_host) : host_(probe_host) {
  host_->SetHandler([this](sim::HostNode&, net::Packet pkt) {
    if (pkt.payload.size() < 8) return;
    net::ByteReader r(pkt.payload);
    const auto sent_at = static_cast<SimTime>(r.U64());
    const SimTime now = host_->sim().Now();
    if (now >= sent_at) {
      rtt_us_.Add(ToMicroseconds(now - sent_at));
      ++received_;
    }
  });
}

void RttProbe::Send(const net::FlowKey& flow, std::uint32_t pad) {
  SendPacket(net::MakeUdpPacket(flow, pad));
}

void RttProbe::SendPacket(net::Packet pkt) {
  std::vector<std::byte> buf;
  net::ByteWriter w(buf);
  w.U64(static_cast<std::uint64_t>(host_->sim().Now()));
  pkt.payload = std::move(buf);
  ++sent_;
  host_->Send(std::move(pkt));
}

void InstallEcho(sim::HostNode* host) {
  host->SetHandler([](sim::HostNode& self, net::Packet pkt) {
    auto flow = pkt.Flow();
    if (!flow.has_value()) return;
    net::Packet reply;
    if (pkt.tcp.has_value()) {
      reply = net::MakeTcpPacket(flow->Reversed(), net::TcpFlags::kAck, 0, 0,
                                 pkt.pad_bytes);
    } else {
      reply = net::MakeUdpPacket(flow->Reversed(), pkt.pad_bytes);
    }
    reply.payload = pkt.payload;  // timestamp rides back
    self.Send(std::move(reply));
  });
}

void PrintLatencySummary(const std::string& name, const SampleSet& samples) {
  if (samples.Empty()) {
    std::printf("%-28s  (no samples)\n", name.c_str());
    return;
  }
  std::printf("%-28s  p50=%8.1f us  p90=%8.1f us  p99=%8.1f us  (n=%zu)\n",
              name.c_str(), samples.Percentile(50), samples.Percentile(90),
              samples.Percentile(99), samples.Count());
}

void PrintCdf(const std::string& name, const SampleSet& samples,
              std::size_t points) {
  if (samples.Empty()) return;
  std::printf("  CDF %s:", name.c_str());
  for (const auto& [value, frac] : samples.Cdf(points)) {
    std::printf(" (%.1f,%.2f)", value, frac);
  }
  std::printf("\n");
}

void ShapeFlowChurn(std::vector<trace::TracePacket>& packets,
                    SimDuration min_gap) {
  std::vector<net::FlowKey> active;
  std::unordered_set<net::FlowKey> seen;
  SimTime last_intro = -min_gap;
  std::size_t reuse_cursor = 0;
  for (auto& pkt : packets) {
    if (seen.contains(pkt.flow)) continue;
    if (pkt.time - last_intro >= min_gap || active.empty()) {
      seen.insert(pkt.flow);
      active.push_back(pkt.flow);
      last_intro = pkt.time;
    } else {
      pkt.flow = active[reuse_cursor++ % active.size()];
    }
  }
}

TablePrinter::TablePrinter(std::vector<std::string> headers) {
  for (std::size_t i = 0; i < headers.size(); ++i) {
    widths_.push_back(std::max<std::size_t>(headers[i].size() + 2,
                                            i == 0 ? 34 : 16));
  }
  for (std::size_t i = 0; i < headers.size(); ++i) {
    std::printf("%-*s", static_cast<int>(widths_[i]), headers[i].c_str());
  }
  std::printf("\n");
  std::size_t total = 0;
  for (auto w : widths_) total += w;
  for (std::size_t i = 0; i < total; ++i) std::printf("-");
  std::printf("\n");
}

void TablePrinter::Row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::size_t w = i < widths_.size() ? widths_[i] : 16;
    if (cells[i].size() + 1 > w) w = cells[i].size() + 1;
    std::printf("%-*s", static_cast<int>(w), cells[i].c_str());
  }
  std::printf("\n");
}

std::string TakeFlag(int& argc, char** argv, const std::string& flag) {
  const std::string prefix = "--" + flag + "=";
  const std::string bare = "--" + flag;
  std::string value;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      value = arg.substr(prefix.size());
      continue;
    }
    if (arg == bare && i + 1 < argc) {
      value = argv[++i];
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  return value;
}

namespace {

/// Parses "100us" / "10ms" / "1s" (also bare nanoseconds); 0 on failure.
SimDuration ParseDurationFlag(const std::string& text) {
  if (text.empty()) return 0;
  std::size_t pos = 0;
  long long n = 0;
  try {
    n = std::stoll(text, &pos);
  } catch (...) {
    return 0;
  }
  if (n < 0) return 0;
  const std::string unit = text.substr(pos);
  if (unit == "us") return Microseconds(n);
  if (unit == "ms") return Milliseconds(n);
  if (unit == "s") return Seconds(n);
  if (unit.empty() || unit == "ns") return n;
  return 0;
}

}  // namespace

ObsSession::ObsSession(int& argc, char** argv) : tracer_(1u << 18) {
  trace_path_ = TakeFlag(argc, argv, "trace-out");
  metrics_path_ = TakeFlag(argc, argv, "metrics-out");
  spans_path_ = TakeFlag(argc, argv, "spans-out");
  profile_path_ = TakeFlag(argc, argv, "profile-out");
  const std::string every = TakeFlag(argc, argv, "metrics-every");
  if (!every.empty()) {
    const SimDuration period = ParseDurationFlag(every);
    if (period > 0) {
      metrics_period_ = period;
    } else {
      std::fprintf(stderr, "[obs] ignoring unparsable --metrics-every=%s\n",
                   every.c_str());
    }
  }
  if (profile_enabled()) {
    // Wall-clock profiling is independent of the simulator; arm it for the
    // whole process lifetime so setup cost is attributed too.
    profiler_.SetEnabled(true);
    prev_profiler_ = obs::SetGlobalProfiler(&profiler_);
    profiler_installed_ = true;
  }
}

ObsSession::~ObsSession() {
  Finish();
  if (profiler_installed_) {
    profiler_.SetEnabled(false);
    obs::SetGlobalProfiler(prev_profiler_);
    prev_profiler_ = nullptr;
    profiler_installed_ = false;
  }
}

void ObsSession::AttachTracer(sim::Simulator& sim) {
  if (!enabled()) return;
  sim.AttachTracer(tracer_);
  tracer_.SetEnabled(trace_enabled() || spans_enabled());
}

void ObsSession::Watch(const obs::MetricRegistry& registry) {
  if (!metrics_enabled()) return;
  hub_.Register(&registry);
}

void ObsSession::UnwatchAll() { hub_.Clear(); }

void ObsSession::StartSampling(sim::Simulator& sim, SimDuration period,
                               SimTime horizon) {
  if (!metrics_enabled() || period <= 0) return;
  // The simulator runs until its queue drains, so a self-rescheduling
  // sampler would never let it terminate; pre-schedule a bounded horizon.
  for (SimTime t = period; t <= horizon; t += period) {
    sim.ScheduleAt(t, [this, &sim]() { SampleOnce(sim.Now()); });
  }
}

void ObsSession::SampleOnce(SimTime t) {
  if (!metrics_enabled()) return;
  series_.Append(hub_.Snapshot(t));
}

void ObsSession::Finish() {
  if (finished_) return;
  finished_ = true;
  if (trace_enabled()) {
    std::ofstream os(trace_path_);
    tracer_.WriteChromeTrace(os);
    os.flush();
    if (os) {
      std::printf("\n[obs] wrote %zu trace events (%llu evicted) to %s\n",
                  tracer_.size(),
                  static_cast<unsigned long long>(tracer_.evicted()),
                  trace_path_.c_str());
    } else {
      std::fprintf(stderr, "[obs] ERROR: failed to write trace to %s\n",
                   trace_path_.c_str());
    }
    std::printf("[obs] per-phase latency breakdown:\n");
    tracer_.PrintBreakdown(std::cout);
  }
  if (metrics_enabled()) {
    std::ofstream os(metrics_path_);
    series_.WriteJson(os);
    os.flush();
    if (os) {
      std::printf("[obs] wrote %zu metric snapshots to %s\n", series_.Size(),
                  metrics_path_.c_str());
    } else {
      std::fprintf(stderr, "[obs] ERROR: failed to write metrics to %s\n",
                   metrics_path_.c_str());
    }
  }
  if (spans_enabled()) {
    const std::vector<obs::SpanTree> spans = obs::BuildSpanTrees(tracer_);
    std::ofstream os(spans_path_);
    obs::WriteSpansJson(os, spans);
    os.flush();
    if (os) {
      std::printf("[obs] wrote %zu request spans to %s\n", spans.size(),
                  spans_path_.c_str());
    } else {
      std::fprintf(stderr, "[obs] ERROR: failed to write spans to %s\n",
                   spans_path_.c_str());
    }
    std::printf("[obs] per-segment latency breakdown:\n");
    for (const obs::PhaseStats& ph : obs::SummarizeSegments(spans)) {
      std::printf("  %-28s n=%-8zu p50=%10.1f us  p99=%10.1f us\n",
                  ph.name.c_str(), ph.samples_us.Count(),
                  ph.samples_us.Percentile(50), ph.samples_us.Percentile(99));
    }
  }
  if (profile_enabled()) {
    std::ofstream os(profile_path_);
    profiler_.WriteJson(os);
    os.flush();
    const std::string folded_path = profile_path_ + ".folded";
    std::ofstream folded(folded_path);
    profiler_.WriteCollapsed(folded);
    folded.flush();
    if (os && folded) {
      std::printf("[obs] wrote profile (%zu call-path nodes) to %s (+.folded)\n",
                  profiler_.NumNodes(), profile_path_.c_str());
    } else {
      std::fprintf(stderr, "[obs] ERROR: failed to write profile to %s\n",
                   profile_path_.c_str());
    }
  }
}

}  // namespace redplane::bench
