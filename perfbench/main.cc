// perfbench: runs one workload of the end-to-end host-time benchmark.
//
//   perfbench --workload sync_write|nat_churn|fuzz_audited --seed N
//             --seconds S --trace 0|1 --out-dir DIR [--size N]
//
// Repeats the workload's fixed-size batch until S seconds have passed and
// prints one JSON object on its last line: the correctness verdict, the
// batch digest, and every metric it measured.  With --trace 1 the first half
// of the budget runs untraced (end-to-end figures and exact counts) and the
// second half runs with the profiler armed and the benchmark's wrappers
// installed (per-layer self times); the traced batches must reproduce the
// untraced digest and counts exactly.  The traced run also writes
// DIR/<workload>.profile.json (the profiler's export format, readable by
// `rpreport --profile`) and DIR/<workload>.layers.json.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"
#include "perfbench/perfbench.h"

namespace redplane::perfbench {

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::uint64_t size = 0;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::string(value) == "1";
    } else if (flag == "--size") {
      a.size = std::strtoull(value, nullptr, 10);
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && !a.out_dir.empty() &&
         a.seconds > 0;
}

using BatchFn = Batch (*)(const BatchOptions&);

/// Runs batches until `budget_s` has passed (at least one batch).
std::vector<Batch> RunBatches(BatchFn run, const BatchOptions& opt,
                              double budget_s) {
  std::vector<Batch> batches;
  const double start = WallSeconds();
  do {
    batches.push_back(run(opt));
    if (!batches.back().error.empty()) break;
  } while (WallSeconds() - start < budget_s);
  return batches;
}

/// Empty when every batch passed its checks and reproduced the first.
std::string Verify(const std::vector<Batch>& batches) {
  for (const Batch& b : batches) {
    if (!b.error.empty()) return b.error;
    if (b.digest != batches[0].digest || b.values != batches[0].values) {
      return "batches of one run differ in their simulated results";
    }
  }
  return {};
}

double PktsPerSecond(const std::vector<Batch>& batches) {
  std::vector<double> v;
  for (const Batch& b : batches) {
    v.push_back(static_cast<double>(b.packets) / std::max(b.measured_s, 1e-9));
  }
  return Median(v);
}

/// Layer of a profiler site, by the site-name prefix each layer uses.
struct LayerSites {
  const char* metric;
  std::vector<const char*> prefixes;
};

const std::vector<LayerSites>& Layers() {
  static const std::vector<LayerSites> kLayers = {
      {"sim.dispatch_self_ns_per_pkt", {"sim.dispatch"}},
      {"routing.ecmp_ns_per_pkt", {"routing."}},
      {"core.self_ns_per_pkt", {"switch."}},
      {"net.codec_ns_per_pkt", {"net."}},
      {"statestore.ns_per_pkt", {"store.", "chain_mgr."}},
      {"apps.process_ns_per_pkt", {"apps."}},
      {"audit.publish_ns_per_pkt", {"audit."}},
      {"campaign.self_ns_per_pkt", {"campaign."}},
      {"bench.source_ns_per_pkt", {"bench.source"}},
      {"bench.sink_ns_per_pkt", {"bench.sink"}},
  };
  return kLayers;
}

/// Per-layer self times from the traced batches' profile.
void Attribute(const obs::Profiler& profiler, const std::vector<Batch>& traced,
               std::map<std::string, double>& m) {
  double pkts = 0, window_ns = 0;
  for (const Batch& b : traced) {
    pkts += static_cast<double>(b.packets);
    window_ns += b.measured_s * 1e9;
  }
  pkts = std::max(pkts, 1.0);
  double dispatch_self = 0, dispatch_count = 0, attributed = 0;
  for (const LayerSites& layer : Layers()) m[layer.metric] = 0;
  for (const obs::ProfSiteTotal& site : profiler.SiteTotals()) {
    attributed += static_cast<double>(site.self_ns);
    if (site.name == "sim.dispatch") {
      dispatch_self = static_cast<double>(site.self_ns);
      dispatch_count = static_cast<double>(site.count);
    }
    for (const LayerSites& layer : Layers()) {
      for (const char* prefix : layer.prefixes) {
        if (site.name.rfind(prefix, 0) == 0) {
          m[layer.metric] += static_cast<double>(site.self_ns) / pkts;
        }
      }
    }
  }
  m["sim.unattributed_pct"] = 100.0 * dispatch_self / std::max(window_ns, 1.0);
  // Time outside every site: the event loop's heap and timer-wheel work
  // between dispatches (zero-ish for the fuzz workload, whose loop runs
  // inside the campaign.schedule site).
  m["sim.loop_ns_per_pkt"] = std::max(window_ns - attributed, 0.0) / pkts;
  // Workloads without simulator access (the campaign runner owns its
  // Simulator) count events as profiled dispatches.
  m.emplace("sim.events_per_pkt", dispatch_count / pkts);
}

void WriteLayersJson(const std::string& path, const std::string& workload,
                     const std::map<std::string, double>& metrics) {
  std::ofstream os(path);
  os << "{\"workload\": \"" << obs::JsonEscape(workload)
     << "\", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    os << (first ? "" : ", ") << "\"" << obs::JsonEscape(name)
       << "\": " << obs::JsonNumber(value);
    first = false;
  }
  os << "}}\n";
}

}  // namespace
}  // namespace redplane::perfbench

int main(int argc, char** argv) {
  using namespace redplane::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --out-dir DIR [--size N]\n");
    return 2;
  }
  BatchFn run = nullptr;
  if (args.workload == "sync_write") {
    run = RunSyncWriteBatch;
  } else if (args.workload == "nat_churn") {
    run = RunNatChurnBatch;
  } else if (args.workload == "fuzz_audited") {
    run = RunFuzzAuditedBatch;
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.out_dir);

  BatchOptions opt;
  opt.seed = args.seed;
  opt.size = args.size;
  opt.out_dir = args.out_dir;
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const std::vector<Batch> plain = RunBatches(run, opt, budget);
  std::string error = Verify(plain);

  redplane::obs::Profiler profiler;
  std::vector<Batch> traced;
  if (args.trace && error.empty()) {
    redplane::obs::SetGlobalProfiler(&profiler);
    opt.profiler = &profiler;
    traced = RunBatches(run, opt, budget);
    redplane::obs::SetGlobalProfiler(nullptr);
    error = Verify(traced);
    if (error.empty() && traced[0].digest != plain[0].digest) {
      error = "the traced run's digest differs from the untraced run's";
    }
    for (const auto& [name, value] : plain[0].values) {
      if (!error.empty()) break;
      auto it = traced[0].values.find(name);
      if (it == traced[0].values.end() || it->second != value) {
        error = "the traced run changed " + name;
      }
    }
  }

  const Batch& first = plain[0];
  std::map<std::string, double> m;
  if (error.empty()) {
    m = first.values;
    std::map<std::string, std::vector<double>> host;
    std::vector<double> setup;
    for (const Batch& b : plain) {
      setup.push_back(b.setup_s);
      for (const auto& [name, value] : b.host) host[name].push_back(value);
    }
    for (auto& [name, values] : host) m[name] = Median(values);
    m["setup_s"] = Median(setup);
    m["pkts_per_s"] = PktsPerSecond(plain);
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    m["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
    if (args.trace) {
      for (const auto& [name, value] : traced[0].values) m.emplace(name, value);
      Attribute(profiler, traced, m);
      m["bench.trace_overhead_pct"] =
          100.0 * (m["pkts_per_s"] / std::max(PktsPerSecond(traced), 1e-9) -
                   1.0);
      const std::string stem = args.out_dir + "/" + args.workload;
      std::ofstream profile(stem + ".profile.json");
      profiler.WriteJson(profile);
      WriteLayersJson(stem + ".layers.json", args.workload, m);
    }
  }

  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"correct\": %s, \"error\": \"%s\", \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"digest\": \"%016" PRIx64
              "\", \"batches\": %zu, \"traced_batches\": %zu"
              ", \"packets\": %" PRIu64 ", ",
              args.workload.c_str(), args.seed,
              error.empty() ? "true" : "false",
              redplane::obs::JsonEscape(error).c_str(), first.ops,
              first.failed_ops, first.digest, plain.size(), traced.size(),
              first.packets);
  // Per-batch host rates, for judging the run's own spread.
  std::printf("\"batch_pkts_per_s\": [");
  for (std::size_t i = 0; i < plain.size(); ++i) {
    const double rate =
        static_cast<double>(plain[i].packets) / plain[i].measured_s;
    std::printf("%s%s", i ? ", " : "",
                redplane::obs::JsonNumber(rate).c_str());
  }
  std::printf("], \"metrics\": {");
  bool sep = false;
  for (const auto& [name, value] : m) {
    std::printf("%s\"%s\": %s", sep ? ", " : "", name.c_str(),
                redplane::obs::JsonNumber(value).c_str());
    sep = true;
  }
  std::printf("}}\n");
  return error.empty() ? 0 : 1;
}
