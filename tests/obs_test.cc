// Tests for the observability layer (src/obs): tracer ring semantics, span
// ordering, histogram/percentile agreement with SampleSet, JSON validity,
// phase pairing, and end-to-end trace determinism on the full testbed.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/nat.h"
#include "bench/harness.h"
#include "common/logging.h"
#include "common/stats.h"
#include "net/flow.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/timeseries.h"
#include "obs/tracer.h"
#include "routing/topology.h"
#include "sim/simulator.h"

namespace redplane {
namespace {

using obs::Ev;
using obs::TraceFilter;
using obs::TraceRecord;
using obs::Tracer;

TEST(TracerTest, RingBufferEvictsOldest) {
  Tracer tracer(4);
  tracer.SetEnabled(true);
  const std::uint16_t comp = tracer.Intern("c");
  for (std::uint64_t i = 0; i < 10; ++i) {
    tracer.Emit(comp, Ev::kIngress, /*flow=*/1, /*seq=*/i);
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.capacity(), 4u);
  EXPECT_EQ(tracer.evicted(), 6u);
  const auto records = tracer.Records();
  ASSERT_EQ(records.size(), 4u);
  // Oldest-first, and only the newest four survive.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(records[i].seq, 6 + i);
    EXPECT_EQ(records[i].order, 6 + i);
  }
}

TEST(TracerTest, SpanOrderingPreservesEmissionOrderOnEqualTimestamps) {
  Tracer tracer;
  tracer.SetEnabled(true);
  SimTime now = 500;
  tracer.SetClock([&now]() { return now; });
  const std::uint16_t comp = tracer.Intern("c");
  tracer.Emit(comp, Ev::kIngress, 1, 1);
  tracer.Emit(comp, Ev::kLeaseMiss, 1, 1);
  tracer.Emit(comp, Ev::kReplicationSent, 1, 1);
  now = 900;
  tracer.Emit(comp, Ev::kAckReleased, 1, 1);
  const auto records = tracer.Records();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].t, 500);
  EXPECT_EQ(records[2].t, 500);
  EXPECT_EQ(records[3].t, 900);
  // Equal timestamps keep emission order via the order field.
  EXPECT_LT(records[0].order, records[1].order);
  EXPECT_LT(records[1].order, records[2].order);
  EXPECT_EQ(records[0].ev, Ev::kIngress);
  EXPECT_EQ(records[1].ev, Ev::kLeaseMiss);
  EXPECT_EQ(records[2].ev, Ev::kReplicationSent);
}

TEST(TracerTest, RoutesEachKindToItsSinks) {
  Tracer tracer;
  tracer.SetEnabled(true);
  std::vector<Ev> dispatched;
  tracer.Subscribe([&](const obs::TraceRecord& r) {
    dispatched.push_back(r.ev);
    EXPECT_EQ(r.aux, r.ev == Ev::kLeaseAcquired ? 9u : 0u);
  });
  const std::uint16_t comp = tracer.Intern("c");
  tracer.Emit(comp, Ev::kIngress, 1);                         // ring only
  tracer.Emit(comp, Ev::kLeaseAcquired, 1, 0, 0.0, 0, 0, 9);  // subscribers
  tracer.Emit(comp, Ev::kAckReleased, 1, 1);                  // both
  tracer.Emit(comp, Ev::kAckReleased, 1, 2, 0.0, 0, 0, 0, obs::kRing);
  ASSERT_EQ(tracer.size(), 3u);
  const auto records = tracer.Records();
  EXPECT_EQ(records[0].ev, Ev::kIngress);
  EXPECT_EQ(records[1].ev, Ev::kAckReleased);
  // Subscriber-only records take no ring emission index.
  EXPECT_EQ(records[1].order, 1u);
  EXPECT_EQ(tracer.emitted(), 3u);
  EXPECT_EQ(dispatched,
            (std::vector<Ev>{Ev::kLeaseAcquired, Ev::kAckReleased}));

  // With the ring disarmed, subscribers still see their kinds.
  tracer.SetEnabled(false);
  tracer.Emit(comp, Ev::kAckReleased, 1, 3);
  EXPECT_EQ(tracer.size(), 3u);
  EXPECT_EQ(dispatched.size(), 3u);
}

TEST(TracerTest, QueryFilterSelectsByFlowAndComponent) {
  Tracer tracer;
  tracer.SetEnabled(true);
  const std::uint16_t a = tracer.Intern("alpha");
  const std::uint16_t b = tracer.Intern("beta");
  tracer.Emit(a, Ev::kIngress, 1);
  tracer.Emit(b, Ev::kIngress, 1);
  tracer.Emit(a, Ev::kIngress, 2);
  TraceFilter by_flow;
  by_flow.flow = 1;
  EXPECT_EQ(tracer.Records(by_flow).size(), 2u);
  TraceFilter by_comp;
  by_comp.component = "alpha";
  EXPECT_EQ(tracer.Records(by_comp).size(), 2u);
  TraceFilter both;
  both.flow = 2;
  both.component = "beta";
  EXPECT_TRUE(tracer.Records(both).empty());
}

TEST(TracerTest, TraceHandleRevalidatesAfterReset) {
  Tracer tracer;
  tracer.SetEnabled(true);
  sim::Simulator sim;
  sim.AttachTracer(tracer);
  obs::TraceHandle handle(sim.tracer_slot(), "widget");
  EXPECT_TRUE(handle.armed(Ev::kIngress));
  handle.Emit(Ev::kIngress);
  tracer.Reset();  // drops names, bumps generation
  handle.Emit(Ev::kHostRecv);
  const auto records = tracer.Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(tracer.ComponentName(records[0].component), "widget");
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer;
  sim::Simulator sim;
  sim.AttachTracer(tracer);
  obs::TraceHandle handle(sim.tracer_slot(), "c");
  EXPECT_FALSE(handle.armed(Ev::kIngress));
  handle.Emit(Ev::kIngress, 1, 2, 3.0);
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(TracerTest, ChromeTraceExportIsValidJson) {
  Tracer tracer;
  tracer.SetEnabled(true);
  SimTime now = 0;
  tracer.SetClock([&now]() { return now; });
  const std::uint16_t comp = tracer.Intern("sw0/rp");
  for (int i = 0; i < 20; ++i) {
    now += 1337;
    tracer.Emit(comp, static_cast<Ev>(i % obs::kNumEvents),
                net::HashFlowKey({net::Ipv4Addr(10, 0, 0, 1),
                                  net::Ipv4Addr(10, 0, 0, 2),
                                  static_cast<std::uint16_t>(i), 80,
                                  net::IpProto::kUdp}),
                i, i * 1.5);
  }
  const std::string json = tracer.ChromeTraceJson();
  EXPECT_TRUE(obs::ValidateJson(json)) << json;
  // Spot-check shape: metadata names the component, events carry µs stamps.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("sw0/rp"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
}

TEST(TracerTest, LatencyBreakdownPairsBeginEndPerFlowSeq) {
  Tracer tracer;
  tracer.SetEnabled(true);
  SimTime now = 0;
  tracer.SetClock([&now]() { return now; });
  const std::uint16_t sw = tracer.Intern("sw");
  const std::uint16_t store = tracer.Intern("store");
  // One write lifecycle: sent at 1 µs, received at 3 µs, acked at 9 µs.
  now = 1000;
  tracer.Emit(sw, Ev::kReplicationSent, 5, 1);
  now = 3000;
  tracer.Emit(store, Ev::kStoreRecv, 5, 1);
  now = 9000;
  tracer.Emit(sw, Ev::kAckReleased, 5, 1);
  const auto phases = tracer.LatencyBreakdown();
  double rtt = -1, to_store = -1;
  for (const auto& phase : phases) {
    if (phase.name == "write_replication_rtt") rtt = phase.samples_us.Mean();
    if (phase.name == "switch_to_store") to_store = phase.samples_us.Mean();
  }
  EXPECT_DOUBLE_EQ(rtt, 8.0);
  EXPECT_DOUBLE_EQ(to_store, 2.0);
}

TEST(TracerTest, LatencyBreakdownDistinguishesGrantFromRehome) {
  Tracer tracer;
  tracer.SetEnabled(true);
  SimTime now = 0;
  tracer.SetClock([&now]() { return now; });
  const std::uint16_t sw = tracer.Intern("sw");
  // Flow 1: fresh lease (miss -> grant).  Flow 2: failover (miss -> rehome).
  now = 0;
  tracer.Emit(sw, Ev::kLeaseMiss, 1);
  now = 4000;
  tracer.Emit(sw, Ev::kLeaseGrant, 1);
  now = 10000;
  tracer.Emit(sw, Ev::kLeaseMiss, 2);
  now = 16000;
  tracer.Emit(sw, Ev::kFailoverRehome, 2);
  double acquire = -1, rehome = -1;
  for (const auto& phase : tracer.LatencyBreakdown()) {
    if (phase.name == "lease_acquire") acquire = phase.samples_us.Mean();
    if (phase.name == "failover_rehome") rehome = phase.samples_us.Mean();
  }
  EXPECT_DOUBLE_EQ(acquire, 4.0);
  EXPECT_DOUBLE_EQ(rehome, 6.0);
}

TEST(MetricsTest, HistogramPercentilesAgreeWithSampleSet) {
  obs::HistogramCell hist;
  SampleSet exact;
  // Deterministic log-uniform-ish values spanning several octaves.
  std::uint64_t lcg = 12345;
  for (int i = 0; i < 20000; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const double unit = static_cast<double>(lcg >> 11) / 9007199254740992.0;
    const double v = 1.0 + unit * unit * 5000.0;
    hist.Record(v);
    exact.Add(v);
  }
  for (double p : {10.0, 50.0, 90.0, 99.0}) {
    const double approx = hist.Percentile(p);
    const double truth = exact.Percentile(p);
    // Log-linear buckets (16/octave) guarantee ~4.4 % relative error.
    EXPECT_NEAR(approx, truth, truth * 0.10)
        << "p" << p << ": approx=" << approx << " exact=" << truth;
  }
  EXPECT_DOUBLE_EQ(hist.Percentile(0), exact.Min());
  EXPECT_DOUBLE_EQ(hist.Percentile(100), exact.Max());
}

TEST(MetricsTest, RegistryTypedAndStringApisShareCells) {
  obs::MetricRegistry registry("test");
  registry.Add("pkts");                      // string API first
  auto pkts = registry.RegisterCounter("pkts");  // typed handle, same cell
  pkts.Add(2);
  EXPECT_DOUBLE_EQ(registry.Get("pkts"), 3.0);
  // Kind mismatch yields an inert handle rather than corrupting the cell.
  auto wrong = registry.RegisterHistogram("pkts");
  wrong.Record(1.0);
  EXPECT_DOUBLE_EQ(registry.Get("pkts"), 3.0);
}

TEST(MetricsTest, RegistryResetZeroesButKeepsRegistrations) {
  obs::MetricRegistry registry("test");
  auto c = registry.RegisterCounter("c");
  auto h = registry.RegisterHistogram("h");
  c.Add(5);
  h.Record(1.0);
  registry.Reset();
  EXPECT_DOUBLE_EQ(registry.Get("c"), 0.0);
  EXPECT_EQ(h.Count(), 0u);
  c.Add();  // handles stay live after Reset
  EXPECT_DOUBLE_EQ(registry.Get("c"), 1.0);
}

TEST(MetricsTest, HubSnapshotPrefixesComponentAndSorts) {
  obs::MetricRegistry a("beta");
  obs::MetricRegistry b("alpha");
  a.Add("x", 1);
  b.Add("y", 2);
  b.AddCallbackGauge("z", []() { return 7.0; });
  obs::MetricsHub hub;
  hub.Register(&a);
  hub.Register(&b);
  const auto snap = hub.Snapshot(123);
  ASSERT_EQ(snap.values.size(), 3u);
  EXPECT_EQ(snap.values[0].name, "alpha.y");
  EXPECT_EQ(snap.values[1].name, "alpha.z");
  EXPECT_EQ(snap.values[2].name, "beta.x");
  EXPECT_DOUBLE_EQ(snap.values[1].value, 7.0);
  EXPECT_TRUE(obs::ValidateJson(snap.Json()));
}

TEST(MetricsTest, TimeSeriesJsonRoundTrips) {
  obs::MetricRegistry registry("comp");
  auto hist = registry.RegisterHistogram("lat_us");
  hist.Record(10);
  hist.Record(20);
  obs::MetricsHub hub;
  hub.Register(&registry);
  obs::TimeSeriesLog log;
  log.Append(hub.Snapshot(1000));
  registry.Add("ctr", 4);
  log.Append(hub.Snapshot(2000));
  EXPECT_EQ(log.Size(), 2u);
  const std::string json = log.Json();
  EXPECT_TRUE(obs::ValidateJson(json)) << json;
  EXPECT_NE(json.find("\"t_ns\": 1000"), std::string::npos);
  EXPECT_NE(json.find("comp.lat_us"), std::string::npos);
}

TEST(TracerTest, RingHealthGaugesTrackEvictionAndOrphans) {
  Tracer tracer(4);
  tracer.SetEnabled(true);
  const std::uint16_t comp = tracer.Intern("c");
  // Overflow the ring so some span begins are evicted while their ends
  // survive: each (begin, end) pair shares a seq; ring holds only 4 records.
  for (std::uint64_t i = 0; i < 6; ++i) {
    tracer.Emit(comp, Ev::kStoreRecv, /*flow=*/1, /*seq=*/i);
  }
  for (std::uint64_t i = 0; i < 6; ++i) {
    tracer.Emit(comp, Ev::kStoreApplied, /*flow=*/1, /*seq=*/i);
  }
  const auto& metrics = tracer.metrics();
  EXPECT_EQ(metrics.component(), "tracer");
  const auto snap = metrics.Snapshot(0);
  double evicted = -1, orphaned = -1, live = -1;
  for (const auto& v : snap.values) {
    if (v.name == "evicted_records") evicted = v.value;
    if (v.name == "orphaned_ends") orphaned = v.value;
    if (v.name == "live_records") live = v.value;
  }
  EXPECT_DOUBLE_EQ(evicted, 8.0);   // 12 emitted into a 4-slot ring
  EXPECT_DOUBLE_EQ(live, 4.0);
  // The surviving records are all kStoreApplied ends (seq 2..5) whose
  // kStoreRecv begins were evicted.
  EXPECT_DOUBLE_EQ(orphaned, 4.0);
  EXPECT_EQ(tracer.evicted(), 8u);
}

TEST(MetricsTest, HistogramCellMergeMatchesCombinedRecording) {
  obs::HistogramCell a, b, combined;
  std::uint64_t lcg = 99;
  for (int i = 0; i < 5000; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const double v = 0.5 + static_cast<double>(lcg >> 40) / 1000.0;
    (i % 2 ? a : b).Record(v);
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count, combined.count);
  EXPECT_DOUBLE_EQ(a.sum, combined.sum);
  EXPECT_DOUBLE_EQ(a.min, combined.min);
  EXPECT_DOUBLE_EQ(a.max, combined.max);
  for (double p : {1.0, 50.0, 99.0}) {
    EXPECT_DOUBLE_EQ(a.Percentile(p), combined.Percentile(p)) << "p" << p;
  }
}

TEST(MetricsTest, TimeSeriesCsvRoundTrips) {
  obs::MetricRegistry registry("shard");
  auto depth = registry.RegisterGauge("queue_depth");
  auto lat = registry.RegisterHistogram("lat_us");
  obs::MetricsHub hub;
  hub.Register(&registry);
  obs::TimeSeriesLog log;
  depth.Set(3);
  lat.Record(12.5);
  log.Append(hub.Snapshot(1000));
  depth.Set(7);
  lat.Record(20.0);
  log.Append(hub.Snapshot(2000));

  const std::string csv = log.Csv();
  auto parsed = obs::TimeSeriesLog::ParseCsv(csv);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->Size(), 2u);
  EXPECT_EQ(parsed->At(0).at, 1000);
  EXPECT_EQ(parsed->At(1).at, 2000);
  auto value_of = [](const obs::MetricsSnapshot& snap,
                     const std::string& name) {
    for (const auto& v : snap.values) {
      if (v.name == name) return v.value;
    }
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(value_of(parsed->At(0), "shard.queue_depth"), 3.0);
  EXPECT_DOUBLE_EQ(value_of(parsed->At(1), "shard.queue_depth"), 7.0);
  // Histograms export their count into CSV.
  EXPECT_DOUBLE_EQ(value_of(parsed->At(0), "shard.lat_us"), 1.0);
  EXPECT_DOUBLE_EQ(value_of(parsed->At(1), "shard.lat_us"), 2.0);
  EXPECT_FALSE(obs::TimeSeriesLog::ParseCsv("not,a\nvalid").has_value());
}

TEST(MetricsTest, FleetSamplerCsvMatchesGolden) {
  // Two registries, each with a counter, a gauge, a histogram and a
  // callback gauge; a counter registered through the string API after the
  // second sample.  The first sample has levels only (no rate baseline);
  // the late counter's column is empty until it exists.
  obs::MetricRegistry sw("sw0");
  obs::MetricRegistry store("store");
  auto pkts = sw.RegisterCounter("pkts");
  auto leases = sw.RegisterGauge("leases");
  auto rtt = sw.RegisterHistogram("rtt_us");
  double mirror = 3;
  sw.AddCallbackGauge("mirror_kb", [&mirror] { return mirror; });
  auto applied = store.RegisterCounter("applied");
  auto depth = store.RegisterGauge("queue_depth");
  auto service = store.RegisterHistogram("service_us");
  double flows = 10;
  store.AddCallbackGauge("flows", [&flows] { return flows; });
  obs::MetricsHub hub;
  hub.Register(&sw);
  hub.Register(&store);
  obs::FleetSampler fleet(&hub);

  pkts.Add(5);
  leases.Set(2);
  rtt.Record(12.5);
  applied.Add(1);
  depth.Set(4);
  fleet.Sample(0);
  pkts.Add(250);
  rtt.Record(30);
  rtt.Record(31);
  applied.Add(3);
  service.Record(7);
  mirror = 4.5;
  fleet.Sample(Milliseconds(250));
  sw.Add("retransmits", 2);
  pkts.Add(1);
  leases.Set(3);
  depth.Set(0);
  flows = 12;
  fleet.Sample(Milliseconds(1250));
  sw.Add("retransmits", 7);
  applied.Add(100);
  service.Record(8);
  service.Record(9);
  fleet.Sample(Milliseconds(1600));

  EXPECT_EQ(fleet.NumSamples(), 4u);
  EXPECT_EQ(fleet.Csv(),
            "t_ns,store.applied.per_sec,store.flows,store.queue_depth,"
            "store.service_us.per_sec,sw0.leases,sw0.mirror_kb,"
            "sw0.pkts.per_sec,sw0.retransmits.per_sec,sw0.rtt_us.per_sec\n"
            "0,,10,4,,2,3,,,\n"
            "250000000,12,10,4,4,2,4.5,1000,,8\n"
            "1250000000,0,12,0,0,3,4.5,1,2,0\n"
            "1600000000,285.714286,12,0,5.71428571,3,4.5,0,20,0\n");
}

TEST(MetricsTest, PeriodicHubSamplingUnderSimulatorIsDeterministic) {
  // The same shape ObsSession::StartSampling uses: a self-rescheduling sim
  // event snapshots the hub; timestamps must land exactly on the period grid.
  sim::Simulator sim;
  obs::MetricRegistry registry("comp");
  auto ctr = registry.RegisterCounter("events");
  obs::MetricsHub hub;
  hub.Register(&registry);
  obs::TimeSeriesLog log;

  const SimDuration period = Microseconds(10);
  std::function<void()> sample = [&]() {
    log.Append(hub.Snapshot(sim.Now()));
    if (sim.Now() < Microseconds(50)) {
      sim.ScheduleAt(sim.Now() + period, sample);
    }
  };
  sim.ScheduleAt(period, sample);
  for (int i = 0; i < 42; ++i) {
    sim.ScheduleAt(Microseconds(1) * (i + 1), [&ctr]() { ctr.Add(); });
  }
  sim.Run();

  ASSERT_EQ(log.Size(), 5u);
  for (std::size_t i = 0; i < log.Size(); ++i) {
    EXPECT_EQ(log.At(i).at, static_cast<SimTime>(period) *
                                static_cast<SimTime>(i + 1));
  }
  // Counter value at each snapshot is exact: 1 event per us, sampled every
  // 10 us.  At the 10 us tie the sampler fires first (it was scheduled
  // first; equal timestamps dispatch in scheduling order), so it sees 9.
  EXPECT_DOUBLE_EQ(log.At(0).values[0].value, 9.0);
  EXPECT_DOUBLE_EQ(log.At(4).values[0].value, 42.0);
}

// --- profiler ---------------------------------------------------------------

/// RAII guard for the process-global profiler.
struct GlobalProfilerGuard {
  explicit GlobalProfilerGuard(obs::Profiler* p)
      : prev(obs::SetGlobalProfiler(p)) {}
  ~GlobalProfilerGuard() { obs::SetGlobalProfiler(prev); }
  obs::Profiler* prev;
};

TEST(ProfilerTest, BuildsCallPathTreeWithPerPathNodes) {
  obs::Profiler profiler;
  profiler.SetEnabled(true);
  GlobalProfilerGuard guard(&profiler);
  obs::ProfSite outer("outer");
  obs::ProfSite inner("inner");
  {
    obs::ProfScope a(outer);
    { obs::ProfScope b(inner); }
    { obs::ProfScope c(inner); }
  }
  { obs::ProfScope d(inner); }  // same site, different path => new node
  ASSERT_EQ(profiler.NumNodes(), 3u);
  const auto& nodes = profiler.Nodes();
  EXPECT_EQ(profiler.SiteName(nodes[0].site), "outer");
  EXPECT_EQ(nodes[0].parent, -1);
  EXPECT_EQ(nodes[0].count, 1u);
  EXPECT_EQ(profiler.SiteName(nodes[1].site), "inner");
  EXPECT_EQ(nodes[1].parent, 0);
  EXPECT_EQ(nodes[1].count, 2u);  // both nested scopes share one node
  EXPECT_EQ(profiler.SiteName(nodes[2].site), "inner");
  EXPECT_EQ(nodes[2].parent, -1);
  // Totals telescope: the parent's total covers its children's.
  EXPECT_GE(nodes[0].total_ns, nodes[1].total_ns);
  EXPECT_EQ(profiler.SelfNs(0),
            nodes[0].total_ns - nodes[1].total_ns);
}

TEST(ProfilerTest, StrideSamplesOneInNAndScalesCounts) {
  obs::Profiler profiler;
  profiler.SetEnabled(true);
  GlobalProfilerGuard guard(&profiler);
  obs::ProfSite site("strided", /*stride=*/8);
  int sampled = 0;
  for (int i = 0; i < 64; ++i) {
    obs::ProfScope scope(site);
    sampled += scope.sampled() ? 1 : 0;
  }
  EXPECT_EQ(sampled, 8);  // 1 in 8 entries measured
  ASSERT_EQ(profiler.NumNodes(), 1u);
  // Counts are scaled back by the stride so totals stay unbiased.
  EXPECT_EQ(profiler.Nodes()[0].count, 64u);
}

TEST(ProfilerTest, DisarmedAndDisabledScopesRecordNothing) {
  obs::ProfSite site("idle");
  { obs::ProfScope scope(site); }  // no profiler installed
  obs::Profiler profiler;          // installed but not enabled
  GlobalProfilerGuard guard(&profiler);
  { obs::ProfScope scope(site); }
  EXPECT_EQ(profiler.NumNodes(), 0u);
  // Arming via SetEnabled takes effect on the already-installed profiler.
  profiler.SetEnabled(true);
  { obs::ProfScope scope(site); }
  EXPECT_EQ(profiler.NumNodes(), 1u);
  profiler.SetEnabled(false);
  { obs::ProfScope scope(site); }
  EXPECT_EQ(profiler.Nodes()[0].count, 1u);
}

TEST(ProfilerTest, ExportsValidJsonAndCollapsedStacks) {
  obs::Profiler profiler;
  profiler.SetEnabled(true);
  GlobalProfilerGuard guard(&profiler);
  obs::ProfSite outer("sim.dispatch");
  obs::ProfSite inner("store.process");
  {
    obs::ProfScope a(outer);
    obs::ProfScope b(inner);
  }
  const std::string json = profiler.Json();
  EXPECT_TRUE(obs::ValidateJson(json)) << json;
  auto doc = obs::ParseJson(json);
  ASSERT_TRUE(doc.has_value());
  const auto* sites = doc->Find("sites");
  ASSERT_NE(sites, nullptr);
  ASSERT_EQ(sites->array.size(), 2u);
  std::ostringstream collapsed;
  profiler.WriteCollapsed(collapsed);
  EXPECT_NE(collapsed.str().find("sim.dispatch;store.process "),
            std::string::npos)
      << collapsed.str();
  profiler.Reset();
  EXPECT_EQ(profiler.NumNodes(), 0u);
}

TEST(JsonTest, ParserRoundTripsExports) {
  auto doc = obs::ParseJson(
      "{\"a\": [1, 2.5, -3e2], \"b\": {\"c\": \"x\\ny\", \"d\": true}}");
  ASSERT_TRUE(doc.has_value());
  const auto* a = doc->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->IsArray());
  EXPECT_DOUBLE_EQ(a->array[2].number, -300.0);
  const auto* b = doc->Find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->StringOr("c", ""), "x\ny");
  EXPECT_FALSE(obs::ParseJson("{\"a\": }").has_value());
}

TEST(JsonTest, ValidatorAcceptsAndRejects) {
  EXPECT_TRUE(obs::ValidateJson("{\"a\": [1, 2.5, -3e2, \"x\\n\", true, null]}"));
  EXPECT_TRUE(obs::ValidateJson("[]"));
  EXPECT_FALSE(obs::ValidateJson("{\"a\": }"));
  EXPECT_FALSE(obs::ValidateJson("{'a': 1}"));
  EXPECT_FALSE(obs::ValidateJson("[1, 2,]"));
  EXPECT_FALSE(obs::ValidateJson("{\"a\": 1} trailing"));
  EXPECT_FALSE(obs::ValidateJson("01"));
}

TEST(JsonTest, NumberFormatting) {
  EXPECT_EQ(obs::JsonNumber(42.0), "42");
  EXPECT_EQ(obs::JsonNumber(-3.0), "-3");
  EXPECT_EQ(obs::JsonNumber(0.5), "0.5");
}

TEST(LoggingTest, ParseLogLevelAcceptsNamesAndDigits) {
  LogLevel level;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("WARN", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(ParseLogLevel("off", &level));
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
}

// --- End-to-end determinism ------------------------------------------------

/// Runs a small NAT workload on the full testbed with tracing enabled and
/// returns the Chrome-trace export.
std::string RunTracedNat(Tracer& tracer) {
  net::ResetPacketIds();  // packet ids appear in the trace export
  constexpr net::Ipv4Addr kInternalPrefix(192, 168, 0, 0);
  constexpr std::uint32_t kInternalMask = 0xffff0000;
  constexpr net::Ipv4Addr kNatIp(100, 100, 0, 1);

  apps::NatGlobalState nat_global(kNatIp, 5000, 256, kInternalPrefix,
                                  kInternalMask);
  apps::NatApp nat(nat_global);
  routing::TestbedConfig cfg;
  cfg.store.initializer = [&nat_global](const net::PartitionKey& key) {
    return nat_global.InitializeFlow(key);
  };
  bench::Deployment d;
  d.Build(cfg);
  sim::Simulator& sim = d.sim();
  routing::Testbed& tb = d.testbed();

  sim.AttachTracer(tracer);
  tracer.SetEnabled(true);

  d.DeployRedPlane(nat);
  d.AnycastToAgg(kNatIp, 0);

  tb.external[0]->SetHandler([](sim::HostNode& self, net::Packet pkt) {
    if (auto flow = pkt.Flow()) {
      self.Send(net::MakeUdpPacket(flow->Reversed(), 10));
    }
  });
  for (int i = 0; i < 4; ++i) {
    net::FlowKey flow{routing::RackServerIp(0, 0), routing::ExternalHostIp(0),
                      static_cast<std::uint16_t>(7000 + i), 80,
                      net::IpProto::kUdp};
    tb.rack_servers[0][0]->Send(net::MakeUdpPacket(flow, 100));
    sim.RunUntil(sim.Now() + Milliseconds(1));
  }
  sim.Run();
  tracer.SetEnabled(false);
  return tracer.ChromeTraceJson();
}

TEST(ObsDeterminismTest, SameSeedProducesByteIdenticalTraces) {
  Tracer t1, t2;
  const std::string json1 = RunTracedNat(t1);
  const std::string json2 = RunTracedNat(t2);
  EXPECT_FALSE(json1.empty());
  EXPECT_GT(t1.size(), 0u);
  EXPECT_TRUE(obs::ValidateJson(json1));
  EXPECT_EQ(json1, json2);
}

}  // namespace
}  // namespace redplane
