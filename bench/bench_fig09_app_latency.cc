// Fig. 9: end-to-end RTT for RedPlane-enabled applications: NAT, firewall,
// load balancer, EPC-SGW, heavy-hitter detection, Async-Counter, and
// Sync-Counter with and without state-store chain replication.
//
// All applications run RedPlane-enabled on a single aggregation switch
// (failure-free); the probe host stamps send times and an echo host
// reflects.  Read-centric and asynchronously-replicated apps should match
// the no-fault-tolerance baseline at every percentile; Sync-Counter pays a
// store round trip per packet, with the chain adding its traversal.
#include <chrono>
#include <cstdio>

#include "harness.h"

using namespace redplane;
using namespace redplane::bench;

namespace {

constexpr std::size_t kPackets = 30'000;
constexpr std::size_t kFlows = 500;

struct Setup {
  Deployment deploy;
  routing::Testbed* tb = nullptr;

  void Build(int chain_size,
             std::function<std::vector<std::byte>(const net::PartitionKey&)>
                 initializer = nullptr) {
    routing::TestbedConfig config;
    config.fabric_link.propagation = Nanoseconds(500);
    config.host_link.propagation = Nanoseconds(500);
    config.store.service_time = Microseconds(2);
    config.store_chain_size = chain_size;
    config.store.initializer = std::move(initializer);
    deploy.Build(config);
    tb = &deploy.testbed();
    routing::FailureInjector injector(deploy.sim(), *tb->fabric);
    injector.FailNode(tb->agg[1]);  // single-switch, failure-free probing
    deploy.sim().RunUntil(Seconds(1));
  }

  /// Replays a probe trace internal->external and returns RTT samples.
  SampleSet ProbeInternalToExternal(bool signaling_mix = false) {
    RttProbe probe(tb->rack_servers[0][0]);
    InstallEcho(tb->external[0]);
    Rng rng(99);
    SampleSet out;
    if (!signaling_mix) {
      trace::FlowMixConfig mix;
      mix.num_packets = kPackets;
      mix.num_flows = kFlows;
      mix.dst_port = 80;
      mix.proto = net::IpProto::kUdp;
      mix.mean_interarrival = Microseconds(10);
      auto packets = trace::GenerateFlowMix(rng, mix);
      ShapeFlowChurn(packets, Microseconds(800));
      const SimTime start = deploy.sim().Now();
      SimTime last = start;
      for (const auto& spec : packets) {
        net::FlowKey flow = spec.flow;
        flow.src_ip = routing::RackServerIp(0, 0);
        flow.dst_ip = routing::ExternalHostIp(0);
        const std::uint32_t pad =
            spec.size_bytes > 62 ? spec.size_bytes - 62 : 8;
        last = start + spec.time;
        deploy.sim().ScheduleAt(start + spec.time,
                                [&probe, flow, pad]() { probe.Send(flow, pad); });
      }
      // Bounded drain: periodic processes (snapshots, renewals) never
      // empty the event queue, so don't wait for them to.
      deploy.sim().RunUntil(last + Milliseconds(100));
    }
    return std::move(probe.rtt_us());
  }
};

SampleSet RunNat() {
  auto nat_global = std::make_shared<apps::NatGlobalState>(
      kNatIp, 5000, 4096, kInternalPrefix, kInternalMask);
  Setup setup;
  setup.Build(3, [nat_global](const net::PartitionKey& key) {
    return nat_global->InitializeFlow(key);
  });
  setup.deploy.AnycastToAgg(kNatIp, 0);
  apps::NatApp nat(*nat_global);
  setup.deploy.DeployRedPlane(nat);
  return setup.ProbeInternalToExternal();
}

SampleSet RunFirewall() {
  Setup setup;
  setup.Build(3);
  apps::FirewallApp fw(kInternalPrefix, kInternalMask);
  setup.deploy.DeployRedPlane(fw);
  return setup.ProbeInternalToExternal();
}

SampleSet RunLoadBalancer() {
  auto lb_global = std::make_shared<apps::LbGlobalState>(kVip, 80);
  lb_global->AddBackend(routing::RackServerIp(0, 0), 80);
  Setup setup;
  setup.Build(3, [lb_global](const net::PartitionKey& key) {
    return lb_global->InitializeFlow(key);
  });
  setup.deploy.AnycastToAgg(kVip, 0);
  apps::LoadBalancerApp lb(*lb_global);
  setup.deploy.DeployRedPlane(lb);

  // External clients probe the VIP; the backend echoes.
  RttProbe probe(setup.tb->external[0]);
  InstallEcho(setup.tb->rack_servers[0][0]);
  Rng rng(7);
  auto& sim = setup.deploy.sim();
  SimTime t = sim.Now();
  for (std::size_t i = 0; i < kPackets; ++i) {
    t += static_cast<SimDuration>(rng.Exponential(10'000));
    // Introduce client connections gradually (steady churn), as real
    // client populations do.
    const std::size_t active = std::min(kFlows, 1 + i / 60);
    net::FlowKey flow{routing::ExternalHostIp(0), kVip,
                      static_cast<std::uint16_t>(10000 + i % active), 80,
                      net::IpProto::kUdp};
    sim.ScheduleAt(t, [&probe, flow]() { probe.Send(flow, 40); });
  }
  sim.RunUntil(t + Milliseconds(100));
  return std::move(probe.rtt_us());
}

SampleSet RunEpcSgw() {
  Setup setup;
  setup.Build(3);
  apps::EpcSgwApp sgw;
  setup.deploy.DeployRedPlane(sgw);

  // Downlink data to users (echoed by the user host) with 1 signaling per
  // 17 data packets, as in the paper.
  RttProbe probe(setup.tb->external[0]);
  InstallEcho(setup.tb->rack_servers[0][1]);
  auto& sim = setup.deploy.sim();
  Rng rng(13);
  const net::Ipv4Addr user = routing::RackServerIp(0, 1);
  SimTime t = sim.Now();
  std::size_t since_signaling = 0;
  for (std::size_t i = 0; i < kPackets; ++i) {
    t += static_cast<SimDuration>(rng.Exponential(10'000));
    if (++since_signaling > 17) {
      since_signaling = 0;
      sim.ScheduleAt(t, [&setup, user]() {
        setup.tb->external[0]->Send(apps::MakeSgwSignalingPacket(
            routing::ExternalHostIp(0), user,
            static_cast<std::uint32_t>(user.value & 0xffff),
            net::Ipv4Addr(1, 1, 1, 1)));
      });
      continue;
    }
    net::FlowKey flow{routing::ExternalHostIp(0), user,
                      static_cast<std::uint16_t>(40000 + i % 64),
                      apps::kSgwDataPort, net::IpProto::kUdp};
    sim.ScheduleAt(t, [&probe, flow]() { probe.Send(flow, 100); });
  }
  sim.RunUntil(t + Milliseconds(100));
  return std::move(probe.rtt_us());
}

SampleSet RunHeavyHitter() {
  Setup setup;
  setup.Build(3);
  apps::HeavyHitterConfig hh_config;
  hh_config.vlans = {1};
  apps::HeavyHitterApp hh(hh_config);
  core::RedPlaneConfig rp;
  rp.snapshot_period = Milliseconds(1);
  setup.deploy.DeployRedPlane(hh, rp);
  setup.deploy.redplane(0)->StartSnapshotReplication();

  RttProbe probe(setup.tb->rack_servers[0][0]);
  InstallEcho(setup.tb->external[0]);
  auto& sim = setup.deploy.sim();
  Rng rng(17);
  SimTime t = sim.Now();
  for (std::size_t i = 0; i < kPackets; ++i) {
    t += static_cast<SimDuration>(rng.Exponential(10'000));
    net::FlowKey flow{routing::RackServerIp(0, 0), routing::ExternalHostIp(0),
                      static_cast<std::uint16_t>(20000 + i % kFlows), 80,
                      net::IpProto::kUdp};
    sim.ScheduleAt(t, [&probe, flow]() {
      net::Packet pkt = net::MakeUdpPacket(flow, 40);
      pkt.vlan = 1;
      probe.SendPacket(std::move(pkt));
    });
  }
  sim.RunUntil(t + Milliseconds(100));
  return std::move(probe.rtt_us());
}

SampleSet RunCounter(bool synchronous, int chain_size,
                     ObsSession* obs = nullptr) {
  Setup setup;
  setup.Build(chain_size);
  apps::SyncCounterApp sync_app;
  // 256 counter slots snapshotted every 5 ms: the replication stream stays
  // a small fraction of traffic, as in the paper's async configuration.
  apps::AsyncCounterApp async_app(256);
  core::RedPlaneConfig rp;
  rp.snapshot_period = Milliseconds(5);
  core::SwitchApp& app =
      synchronous ? static_cast<core::SwitchApp&>(sync_app)
                  : static_cast<core::SwitchApp&>(async_app);
  setup.deploy.DeployRedPlane(app, rp);
  if (!synchronous) {
    setup.deploy.redplane(0)->StartSnapshotReplication();
  }
  if (obs != nullptr) {
    obs->AttachTracer(setup.deploy.sim());
    obs->Watch(setup.deploy.redplane(0)->stats());
    for (auto* server : setup.tb->store) obs->Watch(server->counters());
    obs->StartSampling(setup.deploy.sim(), obs->metrics_period(), Seconds(2));
  }
  SampleSet out = setup.ProbeInternalToExternal();
  if (obs != nullptr) {
    obs->SampleOnce(setup.deploy.sim().Now());
    obs->UnwatchAll();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ObsSession obs(argc, argv);
  ObsSession* obs_ptr = obs.enabled() ? &obs : nullptr;
  std::printf("=== Fig. 9: end-to-end RTT, RedPlane-enabled applications ===\n");
  std::printf("(%zu probes per app, single switch, failure-free; chain "
              "replication of 3 unless noted)\n\n",
              kPackets);
  struct Row {
    const char* name;
    SampleSet samples;
  };
  std::vector<Row> rows;
  const auto timed = [&rows](const char* name, SampleSet samples) {
    static auto last = std::chrono::steady_clock::now();
    const auto now = std::chrono::steady_clock::now();
    std::fprintf(stderr, "[fig09] %s done in %lld ms\n", name,
                 static_cast<long long>(
                     std::chrono::duration_cast<std::chrono::milliseconds>(
                         now - last)
                         .count()));
    last = now;
    rows.push_back({name, std::move(samples)});
  };
  timed("NAT", RunNat());
  timed("Firewall", RunFirewall());
  timed("Load balancer", RunLoadBalancer());
  timed("EPC-SGW", RunEpcSgw());
  timed("HH-detection", RunHeavyHitter());
  timed("Async-Counter", RunCounter(false, 3));
  timed("Sync-Counter (w/o chain)", RunCounter(true, 1));
  // The chain-replicated Sync-Counter run is the observability target: its
  // spans traverse every chain hop.
  timed("Sync-Counter (w/ chain)", RunCounter(true, 3, obs_ptr));
  for (auto& row : rows) {
    PrintLatencySummary(row.name, row.samples);
  }
  std::printf("\nPaper anchors: NAT/firewall/LB/EPC-SGW/HH all share the "
              "8 us median of the no-FT baseline;\nSync-Counter adds ~8 us "
              "without chain replication and ~20 us with it (every packet "
              "is a\nsynchronous write).\n\n");
  for (auto& row : rows) {
    PrintCdf(row.name, row.samples);
  }
  return 0;
}
