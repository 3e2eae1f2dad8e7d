// Ablations of RedPlane's design choices (not a paper figure; quantifies
// the trade-offs §5 argues for):
//
//  1. Lease period — shorter leases migrate state faster after a failure
//     (recovery is bounded by detection + remaining lease) but cost more
//     renewal traffic for read-centric flows.
//  2. Retransmission timeout — under loss, a shorter timeout recovers
//     in-flight writes faster at the cost of more spurious retransmissions
//     and higher mirror occupancy.
//  3. Mirror truncation — buffering only the replication header (the
//     paper's choice) vs. mirroring the full request including the
//     piggybacked packet: same reliability, an order of magnitude more
//     switch packet buffer.
#include <cstdio>

#include "harness.h"

using namespace redplane;
using namespace redplane::bench;

namespace {

/// Ablation 1: lease period vs. failover gap and renewal overhead.
void LeasePeriodAblation() {
  std::printf("-- Ablation 1: lease period --\n");
  TablePrinter table({"Lease period (ms)", "Failover gap (ms)",
                      "Renewals per 100 pkts"});
  for (SimDuration lease : {Milliseconds(20), Milliseconds(50),
                            Milliseconds(100), Milliseconds(250),
                            Milliseconds(500)}) {
    Deployment deploy;
    routing::TestbedConfig config;
    config.store.lease_period = lease;
    config.fabric.failure_detection_delay = Milliseconds(10);
    deploy.Build(config);
    auto& tb = deploy.testbed();
    auto& sim = deploy.sim();

    apps::SyncCounterApp app;
    core::RedPlaneConfig rp;
    rp.lease_period = lease;
    rp.renew_interval = lease / 2;
    deploy.DeployRedPlane(app, rp);

    std::vector<SimTime> arrivals;
    tb.rack_servers[0][0]->SetHandler(
        [&](sim::HostNode&, net::Packet) { arrivals.push_back(sim.Now()); });
    net::FlowKey flow{routing::ExternalHostIp(0), routing::RackServerIp(0, 0),
                      1000, 80, net::IpProto::kUdp};

    // Steady 1 kpps stream; fail the carrying switch at t=100 ms.
    for (int i = 0; i < 100; ++i) {
      sim.ScheduleAt(Milliseconds(i), [&tb, flow]() {
        tb.external[0]->Send(net::MakeUdpPacket(flow, 64));
      });
    }
    routing::FailureInjector injector(sim, *tb.fabric);
    dp::SwitchNode* carrier =
        *tb.fabric->NextHop(tb.core, net::MakeUdpPacket(flow, 64)) == 0
            ? tb.agg[0]
            : tb.agg[1];
    sim.ScheduleAt(Milliseconds(50),
                   [&injector, carrier]() { injector.FailNode(carrier); });
    sim.RunUntil(Milliseconds(100) + 4 * lease);

    // Failover gap: the largest inter-arrival around the failure.
    SimDuration gap = 0;
    for (std::size_t i = 1; i < arrivals.size(); ++i) {
      gap = std::max(gap, arrivals[i] - arrivals[i - 1]);
    }
    const double renewals = deploy.redplane(0)->stats().Get("renewals_sent") +
                            deploy.redplane(1)->stats().Get("renewals_sent");
    table.Row({FormatDouble(static_cast<double>(lease) / kMillisecond, 0),
               FormatDouble(static_cast<double>(gap) / kMillisecond, 1),
               FormatDouble(renewals, 0)});
  }
  std::printf("\n");
}

/// Ablation 2: retransmission timeout under loss.
void RetransmitTimeoutAblation() {
  std::printf("-- Ablation 2: retransmission timeout (10%% request loss) --\n");
  TablePrinter table({"Timeout (us)", "Write p99 (us)", "Retransmits",
                      "Peak mirror (B)"});
  for (SimDuration timeout : {Microseconds(100), Microseconds(300),
                              Microseconds(1000), Microseconds(3000)}) {
    Deployment deploy;
    routing::TestbedConfig config;
    deploy.Build(config);
    auto& tb = deploy.testbed();
    auto& sim = deploy.sim();
    routing::FailureInjector injector(sim, *tb.fabric);
    injector.FailNode(tb.agg[1]);
    sim.RunUntil(Seconds(1));
    for (std::size_t i = 0; i < tb.network->NumLinks(); ++i) {
      sim::Link* link = tb.network->GetLink(i);
      if (link->endpoint_a() == tb.agg[0] || link->endpoint_b() == tb.agg[0]) {
        if (link->endpoint_a() == tb.tor[0] ||
            link->endpoint_b() == tb.tor[0]) {
          link->set_loss_rate(0.10);
        }
      }
    }

    apps::SyncCounterApp app;
    core::RedPlaneConfig rp;
    rp.request_timeout = timeout;
    deploy.DeployRedPlane(app, rp);

    RttProbe probe(tb.external[0]);
    InstallEcho(tb.rack_servers[0][0]);
    // Sparse writes: one write per flow per ~10 ms.  (A back-to-back write
    // stream self-heals without retransmission — a later full-state write
    // subsumes a lost one — so sparse flows are what exercise the timeout.)
    SimTime t = sim.Now();
    for (int i = 0; i < 3000; ++i) {
      t += Microseconds(20);
      net::FlowKey flow{routing::ExternalHostIp(0),
                        routing::RackServerIp(0, 0),
                        static_cast<std::uint16_t>(1000 + i % 500), 80,
                        net::IpProto::kUdp};
      sim.ScheduleAt(t, [&probe, flow]() { probe.Send(flow, 40); });
    }
    sim.RunUntil(t + Milliseconds(100));
    table.Row(
        {FormatDouble(ToMicroseconds(timeout), 0),
         probe.rtt_us().Empty() ? "-"
                                : FormatDouble(probe.rtt_us().Percentile(99), 1),
         FormatDouble(deploy.redplane(0)->stats().Get("retransmits"), 0),
         FormatDouble(
             static_cast<double>(tb.agg[0]->mirror().PeakOccupancyBytes()),
             0)});
  }
  std::printf("\n");
}

/// Ablation 3: mirror truncation (header-only vs full packet).
void TruncationAblation() {
  std::printf("-- Ablation 3: mirror truncation --\n");
  TablePrinter table({"Mirrored bytes/request", "Peak mirror buffer (KB)"});
  for (std::size_t truncate : {std::size_t{128}, std::size_t{16384}}) {
    Deployment deploy;
    deploy.Build();
    auto& tb = deploy.testbed();
    auto& sim = deploy.sim();
    routing::FailureInjector injector(sim, *tb.fabric);
    injector.FailNode(tb.agg[1]);
    sim.RunUntil(Seconds(1));

    apps::SyncCounterApp app;
    core::RedPlaneConfig rp;
    rp.mirror_truncate_bytes = truncate;
    rp.mirror_include_piggyback = truncate > 1024;  // the "full" variant
    deploy.DeployRedPlane(app, rp);
    net::FlowKey flow{routing::ExternalHostIp(0), routing::RackServerIp(0, 0),
                      1000, 80, net::IpProto::kUdp};
    SimTime t = sim.Now();
    for (int i = 0; i < 2000; ++i) {
      t += Microseconds(2);
      sim.ScheduleAt(t, [&tb, flow]() {
        tb.external[0]->Send(net::MakeUdpPacket(flow, 1400));
      });
    }
    sim.RunUntil(t + Milliseconds(50));
    table.Row({std::to_string(truncate),
               FormatDouble(static_cast<double>(
                                tb.agg[0]->mirror().PeakOccupancyBytes()) /
                                1024.0,
                            2)});
  }
  std::printf("\n(Header-only mirroring is why a lost request costs only "
              "the output packet — permitted by the\nlinearizability model — "
              "while the state update itself is still retransmitted.)\n");
}

}  // namespace

int main() {
  std::printf("=== Design ablations ===\n\n");
  LeasePeriodAblation();
  RetransmitTimeoutAblation();
  TruncationAblation();
  return 0;
}
