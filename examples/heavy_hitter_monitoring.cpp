// Per-tenant heavy-hitter monitoring in bounded-inconsistency mode.
//
// A write-centric application: every packet updates a per-VLAN count-min
// sketch.  Synchronous replication would cost a store round trip per packet;
// instead the sketches opt into RedPlane's bounded-inconsistency mode
// (§4.4/§5.4): consistent snapshots are taken with the lazy double-buffer
// algorithm and replicated asynchronously every T_snap.  After a switch
// failure the store's copy is at most ε stale — the demo fails the switch
// and compares the recovered counts against ground truth.
//
//   $ ./heavy_hitter_monitoring
#include <cstdio>
#include <map>

#include "apps/heavy_hitter.h"
#include "common/rng.h"
#include "core/redplane_switch.h"
#include "net/codec.h"
#include "routing/failure.h"
#include "routing/topology.h"
#include "trace/workload.h"

using namespace redplane;

int main() {
  sim::Simulator sim;
  routing::Testbed tb = routing::BuildTestbed(sim);

  apps::HeavyHitterConfig hh_config;
  hh_config.vlans = {1, 2};  // two tenants
  hh_config.threshold = 500;
  apps::HeavyHitterApp hh(hh_config);

  core::RedPlaneConfig rp_config;
  rp_config.snapshot_period = Milliseconds(1);
  auto shard_for = [&](const net::PartitionKey&) { return tb.StoreHeadIp(); };
  core::RedPlaneSwitch rp0(*tb.agg[0], hh, shard_for, rp_config);
  tb.agg[0]->SetPipeline(&rp0);
  rp0.StartSnapshotReplication();

  // Tenant traffic: a zipf-skewed flow mix per VLAN.
  Rng rng(7);
  trace::FlowMixConfig mix;
  mix.num_packets = 4000;
  mix.num_flows = 64;
  mix.zipf_theta = 1.3;
  mix.mean_interarrival = Microseconds(10);
  std::map<std::uint16_t, std::uint64_t> injected;
  for (std::uint16_t vlan : hh_config.vlans) {
    mix.vlan = vlan;
    for (const auto& spec : trace::GenerateFlowMix(rng, mix)) {
      sim.ScheduleAt(spec.time, [&tb, spec]() {
        tb.agg[0]->HandlePacket(trace::MaterializePacket(spec), 0);
      });
      ++injected[vlan];
    }
  }
  sim.RunUntil(Milliseconds(60));

  std::printf("Injected per tenant: vlan1=%llu vlan2=%llu packets\n",
              static_cast<unsigned long long>(injected[1]),
              static_cast<unsigned long long>(injected[2]));
  std::printf("Heavy flows detected: vlan1=%zu vlan2=%zu (threshold %u)\n",
              hh.HeavyFlows(1).size(), hh.HeavyFlows(2).size(),
              hh_config.threshold);
  std::printf("Snapshot rounds replicated: %g (one per %lld us)\n",
              rp0.stats().Get("snapshot_slots_sent") / 64 / 2,
              static_cast<long long>(
                  ToMicroseconds(rp_config.snapshot_period)));

  // Fail the switch: live sketches are gone.  Recover counts from the
  // store's newest snapshot and compare against the ground truth.
  routing::FailureInjector injector(sim, *tb.fabric);
  injector.FailNode(tb.agg[0]);
  sim.Run();

  for (std::uint16_t vlan : hh_config.vlans) {
    const auto* rec = tb.store[0]->Find(net::PartitionKey::OfVlan(vlan));
    std::uint64_t recovered = 0;
    if (rec != nullptr && rec->mode) {
      for (const auto& [idx, slot] : rec->mode->snapshot_slots) {
        net::ByteReader r(slot.first);
        recovered += r.U32();  // row 0 of the sketch
      }
    }
    const double loss_pct =
        injected[vlan] == 0
            ? 0
            : 100.0 * (1.0 - static_cast<double>(recovered) /
                                 static_cast<double>(injected[vlan]));
    std::printf(
        "vlan %u: recovered %llu of %llu updates from the store "
        "(%.2f%% lost — bounded by the last snapshot interval, eps=%lld ms)\n",
        vlan, static_cast<unsigned long long>(recovered),
        static_cast<unsigned long long>(injected[vlan]), loss_pct,
        static_cast<long long>(core::kEpsilonBound / kMillisecond));
  }
  std::printf("epsilon violations during the run: %g\n",
              rp0.stats().Get("epsilon_violations"));
  return 0;
}
