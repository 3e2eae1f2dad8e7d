// Heavy-hitter detection (paper §6 app 5).
//
// Write-centric: every packet updates a count-min sketch (3 rows of 64
// 32-bit slots), kept separately per tenant VLAN so per-tenant QoS policy
// can be enforced.  Sketches are approximate, so the app opts into
// bounded-inconsistency mode: RedPlane replicates consistent snapshots
// asynchronously every T_snap instead of coordinating per packet.
#pragma once

#include <map>
#include <set>

#include "apps/sketch.h"
#include "core/app.h"
#include "core/snapshot.h"

namespace redplane::apps {

struct HeavyHitterConfig {
  /// Tenant VLANs to track (one sketch set per VLAN).
  std::vector<std::uint16_t> vlans = {1};
  std::size_t sketch_rows = 3;
  std::size_t sketch_slots = 64;
  /// A flow whose estimate crosses this is flagged heavy.
  std::uint32_t threshold = 1000;
};

class HeavyHitterApp : public core::SwitchApp, public core::Snapshottable {
 public:
  explicit HeavyHitterApp(HeavyHitterConfig config = {});

  // SwitchApp:
  std::string_view name() const override { return "heavy_hitter"; }
  /// Sketches are approximate, so the app declares snapshot mode.  Sketch
  /// rows are lane-wise monotone u32 counters: the join is per-lane max,
  /// which preserves the count-min overestimate guarantee.
  core::StateTraits Traits() const override {
    core::StateTraits t;
    t.mode = core::ConsistencyMode::kSnapshot;
    t.merge = core::MergeMaxU32Lanes;
    t.measure = core::MeasureSumU32Lanes;
    return t;
  }
  std::optional<net::PartitionKey> KeyOf(const net::Packet& pkt) const override;
  core::ProcessResult Process(core::AppContext& ctx, net::Packet pkt,
                              std::vector<std::byte>& state) override;
  void Reset() override;

  // Snapshottable:
  std::vector<net::PartitionKey> SnapshotKeys() const override;
  std::uint32_t NumSnapshotSlots() const override;
  void BeginSnapshot(const net::PartitionKey& key) override;
  std::vector<std::byte> ReadSnapshotSlot(const net::PartitionKey& key,
                                          std::uint32_t index) override;

  /// Control-plane queries for reporting/tests.
  std::uint32_t Estimate(std::uint16_t vlan, const net::FlowKey& flow) const;
  const std::set<net::FlowKey>& HeavyFlows(std::uint16_t vlan) const;

  const HeavyHitterConfig& config() const { return config_; }

 private:
  CountMinSketch* SketchFor(std::uint16_t vlan);
  const CountMinSketch* SketchFor(std::uint16_t vlan) const;

  HeavyHitterConfig config_;
  std::map<std::uint16_t, std::unique_ptr<CountMinSketch>> sketches_;
  std::map<std::uint16_t, std::set<net::FlowKey>> heavy_;
};

}  // namespace redplane::apps
