#include "apps/heavy_hitter.h"

namespace redplane::apps {

HeavyHitterApp::HeavyHitterApp(HeavyHitterConfig config)
    : config_(std::move(config)) {
  for (std::uint16_t vlan : config_.vlans) {
    sketches_.emplace(vlan, std::make_unique<CountMinSketch>(
                                "hh/vlan" + std::to_string(vlan),
                                config_.sketch_rows, config_.sketch_slots));
    heavy_[vlan];
  }
}

CountMinSketch* HeavyHitterApp::SketchFor(std::uint16_t vlan) {
  auto it = sketches_.find(vlan);
  return it == sketches_.end() ? nullptr : it->second.get();
}

const CountMinSketch* HeavyHitterApp::SketchFor(std::uint16_t vlan) const {
  auto it = sketches_.find(vlan);
  return it == sketches_.end() ? nullptr : it->second.get();
}

std::optional<net::PartitionKey> HeavyHitterApp::KeyOf(
    const net::Packet& pkt) const {
  if (pkt.vlan == 0 || sketches_.count(pkt.vlan) == 0) return std::nullopt;
  // State partitions per tenant VLAN (§2: "partitioning on VLAN ID").
  return net::PartitionKey::OfVlan(pkt.vlan);
}

core::ProcessResult HeavyHitterApp::Process(core::AppContext& ctx,
                                            net::Packet pkt,
                                            std::vector<std::byte>& state) {
  (void)ctx;
  (void)state;  // sketch state lives in app-owned register arrays
  core::ProcessResult result;
  CountMinSketch* sketch = SketchFor(pkt.vlan);
  auto flow = pkt.Flow();
  if (sketch != nullptr && flow.has_value()) {
    dp::PipelinePass pass;
    const std::uint32_t estimate =
        sketch->Update(pass, net::HashFlowKey(*flow), 1);
    if (estimate >= config_.threshold) {
      heavy_[pkt.vlan].insert(*flow);
    }
  }
  result.output = std::move(pkt);
  return result;
}

void HeavyHitterApp::Reset() {
  for (auto& [vlan, sketch] : sketches_) sketch->Reset();
  for (auto& [vlan, flows] : heavy_) flows.clear();
}

std::vector<net::PartitionKey> HeavyHitterApp::SnapshotKeys() const {
  std::vector<net::PartitionKey> keys;
  keys.reserve(sketches_.size());
  for (const auto& [vlan, sketch] : sketches_) {
    keys.push_back(net::PartitionKey::OfVlan(vlan));
  }
  return keys;
}

std::uint32_t HeavyHitterApp::NumSnapshotSlots() const {
  return static_cast<std::uint32_t>(config_.sketch_slots);
}

void HeavyHitterApp::BeginSnapshot(const net::PartitionKey& key) {
  CountMinSketch* sketch = SketchFor(key.vlan);
  if (sketch == nullptr) return;
  dp::PipelinePass pass;
  sketch->BeginSnapshot(pass);
}

std::vector<std::byte> HeavyHitterApp::ReadSnapshotSlot(
    const net::PartitionKey& key, std::uint32_t index) {
  CountMinSketch* sketch = SketchFor(key.vlan);
  if (sketch == nullptr) return {};
  dp::PipelinePass pass;
  return sketch->ReadSnapshotSlot(pass, index);
}

std::uint32_t HeavyHitterApp::Estimate(std::uint16_t vlan,
                                       const net::FlowKey& flow) const {
  const CountMinSketch* sketch = SketchFor(vlan);
  return sketch == nullptr ? 0 : sketch->Estimate(net::HashFlowKey(flow));
}

const std::set<net::FlowKey>& HeavyHitterApp::HeavyFlows(
    std::uint16_t vlan) const {
  static const std::set<net::FlowKey> kEmpty;
  auto it = heavy_.find(vlan);
  return it == heavy_.end() ? kEmpty : it->second;
}

}  // namespace redplane::apps
