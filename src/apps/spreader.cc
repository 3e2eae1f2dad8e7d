#include "apps/spreader.h"

#include <cmath>

#include "common/hash.h"

namespace redplane::apps {

SpreaderApp::SpreaderApp(SpreaderConfig config)
    : config_(config),
      bitmap_("spreader/bitmap", config.sources * config.bits_per_source) {}

std::size_t SpreaderApp::SourceSlot(net::Ipv4Addr src) const {
  return static_cast<std::size_t>(Mix64(src.value) % config_.sources);
}

std::size_t SpreaderApp::BitIndex(net::Ipv4Addr src, net::Ipv4Addr dst) const {
  const std::uint64_t h =
      Mix64((static_cast<std::uint64_t>(src.value) << 32) | dst.value);
  return SourceSlot(src) * config_.bits_per_source +
         static_cast<std::size_t>(h % config_.bits_per_source);
}

std::optional<net::PartitionKey> SpreaderApp::KeyOf(
    const net::Packet& pkt) const {
  if (!pkt.Flow().has_value()) return std::nullopt;
  return net::PartitionKey::OfObject(0x51c4);
}

core::ProcessResult SpreaderApp::Process(core::AppContext& ctx,
                                         net::Packet pkt,
                                         std::vector<std::byte>& state) {
  (void)ctx;
  (void)state;  // bitmaps live in app-owned registers
  core::ProcessResult result;
  if (pkt.ip.has_value()) {
    dp::PipelinePass pass;
    bitmap_.Update(pass, BitIndex(pkt.ip->src, pkt.ip->dst),
                   [](std::uint8_t) { return std::uint8_t{1}; });
    if (EstimateDistinct(pkt.ip->src) >= config_.threshold) {
      spreaders_.insert(pkt.ip->src.value);
    }
  }
  result.output = std::move(pkt);
  return result;
}

double SpreaderApp::EstimateDistinct(net::Ipv4Addr src) const {
  const std::size_t slot = SourceSlot(src);
  std::size_t zeros = 0;
  for (std::size_t b = 0; b < config_.bits_per_source; ++b) {
    if (bitmap_.PeekLive(slot * config_.bits_per_source + b) == 0) ++zeros;
  }
  if (zeros == 0) return static_cast<double>(config_.bits_per_source) * 4;
  // Linear counting: n ~= -m * ln(V) where V is the zero fraction.
  const double m = static_cast<double>(config_.bits_per_source);
  return -m * std::log(static_cast<double>(zeros) / m);
}

void SpreaderApp::Reset() {
  bitmap_.Reset();
  spreaders_.clear();
}

std::vector<net::PartitionKey> SpreaderApp::SnapshotKeys() const {
  return {net::PartitionKey::OfObject(0x51c4)};
}

std::uint32_t SpreaderApp::NumSnapshotSlots() const {
  return static_cast<std::uint32_t>(config_.sources *
                                    config_.bits_per_source);
}

void SpreaderApp::BeginSnapshot(const net::PartitionKey&) {
  dp::PipelinePass pass;
  bitmap_.BeginSnapshot(pass);
}

std::vector<std::byte> SpreaderApp::ReadSnapshotSlot(const net::PartitionKey&,
                                                     std::uint32_t index) {
  dp::PipelinePass pass;
  return {std::byte{bitmap_.SnapshotRead(pass, index)}};
}

}  // namespace redplane::apps
