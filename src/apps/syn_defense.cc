#include "apps/syn_defense.h"

#include "net/codec.h"

namespace redplane::apps {

SynDefenseApp::SynDefenseApp(SynDefenseConfig config)
    : config_(config),
      validated_("syn_defense/validated", config.bloom_bits,
                 config.bloom_hashes),
      restored_(config.bloom_bits, 0) {}

std::optional<net::PartitionKey> SynDefenseApp::KeyOf(
    const net::Packet& pkt) const {
  if (!pkt.tcp.has_value()) return std::nullopt;
  return net::PartitionKey::OfObject(0x5f1d);
}

bool SynDefenseApp::IsValidated(net::Ipv4Addr src) const {
  if (validated_.Contains(src.value)) return true;
  // Consult the restored snapshot overlay (post-failover).
  for (std::size_t i = 0; i < config_.bloom_hashes; ++i) {
    const std::size_t slot = static_cast<std::size_t>(
        Mix64(static_cast<std::uint64_t>(src.value) ^
              (i * 0x9e3779b97f4a7c15ull)) %
        config_.bloom_bits);
    if (restored_[slot] == 0) return false;
  }
  return true;
}

core::ProcessResult SynDefenseApp::Process(core::AppContext& ctx,
                                           net::Packet pkt,
                                           std::vector<std::byte>& state) {
  (void)ctx;
  (void)state;  // filter state lives in app-owned registers
  core::ProcessResult result;
  if (!pkt.tcp.has_value() || !pkt.ip.has_value()) return result;
  const net::Ipv4Addr src = pkt.ip->src;

  if (pkt.tcp->syn() && !pkt.tcp->ack_flag()) {
    if (IsValidated(src)) {
      ++admitted_;
      result.output = std::move(pkt);
    } else {
      // Unproven source: issue a challenge (cookie) instead of admitting.
      ++challenges_;
    }
    return result;
  }
  if (pkt.tcp->ack_flag() && !pkt.tcp->syn()) {
    // A returning ACK proves the source can complete a handshake: mark it
    // validated (one Bloom insert) and admit.
    if (!IsValidated(src)) {
      validated_.Insert(src.value);
    }
    ++admitted_;
    result.output = std::move(pkt);
    return result;
  }
  // Other segments of admitted connections pass through.
  ++admitted_;
  result.output = std::move(pkt);
  return result;
}

void SynDefenseApp::Reset() {
  validated_.Reset();
  std::fill(restored_.begin(), restored_.end(), 0);
  challenges_ = 0;
  admitted_ = 0;
}

std::vector<net::PartitionKey> SynDefenseApp::SnapshotKeys() const {
  return {net::PartitionKey::OfObject(0x5f1d)};
}

std::uint32_t SynDefenseApp::NumSnapshotSlots() const {
  return static_cast<std::uint32_t>(config_.bloom_bits);
}

void SynDefenseApp::BeginSnapshot(const net::PartitionKey&) {
  validated_.BeginSnapshot();
}

std::vector<std::byte> SynDefenseApp::ReadSnapshotSlot(
    const net::PartitionKey&, std::uint32_t index) {
  return {std::byte{validated_.ReadSnapshotSlot(index)}};
}

void SynDefenseApp::RestoreSlot(std::uint32_t index, std::uint8_t value) {
  if (index < restored_.size() && value != 0) {
    restored_[index] = 1;
  }
}

}  // namespace redplane::apps
