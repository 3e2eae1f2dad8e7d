// The stateful in-switch application interface.
//
// An application is the paper's Definition 1: a transition function from
// (input packet, current state) to (output packet, new state).  State is
// partitioned by a key derived from the packet (KeyOf); the per-partition
// state travels as a byte blob so RedPlane can replicate it without knowing
// its structure.  Applications written against this interface run unchanged
// in three harnesses: plain (no fault tolerance), RedPlane-enabled, and the
// baseline fault-tolerance schemes of §2.2.
#pragma once

#include <cstring>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "core/consistency.h"
#include "net/flow.h"
#include "net/packet.h"

namespace redplane::core {

/// Typed access helpers for POD state blobs.
template <typename T>
std::optional<T> StateAs(std::span<const std::byte> bytes) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (bytes.size() < sizeof(T)) return std::nullopt;
  T value;
  std::memcpy(&value, bytes.data(), sizeof(T));
  return value;
}

template <typename T>
void SetState(std::vector<std::byte>& bytes, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  bytes.resize(sizeof(T));
  std::memcpy(bytes.data(), &value, sizeof(T));
}

/// Environment handed to the app for one packet.
struct AppContext {
  SimTime now = 0;
  /// The processing switch's protocol address (for diagnostics).
  net::Ipv4Addr switch_ip;
};

/// Output of processing one packet.
struct ProcessResult {
  /// The packet to emit (normally the translated/forwarded input); empty
  /// means drop.  An app emits at most one packet per input, the one a
  /// replicated write piggybacks.
  std::optional<net::Packet> output;
  /// True if the per-partition state changed (triggers replication in
  /// linearizable mode).
  bool state_modified = false;
};

class SwitchApp {
 public:
  virtual ~SwitchApp() = default;

  virtual std::string_view name() const = 0;

  /// The partition key governing this packet's state, or nullopt if the
  /// packet does not touch application state (it is then plain-forwarded).
  /// Default: the IP 5-tuple.
  virtual std::optional<net::PartitionKey> KeyOf(const net::Packet& pkt) const;

  /// The app's declared consistency traits (see StateTraits in
  /// core/consistency.h).  Default: single-owner, the paper's base protocol.
  virtual StateTraits Traits() const { return {}; }

  /// The transition function.  `state` is this partition's current state
  /// (empty for a flow with no state yet); mutate it and set
  /// `state_modified` to record a write.
  virtual ProcessResult Process(AppContext& ctx, net::Packet pkt,
                                std::vector<std::byte>& state) = 0;

  /// True when per-flow state lives in a match table, which on Tofino-class
  /// hardware is only writable via the switch control plane; state installs
  /// then pay the PCIe/CPU latency (§5.1.2).  Register-backed state installs
  /// directly in the data plane.
  virtual bool StateInMatchTable() const { return false; }

  /// Clears any app-internal volatile structures (switch failure).  Apps
  /// whose entire state lives in the harness-managed per-flow blobs need not
  /// override.
  virtual void Reset() {}
};

}  // namespace redplane::core
