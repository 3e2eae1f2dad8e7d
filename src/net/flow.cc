#include "net/flow.h"

#include "common/hash.h"

namespace redplane::net {

std::uint64_t HashFlowKey(const FlowKey& key) {
  std::uint64_t h = 0x243f6a8885a308d3ull;
  h = HashCombine(h, key.src_ip.value);
  h = HashCombine(h, key.dst_ip.value);
  h = HashCombine(h, (static_cast<std::uint64_t>(key.src_port) << 32) |
                         (static_cast<std::uint64_t>(key.dst_port) << 16) |
                         static_cast<std::uint64_t>(key.proto));
  return h;
}

std::string ToString(const FlowKey& key) {
  std::string s = ToString(key.src_ip);
  s += ':';
  s += std::to_string(key.src_port);
  s += "->";
  s += ToString(key.dst_ip);
  s += ':';
  s += std::to_string(key.dst_port);
  s += key.proto == IpProto::kTcp ? "/tcp"
       : key.proto == IpProto::kUdp ? "/udp"
                                    : "/other";
  return s;
}

std::uint64_t HashPartitionKey(const PartitionKey& key) {
  switch (key.kind) {
    case PartitionKey::Kind::kFlow:
      return HashCombine(0x1, HashFlowKey(key.flow));
    case PartitionKey::Kind::kVlan:
      return HashCombine(0x2, key.vlan);
    case PartitionKey::Kind::kObject:
      return HashCombine(0x3, key.object);
  }
  return 0;
}

std::string ToString(const PartitionKey& key) {
  switch (key.kind) {
    case PartitionKey::Kind::kFlow:
      return "flow:" + ToString(key.flow);
    case PartitionKey::Kind::kVlan:
      return "vlan:" + std::to_string(key.vlan);
    case PartitionKey::Kind::kObject:
      return "obj:" + std::to_string(key.object);
  }
  return "?";
}

}  // namespace redplane::net
