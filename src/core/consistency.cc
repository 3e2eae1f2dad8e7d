#include "core/consistency.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.h"

namespace redplane::core {

const char* ConsistencyModeName(ConsistencyMode mode) {
  switch (mode) {
    case ConsistencyMode::kSingleOwner: return "single_owner";
    case ConsistencyMode::kReplicatedRead: return "replicated_read";
    case ConsistencyMode::kMergeable: return "mergeable";
    case ConsistencyMode::kSnapshot: return "snapshot";
  }
  return "unknown";
}

namespace {

// The empty-span guards matter: an empty span's data() may be null, and
// memcpy from null is UB even for zero bytes (UBSan nonnull-attribute) —
// reachable from the wire via a kMergeDelta carrying empty state
// (fuzz-found).
std::uint64_t LoadU64(std::span<const std::byte> bytes) {
  std::uint64_t v = 0;
  if (!bytes.empty()) {
    std::memcpy(&v, bytes.data(), std::min(bytes.size(), sizeof(v)));
  }
  return v;
}

std::uint32_t LoadU32(std::span<const std::byte> bytes) {
  std::uint32_t v = 0;
  if (!bytes.empty()) {
    std::memcpy(&v, bytes.data(), std::min(bytes.size(), sizeof(v)));
  }
  return v;
}

}  // namespace

void MergeMaxU64(std::vector<std::byte>& into,
                 std::span<const std::byte> delta) {
  // Empty-join-empty stays empty: an absent state encodes 0, and widening
  // it to 8 zero bytes would break bytewise idempotence (merge(a, a) == a).
  if (into.empty() && delta.empty()) return;
  const std::uint64_t joined = std::max(LoadU64(into), LoadU64(delta));
  into.resize(sizeof(joined));
  std::memcpy(into.data(), &joined, sizeof(joined));
}

void MergeMaxU32Lanes(std::vector<std::byte>& into,
                      std::span<const std::byte> delta) {
  if (delta.size() > into.size()) into.resize(delta.size());
  for (std::size_t off = 0; off + 4 <= delta.size(); off += 4) {
    const std::uint32_t joined =
        std::max(LoadU32(std::span(into).subspan(off, 4)),
                 LoadU32(delta.subspan(off, 4)));
    std::memcpy(into.data() + off, &joined, sizeof(joined));
  }
  // A trailing partial lane (state not a multiple of 4) joins bytewise so
  // the merge stays idempotent for any blob length.
  const std::size_t tail = delta.size() - delta.size() % 4;
  for (std::size_t off = tail; off < delta.size(); ++off) {
    into[off] = std::max(into[off], delta[off]);
  }
}

void MergeOrBytes(std::vector<std::byte>& into,
                  std::span<const std::byte> delta) {
  if (delta.size() > into.size()) into.resize(delta.size());
  for (std::size_t i = 0; i < delta.size(); ++i) into[i] |= delta[i];
}

double MeasureU64(std::span<const std::byte> state) {
  return static_cast<double>(LoadU64(state));
}

double MeasureSumU32Lanes(std::span<const std::byte> state) {
  double sum = 0.0;
  std::size_t off = 0;
  for (; off + 4 <= state.size(); off += 4) {
    sum += LoadU32(state.subspan(off, 4));
  }
  for (; off < state.size(); ++off) {
    sum += std::to_integer<unsigned>(state[off]);
  }
  return sum;
}

double MeasurePopcount(std::span<const std::byte> state) {
  std::size_t bits = 0;
  for (const std::byte b : state) {
    bits += std::popcount(std::to_integer<unsigned>(b));
  }
  return static_cast<double>(bits);
}

StateTraits ResolveSpec(StateTraits spec, std::optional<ConsistencyMode> pin,
                        bool snapshottable) {
  if (pin.has_value()) spec.mode = *pin;
  if (spec.mode == ConsistencyMode::kMergeable && spec.merge == nullptr) {
    RP_LOG(kWarn) << "mergeable mode declared without a merge function; "
                     "falling back to single-owner";
    spec.mode = ConsistencyMode::kSingleOwner;
  }
  if (spec.mode == ConsistencyMode::kSnapshot && !snapshottable) {
    RP_LOG(kWarn) << "snapshot mode declared by an app that is not "
                     "Snapshottable; falling back to single-owner";
    spec.mode = ConsistencyMode::kSingleOwner;
  }
  if (spec.mode != ConsistencyMode::kReplicatedRead) {
    spec.staleness_bound = 0;
  } else if (spec.staleness_bound <= 0) {
    spec.staleness_bound = kDefaultStalenessBound;
  }
  if (spec.mode != ConsistencyMode::kMergeable) {
    spec.merge_interval = 0;
  } else if (spec.merge_interval <= 0) {
    spec.merge_interval = kDefaultMergeInterval;
  }
  return spec;
}

}  // namespace redplane::core
