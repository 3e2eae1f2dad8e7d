// The consistency-mode spectrum (DESIGN.md §14).
//
// RedPlane's base protocol serializes every flow through one owner switch
// behind a lease: the strongest point on a spectrum the paper itself opens
// in §4.4.  Weaker points buy latency with tolerance:
//
//   * kSingleOwner    — the paper's protocol: lease-serialized ownership,
//                       per-write sync replication, reads buffered behind
//                       in-flight writes.
//   * kReplicatedRead — writes as single-owner; a read that would buffer is
//                       served from local state while the replica's
//                       staleness (age of the oldest un-acked write) is
//                       within the app's bound (ε-serializability, enforced
//                       by the `bounded_staleness` monitor and oracle).
//   * kMergeable      — no lease: every switch writes locally at zero RTT
//                       and periodically ships its full state, which the
//                       store joins with the app's merge.  Merges are joins
//                       (commutative, associative, idempotent), so replay is
//                       safe; `merge_convergence` checks a monotone measure.
//   * kSnapshot       — leased flows whose writes stay local; the app's
//                       Snapshottable structures replicate periodically
//                       (bounded inconsistency, §5.4).
//
// An app declares its point as a `StateTraits`; `ResolveSpec` combines it
// with the deployment's `RedPlaneConfig::mode_override` into the one spec
// the switch, the store and the benches read.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/types.h"

namespace redplane::core {

enum class ConsistencyMode : std::uint8_t {
  kSingleOwner = 0,
  kReplicatedRead = 1,
  kMergeable = 2,
  kSnapshot = 3,
};

/// Number of modes; wire decoding rejects mode bytes >= this.
constexpr std::uint8_t kNumConsistencyModes = 4;

const char* ConsistencyModeName(ConsistencyMode mode);

/// Joins `delta` into `into`.  Must be commutative, associative, and
/// idempotent over the app's state encoding (property-tested per app in
/// tests/property_test.cc).
using MergeFn = void (*)(std::vector<std::byte>& into,
                         std::span<const std::byte> delta);

/// A monotone measure of a state blob: merging may only grow it (join
/// dominance).  The store emits it on every applied merge so the
/// merge_convergence monitor can check convergence online without
/// understanding the state encoding.
using MeasureFn = double (*)(std::span<const std::byte> state);

/// --- reusable join-semilattice merges -------------------------------------
/// All three are joins (max / bitwise-or), not sums: a join is idempotent,
/// so a delta applied twice — retransmission, replay after failover — is a
/// no-op, which is exactly what makes the mergeable mode safe without the
/// per-flow sequence filter.  Max is also lossless for per-flow counters in
/// this protocol: a flow traverses one switch at a time, so each switch's
/// local count is a prefix of the true count and the max over switches is
/// the true value.

/// u64 little-endian max.  Shorter operand is treated as zero-extended.
void MergeMaxU64(std::vector<std::byte>& into, std::span<const std::byte> delta);

/// Lane-wise max over an array of little-endian u32 lanes (count-min sketch
/// rows, heavy-hitter tables).  `into` grows to the longer operand.
void MergeMaxU32Lanes(std::vector<std::byte>& into,
                      std::span<const std::byte> delta);

/// Bytewise bitwise-or (bloom filters, spreader bitmaps).
void MergeOrBytes(std::vector<std::byte>& into, std::span<const std::byte> delta);

/// Monotone measures paired with the merges above.
double MeasureU64(std::span<const std::byte> state);
double MeasureSumU32Lanes(std::span<const std::byte> state);
double MeasurePopcount(std::span<const std::byte> state);

/// Defaults used when an app declares a weaker mode without tuning knobs.
constexpr SimDuration kDefaultStalenessBound = Milliseconds(1);
constexpr SimDuration kDefaultMergeInterval = Microseconds(100);

/// An app's declared point on the spectrum (SwitchApp::Traits) and, once
/// resolved, the spec one deployment runs.  The default is the paper's
/// single-owner protocol.  The declaration says what the app *tolerates*;
/// `RedPlaneConfig::mode_override` says what the deployment *gets*.
struct StateTraits {
  ConsistencyMode mode = ConsistencyMode::kSingleOwner;
  /// Join for mergeable state (the store joins kMergeDelta writes with it).
  /// Required for kMergeable; declared alongside another mode it marks the
  /// app mergeable-*capable* for deployments that pin kMergeable.
  MergeFn merge = nullptr;
  /// Monotone measure paired with `merge` (merge_convergence oracle).
  MeasureFn measure = nullptr;
  /// kReplicatedRead: max age of the local replica a read may observe.
  SimDuration staleness_bound = 0;
  /// kMergeable: period between merge-delta pushes.
  SimDuration merge_interval = 0;
};

/// Resolves the app's declared `spec` for a deployment.  `pin` (the
/// deployment's mode_override) wins over the declared mode.  The staleness
/// bound survives only under kReplicatedRead and the merge interval only
/// under kMergeable, each defaulted when not positive.  An unrunnable mode
/// falls back to single-owner with a warning: kMergeable without a merge
/// function, and kSnapshot for an app that is not `snapshottable`.
StateTraits ResolveSpec(StateTraits spec, std::optional<ConsistencyMode> pin,
                        bool snapshottable);

}  // namespace redplane::core
