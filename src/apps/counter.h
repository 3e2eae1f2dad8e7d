// Per-flow packet counter (paper §6 app 6).
//
// The worst case for RedPlane: state is updated on every packet.  Two
// variants are evaluated:
//   * Sync-Counter — the counter is per-flow replicated state; every packet
//     is a write, so every packet leaves as a synchronous replication
//     request (linearizable mode),
//   * Async-Counter — counters live in a snapshot-capable register array
//     and are replicated periodically (bounded-inconsistency mode).
#pragma once

#include "core/app.h"
#include "core/snapshot.h"

namespace redplane::apps {

/// Synchronous variant: counter value is the flow's replicated state.
class SyncCounterApp : public core::SwitchApp {
 public:
  std::string_view name() const override { return "sync_counter"; }
  core::ProcessResult Process(core::AppContext& ctx, net::Packet pkt,
                              std::vector<std::byte>& state) override;
  /// Linearizable by default (the paper's evaluation mode), but the count
  /// is a monotone u64, so deployments may elect mergeable mode: the join
  /// is max(), lossless while a flow traverses one switch at a time.
  core::StateTraits Traits() const override {
    core::StateTraits t;
    t.merge = core::MergeMaxU64;
    t.measure = core::MeasureU64;
    return t;
  }
};

/// Asynchronous variant: counters live in one lazily-snapshottable register
/// array indexed by flow hash; replication is periodic.
class AsyncCounterApp : public core::SwitchApp, public core::Snapshottable {
 public:
  explicit AsyncCounterApp(std::size_t slots = 4096);

  std::string_view name() const override { return "async_counter"; }
  /// Replicated by periodic snapshot; same lattice as the sync variant:
  /// per-slot monotone u64 counters.
  core::StateTraits Traits() const override {
    core::StateTraits t;
    t.mode = core::ConsistencyMode::kSnapshot;
    t.merge = core::MergeMaxU64;
    t.measure = core::MeasureU64;
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

  /// Control-plane read of a flow's live counter.
  std::uint64_t Count(const net::FlowKey& flow) const;

 private:
  core::LazySnapshotter<std::uint64_t> counters_;
};

}  // namespace redplane::apps
