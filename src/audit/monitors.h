// The standard RedPlane invariant monitors.
//
// Each monitor is a small incremental state machine over the tracer's
// subscriber stream; together they cover the safety properties of the
// paper's TLA+ appendix that are observable at protocol granularity.  All
// of them are designed to stay silent across clean failover runs — the
// tricky part is not detecting broken protocols but *not* flagging legal
// recovery behavior (duplicate acks served from durable state, post-failover
// lease migration, replica resync after fail-stop).  See each monitor for
// the rules.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "audit/auditor.h"

namespace redplane::audit {

/// Paper §4.2: at most one switch holds a live lease on a key at any time.
///
/// Tracks, per key, the set of components claiming a lease and each one's
/// *believed expiry* (kLeaseAcquired aux).  Because the switch's belief is
/// conservative (computed from request send time), a claimed expiry in the
/// past means the claim is certainly dead and is pruned; a second live
/// claim by a different component is a violation.  kLeaseReleased drops a
/// claim (key 0 = the component dropped everything, e.g. switch reset).
///
/// Mode-aware (DESIGN.md §14): the invariant only holds for flows admitted
/// under the single-owner mode.  Flows announce a weaker mode at admission
/// via kFlowAdmitted (aux = ConsistencyMode); lease-shaped events on such
/// keys are ignored — the monitor subscribes per-mode at flow admission,
/// not globally.  Keys with no admission event default to single-owner
/// (single-owner flows emit no admission record, keeping that path
/// bit-identical to the pre-refactor protocol).
class SingleOwnerMonitor : public Monitor {
 public:
  SingleOwnerMonitor() : Monitor("single_owner") {}
  void OnEvent(Auditor& auditor, const obs::TraceRecord& ev) override;
  void Reset() override {
    holders_.clear();
    exempt_.clear();
  }

 private:
  struct Holder {
    std::uint16_t component;
    SimTime expiry;
  };
  std::unordered_map<std::uint64_t, std::vector<Holder>> holders_;
  /// Keys admitted under a mode other than single-owner.
  std::unordered_map<std::uint64_t, bool> exempt_;
};

/// Paper §4.3: a replica's sequence filter is monotonic — once a replica
/// applied seq S for a key, it never applies S' <= S again (duplicates must
/// be answered from durable state, never re-applied).
///
/// Keyed by (component, key) so chain replicas are tracked independently.
/// kStoreReset clears a component's baselines: a fail-stopped replica lost
/// its DRAM records and legitimately re-baselines from resync.
class SeqMonotonicMonitor : public Monitor {
 public:
  SeqMonotonicMonitor() : Monitor("seq_monotonic") {}
  void OnEvent(Auditor& auditor, const obs::TraceRecord& ev) override;
  void Reset() override {
    last_applied_.clear();
    epoch_.clear();
  }

 private:
  // Baselines are keyed on hash(key, component, component-epoch); bumping a
  // component's epoch on kStoreReset makes its old baselines unreachable —
  // an O(1) "forget everything this replica knew".
  std::unordered_map<std::uint64_t, std::uint64_t> last_applied_;
  std::unordered_map<std::uint16_t, std::uint64_t> epoch_;
};

/// Paper §4.4 (chain replication): an output may be released to the
/// application only after its write is committed chain-wide — i.e. the tail
/// has processed it.
///
/// Durability evidence per key, in max-seq form, comes from three places:
/// kTailCommit (the tail answered a decided write), kDupAckDurable (the
/// head short-circuited a duplicate of an already-durable write), and
/// kResyncCommit (chain reconfiguration re-established a seq as durable on
/// a rejoining replica).  kAckReleased with seq above all known durable
/// evidence is a violation.
class ChainCommitMonitor : public Monitor {
 public:
  ChainCommitMonitor() : Monitor("chain_commit") {}
  void OnEvent(Auditor& auditor, const obs::TraceRecord& ev) override;
  void Reset() override { committed_.clear(); }

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> committed_;  // key → max seq
};

/// Paper §5 (bounded-inconsistency mode): observed snapshot staleness stays
/// within the configured ε.  kEpsilonSample events carry the observed
/// staleness (arg, ns) and the configured bound (aux, ns).  A per-key
/// episode latch keeps one sustained excursion from flooding the report.
class EpsilonBoundMonitor : public Monitor {
 public:
  EpsilonBoundMonitor() : Monitor("epsilon_bound") {}
  void OnEvent(Auditor& auditor, const obs::TraceRecord& ev) override;
  void Reset() override { in_violation_.clear(); }

 private:
  std::unordered_map<std::uint64_t, bool> in_violation_;  // key → latched
};

/// Replicated-read mode (DESIGN.md §14): a read answered from local state
/// must not observe staleness beyond the app's declared bound.  The switch
/// reports every locally served read (kLocalReadServed: arg = staleness ns,
/// aux = bound ns); a sample over the bound is a violation — but only for
/// flows admitted under replicated-read.  Mergeable flows also serve reads
/// locally (aux = 0, and their kFlowAdmitted says kMergeable): arbitrarily
/// stale local reads are *legal* there, so the monitor ignores them.  A
/// per-key latch keeps one sustained excursion from flooding the report.
class BoundedStalenessMonitor : public Monitor {
 public:
  BoundedStalenessMonitor() : Monitor("bounded_staleness") {}
  void OnEvent(Auditor& auditor, const obs::TraceRecord& ev) override;
  void Reset() override {
    mode_.clear();
    in_violation_.clear();
  }

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> mode_;  // key → mode
  std::unordered_map<std::uint64_t, bool> in_violation_;   // key → latched
};

/// Mergeable mode (DESIGN.md §14): the store's copy of a mergeable state
/// only moves up the join lattice.  Every applied merge reports the app's
/// declared monotone measure of the merged result (kMergeApplied, arg);
/// a decrease at the same replica means the store overwrote instead of
/// merging — exactly the bug the `overwrite_instead_of_merge` mutation
/// seeds.  kStoreReset bumps the replica's epoch: a fail-stopped replica
/// lost its DRAM copy and legitimately re-baselines.
class MergeConvergenceMonitor : public Monitor {
 public:
  MergeConvergenceMonitor() : Monitor("merge_convergence") {}
  void OnEvent(Auditor& auditor, const obs::TraceRecord& ev) override;
  void Reset() override {
    measure_.clear();
    epoch_.clear();
  }

 private:
  std::unordered_map<std::uint64_t, double> measure_;  // slot → last measure
  std::unordered_map<std::uint16_t, std::uint64_t> epoch_;
};

}  // namespace redplane::audit
