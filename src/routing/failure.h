// Failure injection.
//
// Schedules fail-stop switch failures, recoveries, and link cuts, flipping
// the node/link state and notifying the routing fabric so reroutes happen
// after the configured detection delay — the sequence behind Fig. 14.
//
// Cuts are reference-counted per target, which makes the injector
// idempotent under overlapping schedules: a double-cut followed by a single
// heal leaves the link down (the heal only peels one layer), and a
// permanent crash injected during an in-flight flap is not resurrected when
// the flap's heal timer fires — that heal pays off the flap's cut, not the
// crash's.  The fuzz campaign's delta-debugging minimizer depends on this:
// it deletes arbitrary subsets of a schedule's events, so a heal may run
// without its cut (a no-op) or one of two overlapping cuts may vanish.
//
// Gray failures (DESIGN.md §15) are injected through the same object:
// asymmetric per-direction loss and one-way blackholes (partial partitions)
// on links, both depth-counted per (link, direction) like cuts.
#pragma once

#include <map>
#include <unordered_map>
#include <utility>

#include "obs/tracer.h"
#include "routing/ecmp.h"
#include "sim/link.h"
#include "sim/node.h"
#include "sim/simulator.h"

namespace redplane::routing {

class FailureInjector {
 public:
  FailureInjector(sim::Simulator& sim, RoutingFabric& fabric)
      : sim_(sim), fabric_(fabric) {}

  /// Fails `node` at `at`; if `recover_at` >= 0, brings it back then.
  void ScheduleNodeFailure(sim::Node* node, SimTime at, SimTime recover_at);

  /// Cuts `link` at `at`; if `recover_at` >= 0, restores it then.
  void ScheduleLinkFailure(sim::Link* link, SimTime at, SimTime recover_at);

  /// Gray failure: packets sent by endpoint `from` are dropped with
  /// probability `rate` between `at` and `clear_at` (the reverse direction
  /// is untouched).  Overlapping injections stack: the direction carries
  /// the maximum active rate, and the override clears only when the last
  /// injection is paid off.
  void ScheduleAsymmetricLoss(sim::Link* link, NodeId from, double rate,
                              SimTime at, SimTime clear_at);

  /// Gray failure: one-way blackhole — `from`'s packets all vanish while
  /// the reverse direction keeps delivering, so detection that relies on
  /// round trips sees a half-alive peer.  Equivalent to asymmetric loss at
  /// rate 1.
  void SchedulePartialPartition(sim::Link* link, NodeId from, SimTime at,
                                SimTime clear_at);

  /// Immediate versions (tests and schedule execution).  All are depth-
  /// counted: Fail* increments, Recover* decrements (never below zero) and
  /// only flips the target back up when the depth returns to zero.
  void FailNode(sim::Node* node);
  void RecoverNode(sim::Node* node);
  void FailLink(sim::Link* link);
  void RecoverLink(sim::Link* link);
  void ApplyAsymmetricLoss(sim::Link* link, NodeId from, double rate);
  void ClearAsymmetricLoss(sim::Link* link, NodeId from);

  /// Current cut depths (regression-test accessors).
  int NodeCutDepth(const sim::Node* node) const;
  int LinkCutDepth(const sim::Link* link) const;

 private:
  struct DirLoss {
    int depth = 0;
    double rate = 0.0;
  };

  sim::Simulator& sim_;
  RoutingFabric& fabric_;
  std::unordered_map<const sim::Node*, int> node_cuts_;
  std::unordered_map<const sim::Link*, int> link_cuts_;
  std::map<std::pair<const sim::Link*, NodeId>, DirLoss> dir_loss_;
  /// Injected faults are reported as environment events so the recovery
  /// tracker can open episodes and the auditor can see them.
  obs::TraceHandle trace_{"failure_injector"};
};

}  // namespace redplane::routing
