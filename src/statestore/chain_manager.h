// Chain reconfiguration for the state store.
//
// The paper delegates store fault tolerance to "conventional mechanisms"
// (chain replication with a group of 3); this module supplies the
// conventional mechanism's control side: a manager that monitors replica
// liveness, and on a failure splices the chain around the dead replica
// (van Renesse & Schneider's three cases):
//
//  * head failure  — the successor becomes the new head; switches reach the
//    store through a dynamic head lookup, so their next request lands on it,
//  * middle failure — the predecessor adopts the successor, after resyncing
//    it with any updates the dead replica may have swallowed (modeled as a
//    management-plane state copy from the predecessor),
//  * tail failure  — the predecessor becomes the tail (and starts
//    answering switches).
//
// A recovered (or fresh) replica rejoins as the new tail after a resync
// from the current tail.  Requests in flight across a reconfiguration can
// be lost; RedPlane's switch-side retransmission makes that indistinguishable
// from packet loss, which the protocol already tolerates.
#pragma once

#include <vector>

#include "obs/tracer.h"
#include "sim/simulator.h"
#include "statestore/server.h"

namespace redplane::store {

struct ChainManagerConfig {
  /// How often the manager probes replica health.
  SimDuration probe_interval = Milliseconds(10);
  /// Time to copy a replica's state to a (re)joining one.
  SimDuration resync_delay = Milliseconds(5);
  /// Whether recovered replicas are re-admitted as tails.
  bool readmit_recovered = true;
};

class ChainManager {
 public:
  /// `replicas` is the initial chain order (head first).  The manager wires
  /// their successor/head roles; do not call SetChainSuccessor manually.
  ChainManager(sim::Simulator& sim, std::vector<StateStoreServer*> replicas,
               ChainManagerConfig config = {});

  /// Begins periodic health probing.
  void Start();

  /// The address switches should send requests to right now.  Pass
  /// `[&mgr](const PartitionKey&) { return mgr.HeadIp(); }` as the
  /// RedPlaneSwitch shard function for reconfiguration-transparent routing.
  net::Ipv4Addr HeadIp() const;

  /// Live replicas in chain order.
  const std::vector<StateStoreServer*>& ActiveChain() const { return active_; }

  /// Number of reconfigurations performed.
  std::uint64_t reconfigurations() const { return reconfigurations_; }

  /// Forces an immediate health check (tests).
  void CheckNow() { Probe(); }

 private:
  void Probe();
  void Rewire();
  void Readmit(StateStoreServer* replica);
  /// Reports each resynced record as durable-by-resync to the auditor
  /// (a rejoining replica's records are commit evidence, not re-applies).
  void EmitResyncCommits(
      const std::unordered_map<net::PartitionKey, FlowRecord>& flows);

  sim::Simulator& sim_;
  ChainManagerConfig config_;
  obs::TraceHandle trace_{"chain_mgr"};
  std::vector<StateStoreServer*> all_;
  std::vector<StateStoreServer*> active_;
  std::uint64_t reconfigurations_ = 0;
  bool started_ = false;
  /// Replicas currently being resynced (excluded from the chain).
  std::vector<StateStoreServer*> rejoining_;
};

}  // namespace redplane::store
