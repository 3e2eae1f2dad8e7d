// Event taxonomy for the one instrumentation stream.
//
// Every fact a component reports is one event kind, emitted once through a
// TraceHandle (obs/tracer.h).  The table below routes each kind to its
// sinks: the tracer's ring (Chrome export, latency breakdown, causal
// slices), the tracer's subscribers (the auditor's invariant monitors, the
// recovery tracker, the campaign's oracle samplers), or both.
//
// The ring kinds follow the RedPlane protocol lifecycle: a packet enters the
// fabric (kIngress), misses or hits its lease at a switch (kLeaseMiss /
// kLeaseGrant), gets its write replicated to the state store
// (kReplicationSent -> kStoreRecv -> kStoreServiceStart -> kStoreApplied ->
// kStoreResponded -> kAckReleased), splitting queue wait from service time
// at the store, may loop through the network-buffering read path
// (kBufferedRead / kBufferedReadLoop), may be retransmitted from the mirror
// buffer (kMirrored / kRetransmit), and on switch failure re-homes its flow
// state at a standby (kFailoverRehome).  Infrastructure events (link drops,
// node failure/recovery, reroutes, control-plane installs) interleave with
// the packet lifecycle so a trace explains *why* a tail sample is slow.
//
// The subscriber kinds are protocol-level claims checked against the
// paper's safety invariants: "this switch now holds a lease on key K until
// T", "this replica applied write seq S", "the tail committed seq S".
// Their `flow` is the pre-hashed partition key (net::HashPartitionKey), the
// same id space as the ring kinds, so a violation joins against the ring.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>

namespace redplane::obs {

enum class Ev : std::uint8_t {
  // --- sim layer ---
  kIngress = 0,       // packet admitted at a host edge (flow id = flow hash)
  kHostRecv,          // packet delivered to a host sink
  kLinkDrop,          // link dropped a packet (down / loss / stale epoch)
  kLinkDown,          // link transitioned to down
  kLinkUp,            // link transitioned to up
  kNodeFailure,       // node fail-stop
  kNodeRecovery,      // node came back up
  // --- routing layer ---
  kReroute,           // fabric recomputed routes after a topology change;
                      //   arg = node count (closes failure detection)
  // --- dataplane layer ---
  kPipeline,          // packet entered a switch pipeline pass
  kRecirculate,       // packet recirculated through the pipeline
  kMirrored,          // protocol request copied into the mirror buffer
  kMirrorCleared,     // mirror entries released by a cumulative ack
  kCpInstalled,       // control-plane table install completed
  kPktgenBatch,       // packet generator emitted a batch
  // --- protocol state machine (switch side) ---
  kLeaseMiss,         // packet arrived for a key with no active lease
  kLeaseGrant,        // lease granted for a fresh (unowned) key
  kFailoverRehome,    // lease migrated: flow re-homed after a failure
  kReplicationSent,   // write replication request sent to the store
  kRenewSent,         // periodic lease renewal sent
  kRenewAck,          // lease renewal acknowledged
  kBufferedRead,      // read-intensive packet sent into the network buffer
  kBufferedReadLoop,  // buffered read looped back, still waiting for lease
  kRetransmit,        // mirror-buffered request retransmitted
  kRetxGiveUp,        // retransmission abandoned after the give-up horizon
  kAckReleased,       // write/read ack consumed, output released; seq = ack
  kLeaseDenied,       // store denied the lease (capacity / ownership)
  kSnapshotSent,      // bounded-inconsistency snapshot slot sent
  kOutputDropped,     // held output dropped (reset / failure)
  // --- state store ---
  kStoreRecv,         // protocol request received by a store replica
  kStoreServiceStart, // request left the service queue; CPU work begins
  kStoreApplied,      // write applied to the store's flow record;
                      //   arg = state bytes, aux = previous applied seq
  kStoreBuffered,     // init buffered behind an unexpired lease
  kStoreReadParked,   // buffered read parked behind in-flight writes
  kStoreDenied,       // store rejected a request (stale / misdirected)
  kStoreResponded,    // store sent its response/ack
  // --- replication batching (DESIGN.md §10) ---
  kBatchFlushed,      // coalescer flushed a batch envelope toward a shard
  kStoreBatchRecv,    // store received a batch envelope (per-sub events follow)
  // --- protocol claims, switch side ---
  kLeaseAcquired,     // lease installed or extended; aux = believed expiry
  kLeaseReleased,     // lease dropped (deny / give-up / reset); flow 0 = all
  kEpsilonSample,     // observed staleness; arg = ns, aux = configured ε
  kLeaseRequested,    // switch sent a lease Init request for a key
  kOutputServed,      // an output packet was released toward its destination
  // --- protocol claims, state store ---
  kStoreFiltered,     // stale write filtered by the sequence check
  kDupAckDurable,     // head acked a duplicate from already-durable state
  kTailCommit,        // tail answered a decided write: committed chain-wide
  kStoreReset,        // replica fail-stopped; its DRAM records are gone
  // --- protocol claims, chain manager ---
  kChainReconfig,     // chain membership changed; aux = new chain length
  kResyncCommit,      // resync import re-established seq as durable
  // --- environment (failure injector) ---
  kNodeDown,          // node fail-stop injected; aux = node id
  kNodeUp,            // node recovery injected; aux = node id
  kLinkCut,           // link cut injected
  kLinkRestored,      // link restore injected
  kGrayFault,         // gray failure injected (slow shard, asymmetric loss,
                      //   partial partition, capacity cap, ECMP rehash);
                      //   aux = FaultKind ordinal / direction, arg = magnitude
  kGrayCleared,       // the matching gray failure cleared
  // --- auditor-internal ---
  kHistoryClosed,     // a per-flow history was closed and checked
  // --- consistency-mode spectrum (DESIGN.md §14) ---
  kFlowAdmitted,      // flow admitted under a non-default mode;
                      //   aux = ConsistencyMode (monitors subscribe here)
  kLocalReadServed,   // read answered from local state without store RTT;
                      //   arg = staleness ns, aux = declared bound ns
                      //   (0 in mergeable mode: no bound applies)
  kMergeEmitted,      // switch pushed a merge delta; arg = local measure
  kMergeApplied,      // store joined a merge delta; arg = merged measure
  kReplicaPushed,     // store pushed state to a read-replica subscriber
};

/// Total number of event kinds (for tables indexed by Ev).
inline constexpr int kNumEvents = static_cast<int>(Ev::kReplicaPushed) + 1;

/// Where a kind's records go (a bit mask).
enum Sink : std::uint8_t {
  kRing = 1,         // the tracer's bounded ring
  kSubscribers = 2,  // the tracer's subscriber list
  kBoth = kRing | kSubscribers,
};

struct EvInfo {
  Ev ev;
  const char* name;  // stable display name (used in exports and reports)
  std::uint8_t sinks;
};

/// The routing table: one row per kind, in enum order.
inline constexpr EvInfo kEvTable[] = {
    {Ev::kIngress, "ingress", kRing},
    {Ev::kHostRecv, "host_recv", kRing},
    {Ev::kLinkDrop, "link_drop", kRing},
    {Ev::kLinkDown, "link_down", kRing},
    {Ev::kLinkUp, "link_up", kRing},
    {Ev::kNodeFailure, "node_failure", kRing},
    {Ev::kNodeRecovery, "node_recovery", kRing},
    {Ev::kReroute, "reroute", kBoth},
    {Ev::kPipeline, "pipeline", kRing},
    {Ev::kRecirculate, "recirculate", kRing},
    {Ev::kMirrored, "mirrored", kRing},
    {Ev::kMirrorCleared, "mirror_cleared", kRing},
    {Ev::kCpInstalled, "cp_installed", kRing},
    {Ev::kPktgenBatch, "pktgen_batch", kRing},
    {Ev::kLeaseMiss, "lease_miss", kRing},
    {Ev::kLeaseGrant, "lease_grant", kBoth},
    {Ev::kFailoverRehome, "failover_rehome", kBoth},
    {Ev::kReplicationSent, "replication_sent", kRing},
    {Ev::kRenewSent, "renew_sent", kRing},
    {Ev::kRenewAck, "renew_ack", kRing},
    {Ev::kBufferedRead, "buffered_read", kRing},
    {Ev::kBufferedReadLoop, "buffered_read_loop", kRing},
    {Ev::kRetransmit, "retransmit", kRing},
    {Ev::kRetxGiveUp, "retx_give_up", kRing},
    {Ev::kAckReleased, "ack_released", kBoth},
    {Ev::kLeaseDenied, "lease_denied", kRing},
    {Ev::kSnapshotSent, "snapshot_sent", kRing},
    {Ev::kOutputDropped, "output_dropped", kRing},
    {Ev::kStoreRecv, "store_recv", kRing},
    {Ev::kStoreServiceStart, "store_service_start", kRing},
    {Ev::kStoreApplied, "store_applied", kBoth},
    {Ev::kStoreBuffered, "store_buffered", kRing},
    {Ev::kStoreReadParked, "store_read_parked", kRing},
    {Ev::kStoreDenied, "store_denied", kRing},
    {Ev::kStoreResponded, "store_responded", kRing},
    {Ev::kBatchFlushed, "batch_flushed", kRing},
    {Ev::kStoreBatchRecv, "store_batch_recv", kRing},
    {Ev::kLeaseAcquired, "lease_acquired", kSubscribers},
    {Ev::kLeaseReleased, "lease_released", kSubscribers},
    {Ev::kEpsilonSample, "epsilon_sample", kSubscribers},
    {Ev::kLeaseRequested, "lease_requested", kSubscribers},
    {Ev::kOutputServed, "output_served", kSubscribers},
    {Ev::kStoreFiltered, "store_filtered", kSubscribers},
    {Ev::kDupAckDurable, "dup_ack_durable", kSubscribers},
    {Ev::kTailCommit, "tail_commit", kSubscribers},
    {Ev::kStoreReset, "store_reset", kSubscribers},
    {Ev::kChainReconfig, "chain_reconfig", kSubscribers},
    {Ev::kResyncCommit, "resync_commit", kSubscribers},
    {Ev::kNodeDown, "node_down", kSubscribers},
    {Ev::kNodeUp, "node_up", kSubscribers},
    {Ev::kLinkCut, "link_cut", kSubscribers},
    {Ev::kLinkRestored, "link_restored", kSubscribers},
    {Ev::kGrayFault, "gray_fault", kSubscribers},
    {Ev::kGrayCleared, "gray_cleared", kSubscribers},
    {Ev::kHistoryClosed, "history_closed", kSubscribers},
    {Ev::kFlowAdmitted, "flow_admitted", kSubscribers},
    {Ev::kLocalReadServed, "local_read_served", kSubscribers},
    {Ev::kMergeEmitted, "merge_emitted", kSubscribers},
    {Ev::kMergeApplied, "merge_applied", kSubscribers},
    {Ev::kReplicaPushed, "replica_pushed", kSubscribers},
};

constexpr bool EvTableInEnumOrder() {
  if (std::size(kEvTable) != static_cast<std::size_t>(kNumEvents)) {
    return false;
  }
  for (std::size_t i = 0; i < std::size(kEvTable); ++i) {
    if (static_cast<std::size_t>(kEvTable[i].ev) != i) return false;
  }
  return true;
}
static_assert(EvTableInEnumOrder(), "kEvTable must list every Ev in order");

/// Stable display name for an event kind (used in trace exports).
constexpr const char* EvName(Ev ev) {
  return kEvTable[static_cast<std::size_t>(ev)].name;
}

/// The sinks a kind's records go to (a Sink mask).
constexpr std::uint8_t EvSinks(Ev ev) {
  return kEvTable[static_cast<std::size_t>(ev)].sinks;
}

}  // namespace redplane::obs
