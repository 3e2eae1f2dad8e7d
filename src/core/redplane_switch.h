// The RedPlane-enabled application: the switch-side half of the protocol.
//
// Wraps a SwitchApp (the developer's P4 program analogue) in the RedPlane
// control blocks of paper §5/§6 and Appendix B:
//
//  * lease acquisition & migration — a packet for a flow with no local lease
//    triggers a kLeaseNewReq; the grant installs the flow's state (via the
//    control plane when the app keeps state in match tables) and releases
//    the piggybacked packet,
//  * synchronous replication (every mode but kSnapshot) — a state-modifying
//    packet increments the flow's sequence number and leaves as a
//    kLeaseRenewReq carrying the new state and the output packet; the output
//    is released only when the store's ack returns it,
//  * network buffering — reads that arrive while writes are in flight (and
//    packets that arrive while the lease grant is pending) loop through the
//    store as kReadBufferReq, using the network as buffer memory,
//  * sequencing & retransmission — every state-bearing request is mirrored
//    (truncated to the replication header) into the switch's packet buffer
//    and resent if unacknowledged within the timeout (§5.2),
//  * lease renewal — read-centric flows renew every renew_interval,
//  * periodic snapshot replication (kSnapshot) — for apps implementing
//    Snapshottable, the packet generator emits per-slot kSnapshotRepl
//    bursts every snapshot_period (§5.4).
//
// Which of these run is decided by one value: the app's StateTraits,
// resolved once at construction against RedPlaneConfig::mode_override
// (core/consistency.h, DESIGN.md §14).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>

#include "audit/diag.h"
#include "core/app.h"
#include "core/epsilon.h"
#include "core/flow_table.h"
#include "core/protocol.h"
#include "core/snapshot.h"
#include "dataplane/pipeline.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace redplane::core {

struct RedPlaneConfig {
  /// Lease validity period (must match the store's; 1 s in the prototype).
  SimDuration lease_period = Seconds(1);
  /// Explicit renewal cadence for read-centric flows (0.5 s in the paper).
  SimDuration renew_interval = Milliseconds(500);
  /// Retransmit an unacknowledged request after this long.
  SimDuration request_timeout = Microseconds(500);
  /// Mirror truncation: bytes of a request kept for retransmission
  /// (replication header + state value; never the piggybacked output
  /// unless mirror_include_piggyback is set).
  std::size_t mirror_truncate_bytes = 128;
  /// Ablation switch: mirror the full request including the piggybacked
  /// output (what RedPlane deliberately avoids; §5.2).
  bool mirror_include_piggyback = false;
  /// Give up on a request after this many retransmissions (the flow entry
  /// is dropped and re-initialized by the next packet).
  std::uint32_t max_retransmissions = 50;
  /// Snapshot period T_snap for kSnapshot mode.
  SimDuration snapshot_period = Milliseconds(1);
  /// Max loops through the network buffer while awaiting a lease grant
  /// before a packet is dropped (loss is permitted by the model).
  std::uint32_t max_init_loops = 64;
  /// --- replication coalescing (batch envelope, DESIGN.md §10) ---
  /// Hold outgoing write-replication (kLeaseRenewReq) and renew-only
  /// requests to the same shard for up to this long, then flush them as one
  /// batch envelope.  0 (the default) disables coalescing: every request
  /// leaves immediately as its own packet, bit-for-bit today's behaviour.
  SimDuration coalesce_delay = 0;
  /// Flush a pending batch early once it holds this many sub-messages...
  std::size_t coalesce_max_msgs = 16;
  /// ...or this many encoded payload bytes.
  std::size_t coalesce_max_bytes = 4096;
  /// TEST-ONLY protocol mutation: inflates the switch's believed lease
  /// expiry by this much beyond the conservative send-time derivation,
  /// breaking the invariant that the switch never outlives the store's
  /// lease.  Used to prove the audit SingleOwnerMonitor catches broken
  /// lease handling; must stay 0 in production configs.
  SimDuration mutation_lease_extension = 0;
  /// --- consistency-mode spectrum (DESIGN.md §14) ---
  /// Pins the deployment's consistency mode regardless of the app's
  /// declared StateTraits.  nullopt (the default) uses the app's
  /// declaration; pinning kSingleOwner explicitly is bit-identical to the
  /// default for single-owner apps (A/B-tested in tests/consistency_test).
  std::optional<ConsistencyMode> mode_override = std::nullopt;
  /// TEST-ONLY protocol mutation: replicated-read serves local reads
  /// without checking the staleness bound (the served staleness is still
  /// honestly reported), so stale reads beyond the bound escape.  Proves the
  /// bounded_staleness monitor catches them; must stay false in production.
  bool mutation_stale_reads = false;
};

class RedPlaneSwitch : public dp::PipelineHandler {
 public:
  /// `shard_for` maps a partition key to the responsible state-store (chain
  /// head) address — the preconfigured lookup table of §5.1.2.
  RedPlaneSwitch(dp::SwitchNode& node, SwitchApp& app,
                 std::function<net::Ipv4Addr(const net::PartitionKey&)>
                     shard_for,
                 RedPlaneConfig config = {});
  ~RedPlaneSwitch() override;

  // PipelineHandler:
  void Process(dp::SwitchContext& ctx, net::Packet pkt) override;
  void Reset() override;
  void OnRecovery() override;

  /// Starts periodic snapshot replication of the app's Snapshottable
  /// structures.  Call it once after construction, on the one switch that
  /// snapshots, in kSnapshot mode only (otherwise it warns and does
  /// nothing).
  void StartSnapshotReplication();

  const FlowTable& flow_table() const { return flows_; }
  obs::MetricRegistry& stats() { return stats_; }
  EpsilonTracker* epsilon_tracker() { return epsilon_.get(); }
  const RedPlaneConfig& config() const { return config_; }
  /// The resolved consistency spec this deployment runs under; stores hand
  /// its merge/measure to their kMergeDelta joins.
  const StateTraits& spec() const { return spec_; }

  /// Bandwidth accounting: bytes of protocol requests/responses vs original
  /// packets seen, for the Fig. 10 bench.
  double protocol_request_bytes() const { return m_.req_bytes.value(); }
  double protocol_response_bytes() const { return m_.resp_bytes.value(); }
  double original_bytes() const { return m_.orig_bytes.value(); }

 private:
  /// Handles a protocol ack addressed to this switch.  Operates on the
  /// received bytes directly; the piggybacked packet is parsed only on the
  /// paths that consume it.
  void HandleAck(dp::SwitchContext& ctx, MsgView msg);

  /// Handles a normal application packet.
  void HandleAppPacket(dp::SwitchContext& ctx, net::Packet pkt);

  /// Mergeable multi-writer path (DESIGN.md §14): local admission, zero-RTT
  /// writes, outputs released immediately; modified state is marked dirty
  /// and shipped to the store by the periodic merge tick.
  void HandleMergeablePacket(dp::SwitchContext& ctx,
                             const net::PartitionKey& key, net::Packet pkt);

  /// Arms the periodic merge-delta push if not already pending.
  void EnsureMergeTick();
  /// Ships every dirty mergeable flow's state as a kMergeDelta.
  void MergeTick(std::uint64_t epoch);

  /// Runs the app on `pkt` under an active lease and replicates/releases
  /// per the consistency mode.  `slot` is the flow's table slot.
  void RunApp(dp::SwitchContext& ctx, const net::PartitionKey& key,
              std::uint32_t slot, net::Packet pkt);

  /// Sends `msg` to the store shard for its key, optionally mirroring it
  /// for retransmission.
  void SendRequest(const Msg& msg, bool mirror);

  /// Appends an encoded request to the shard's pending batch, scheduling a
  /// flush after coalesce_delay (or flushing now on a count/byte cap).
  void EnqueueForBatch(net::Ipv4Addr shard, net::BufferView msg);

  /// Sends the shard's pending batch: a lone message goes out unwrapped,
  /// two or more as one batch envelope.
  void FlushBatch(net::Ipv4Addr shard);

  /// Arms (or re-arms) the mirrored entry's retransmit deadline: one timer
  /// per in-flight request, stored in the entry's timer lane.  Firing cost
  /// is O(1) per due entry — there is no whole-table scan.
  void ArmMirrorTimer(dp::MirrorTable::Handle h);
  /// A mirrored request's retransmit deadline fired: resend the mirrored
  /// bytes (or give up past the horizon) and re-arm.
  void OnMirrorTimeout(dp::MirrorTable::Handle h);
  /// Abandons a mirrored request past its give-up horizon (and, for an
  /// Init, forgets the zombie kInitPending flow).
  void GiveUpMirror(dp::MirrorTable::Handle h);

  /// Arms the flow's renew-timeout timer when an explicit renewal leaves;
  /// fires to un-wedge renew_in_flight if the renewal or its ack was lost.
  void ArmRenewTimer(std::uint32_t slot);
  void OnRenewTimeout(std::uint32_t slot, std::uint32_t gen);
  /// Cancels the flow's pending renew timer, if any.
  void CancelRenewTimer(std::uint32_t slot);

  /// Periodic ε-bound audit in snapshot mode.
  void EpsilonAuditTick(std::uint64_t epoch);

  /// Emits one snapshot replication burst.
  void SnapshotBurstSlot(std::uint32_t index);

  /// Releases an output packet toward its destination.  `key` identifies
  /// the flow the output belongs to, for the kOutputServed recovery record
  /// (per-flow downtime is measured between served outputs).
  void ReleaseOutput(dp::SwitchContext& ctx, const net::PartitionKey& key,
                     net::Packet pkt);

  /// Renders the live lease/flow table (failure diagnostics).
  void DumpLeaseTable(std::ostream& os) const;

  /// Fresh observability span id for a request this switch originates.
  /// Derived from the switch IP and a per-switch counter, so ids are unique
  /// across switches yet fully deterministic (byte-identical traces for
  /// identical seeds).
  std::uint64_t NewSpanId() {
    return (static_cast<std::uint64_t>(node_.ip().value) << 32) | ++next_span_;
  }

  dp::SwitchNode& node_;
  SwitchApp& app_;
  std::function<net::Ipv4Addr(const net::PartitionKey&)> shard_for_;
  RedPlaneConfig config_;
  /// The app's StateTraits resolved against config_.mode_override.
  const StateTraits spec_;
  FlowTable flows_;
  obs::MetricRegistry stats_;
  obs::TraceHandle trace_;
  audit::DiagToken diag_;

  /// Typed handles into stats_ for every hot-path counter (registered once
  /// at construction; updated O(1) per packet).
  struct Metrics {
    obs::Counter app_pkts;
    obs::Counter orig_bytes;
    obs::Counter req_bytes;
    obs::Counter resp_bytes;
    obs::Counter reqs_sent;
    obs::Counter inits_sent;
    obs::Counter renewals_sent;
    obs::Counter writes_replicated;
    obs::Counter reads_buffered;
    obs::Counter init_loop_buffered;
    obs::Counter init_loop_drops;
    obs::Counter grants_new;
    obs::Counter grants_migrate;
    obs::Counter stale_grants;
    obs::Counter cp_installs;
    obs::Counter lease_denials;
    obs::Counter retransmits;
    obs::Counter retx_give_ups;
    obs::Counter renew_timeouts;
    obs::Counter batch_envelopes;
    obs::Histogram batch_msgs;
    obs::Histogram batch_bytes;
    obs::Histogram coalesce_wait_us;
    obs::Counter outputs_released;
    obs::Counter malformed_acks;
    obs::Counter snapshot_slots_sent;
    obs::Counter epsilon_violations;
    obs::Histogram write_rtt_us;
    obs::Gauge epsilon_bound_us;
    obs::Histogram epsilon_staleness_us;
    // Consistency-mode spectrum (DESIGN.md §14).
    obs::Counter local_reads_served;
    obs::Counter merge_deltas_sent;
    obs::Counter merge_acks;
    obs::Counter replica_pushes_rx;
    obs::Histogram local_read_staleness_us;
  };
  Metrics m_;

  /// Mergeable mode: (slot, gen) of flows with un-pushed local writes, and
  /// whether the periodic push is scheduled.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> merge_dirty_;
  bool merge_tick_armed_ = false;

  // Snapshot mode: the app's snapshot interface, set once replication
  // starts.
  Snapshottable* snapshottable_ = nullptr;
  std::unique_ptr<EpsilonTracker> epsilon_;
  std::uint64_t snapshot_round_ = 0;

  // Retransmission, init/renew send-time, and write-span bookkeeping all
  // live in the flow/mirror tables' per-entry lanes now — released with
  // their entry, so there are no side maps to leak.
  std::uint64_t epoch_ = 0;
  std::uint64_t next_span_ = 0;

  /// Per-shard replication coalescer (active only when coalesce_delay > 0).
  /// `gen` invalidates the delayed flush when a cap-triggered flush (or a
  /// Reset) beats the timer.
  struct PendingBatch {
    std::vector<net::BufferView> msgs;
    std::size_t bytes = 0;
    SimTime opened_at = 0;
    std::uint64_t gen = 0;
  };
  std::unordered_map<std::uint32_t, PendingBatch> coalesce_;  // by shard IP
};

}  // namespace redplane::core
