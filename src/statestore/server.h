// The external state store server (§5.1.1).
//
// An in-memory key-value store partitioned by flow, with three RedPlane
// specific behaviours layered on top of plain storage:
//
//  * lease management — at most one switch owns a flow at a time; Init
//    requests for an owned flow are buffered until the lease lapses (the
//    TLA+ spec's BUFFERING branch),
//  * per-flow sequence filtering — replication requests carry monotonically
//    increasing sequence numbers and a stale sequence number is discarded
//    rather than applied (Fig. 6b); writes carry the full new state value so
//    gaps are safe to skip over,
//  * piggyback echo — the output packet riding on a replication request is
//    returned in the ack, making store memory the switch's delay line.
//
// Durability across server failures uses chain replication (group of 3 in
// the prototype): the head decides, every replica applies, and the tail
// answers the switch.  Decisions are stamped into the forwarded message so
// replicas never diverge.
//
// Zero-copy dispatch: requests are processed as `core::MsgView`s over the
// received payload buffer.  The head stamps its decision (`ack`, `seq`,
// `chain_hop`) by patching fixed-offset header fields in place, and every
// chain hop forwards the same bytes verbatim — state and piggyback are never
// re-serialized; state bytes are copied exactly once per replica, into the
// flow record.  Only cold paths (lease grants, denies, responses) build and
// encode a fresh `core::Msg`.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/protocol.h"
#include "net/packet.h"
#include "sim/node.h"

namespace redplane::store {

struct StoreConfig {
  /// Lease validity period granted to a switch (§5.3; 1 s in the prototype).
  SimDuration lease_period = Seconds(1);
  /// CPU time to process one request (kernel-bypass I/O; a few µs).
  SimDuration service_time = Microseconds(2);
  /// Upper bound on Init requests buffered per flow while another switch
  /// holds the lease; beyond this the store answers kLeaseDenied.
  std::size_t max_buffered_inits = 64;
  /// Optional application hook: produces the initial state for a brand-new
  /// flow (e.g. a NAT allocation from the shared port pool, §6).  When
  /// empty, new flows start with empty state.
  std::function<std::vector<std::byte>(const net::PartitionKey&)> initializer;

  /// TEST-ONLY protocol mutations: deliberately broken behaviors used to
  /// prove the audit monitors detect real protocol bugs.  All must stay
  /// false in production configs.
  struct ProtocolMutations {
    /// Disables the per-flow sequence filter (Fig. 6b): a stale or duplicate
    /// write is re-applied instead of being answered from durable state.
    bool disable_seq_filter = false;
    /// The head answers writes itself instead of forwarding down the chain:
    /// acks escape before chain-wide commit.
    bool early_chain_ack = false;
    /// Applies kMergeDelta by overwriting instead of joining: a slower
    /// writer's delta erases a faster writer's contribution, so the merged
    /// measure can decrease (caught by the merge_convergence monitor).
    bool overwrite_instead_of_merge = false;
  };
  ProtocolMutations mutations;
};

/// Per-flow lanes that only snapshot mode and replicated-read mode use.
struct FlowModeState {
  /// Snapshot slots for bounded-inconsistency state (index -> value, seq).
  std::map<std::uint32_t, std::pair<std::vector<std::byte>, std::uint64_t>>
      snapshot_slots;
  SimTime last_snapshot_at = 0;
  /// Replicated-read subscribers (DESIGN.md §14): switch IPs that asked for
  /// a copy of this flow's durable state on every applied write.
  std::vector<net::Ipv4Addr> subscribers;
};

/// A record's FlowModeState, held on the heap with value semantics: null
/// until the flow's first snapshot write or subscription, so a
/// single-owner record carries one pointer instead of 80 bytes of empty
/// containers.  Copying deep-copies the block (chain resync copies whole
/// records).
class FlowModeBlock {
 public:
  FlowModeBlock() = default;
  FlowModeBlock(const FlowModeBlock& other)
      : state_(other.state_ ? std::make_unique<FlowModeState>(*other.state_)
                            : nullptr) {}
  FlowModeBlock& operator=(const FlowModeBlock& other) {
    if (this != &other) *this = FlowModeBlock(other);
    return *this;
  }
  FlowModeBlock(FlowModeBlock&&) noexcept = default;
  FlowModeBlock& operator=(FlowModeBlock&&) noexcept = default;
  ~FlowModeBlock() = default;

  explicit operator bool() const { return state_ != nullptr; }
  const FlowModeState* operator->() const { return state_.get(); }
  FlowModeState* operator->() { return state_.get(); }
  /// The block, created empty on first use.
  FlowModeState& GetOrCreate() {
    if (!state_) state_ = std::make_unique<FlowModeState>();
    return *state_;
  }

 private:
  std::unique_ptr<FlowModeState> state_;
};

/// Per-flow record held by every replica of a shard.
struct FlowRecord {
  std::vector<std::byte> state;
  std::uint64_t last_applied_seq = 0;
  /// Lease owner switch IP; 0 when unowned.
  net::Ipv4Addr owner;
  /// True once the flow has been initialized (distinguishes "new flow" from
  /// "failover to existing state", §5.1.2 cases 1 and 2).
  bool exists = false;
  /// True once the state was built by CRDT merge deltas rather than
  /// seq-ordered writes.  Resync import picks its reconciliation rule from
  /// this: mergeable records are joined with the app merge function,
  /// seq-ordered records by last_applied_seq comparison.
  bool mergeable = false;
  SimTime lease_expiry = 0;
  /// Snapshot-mode and replicated-read-mode lanes; empty until used.
  FlowModeBlock mode;
};

class StateStoreServer : public sim::Node {
 public:
  StateStoreServer(sim::Simulator& sim, NodeId id, std::string name,
                   net::Ipv4Addr ip, StoreConfig config = {});

  net::Ipv4Addr ip() const { return ip_; }
  const StoreConfig& config() const { return config_; }

  /// Adopts the deployment's resolved consistency spec (DESIGN.md §14):
  /// its `merge` joins kMergeDelta writes (without one they overwrite, only
  /// safe with a single writer) and its `measure` is reported on every
  /// kMergeApplied record (without one, 0).
  void SetSpec(const core::StateTraits& spec) { spec_ = spec; }

  /// Configures this replica's successor in the chain (unset = tail).
  void SetChainSuccessor(net::Ipv4Addr next) { successor_ = next; }
  /// Makes this replica the tail.
  void ClearChainSuccessor() { successor_.reset(); }
  bool IsTail() const { return !successor_.has_value(); }
  /// Marks this replica as the chain head (only the head accepts switch
  /// requests; a single stand-alone server is both head and tail).
  void SetIsHead(bool head) { is_head_ = head; }

  void HandlePacket(net::Packet pkt, PortId in_port) override;

  /// Fail-stop: going down clears the in-memory state (DRAM) and cancels
  /// queued work; a recovered replica rejoins empty and must be resynced by
  /// the chain manager before serving.
  void SetUp(bool up) override;

  /// Full state export/import, used by chain reconfiguration to resync a
  /// (re)joining replica from a live one (management-plane copy).  Export
  /// returns a reference — the caller decides if and when to copy; Import
  /// is move-only so resync transfers ownership instead of copying twice.
  ///
  /// Import JOINS the snapshot into the local table instead of overwriting
  /// it.  The snapshot is taken at reconfiguration-decision time but lands
  /// resync_delay later, racing live traffic: a survivor may have applied
  /// newer writes (or joined newer merge deltas) in that window, and a
  /// blind overwrite rolls them back — observed by the fuzz campaign as a
  /// down-the-lattice merge regression on the middle replica after a tail
  /// crash.  Per key, the record with the higher last_applied_seq wins;
  /// mergeable records are joined with the app merge function, which is
  /// idempotent so importing a stale snapshot is a no-op.
  const std::unordered_map<net::PartitionKey, FlowRecord>& ExportFlows()
      const {
    return flows_;
  }
  void ImportFlows(std::unordered_map<net::PartitionKey, FlowRecord>&& flows);

  /// Read-only access for tests and reporting.
  const FlowRecord* Find(const net::PartitionKey& key) const;
  std::size_t NumFlows() const { return flows_.size(); }

  /// Sum of wall-clock-busy time, for utilization reporting.
  SimDuration busy_time() const { return busy_time_; }

  /// --- gray-failure hooks (fuzz campaign, DESIGN.md §15) ---------------
  /// Slow shard: multiplies the per-request service time.  1.0 = nominal;
  /// the shard keeps answering, just late — the failure detector never
  /// fires, which is exactly what makes it gray.  Survives SetUp cycles
  /// (it models the environment, not the replica's DRAM).
  void SetServiceTimeFactor(double factor) {
    service_factor_ = factor < 0 ? 0.0 : factor;
  }
  double service_time_factor() const { return service_factor_; }

  /// Capacity pressure: caps the flow table.  An Init for a brand-new flow
  /// while at or above the cap is answered kLeaseDenied (the switch's
  /// give-up/retry path); existing flows keep working.  0 = unlimited.
  void SetMaxFlows(std::size_t cap) { max_flows_ = cap; }
  std::size_t max_flows() const { return max_flows_; }

 private:
  struct PendingInit {
    core::Msg msg;
  };

  void ProcessMsg(core::MsgView msg);

  /// Unpacks a batch envelope and applies its sub-messages in order through
  /// the regular per-message handlers (so every trace record and metric fires
  /// per sub-message), then performs one chain traversal for the whole batch:
  /// a pure replica pass forwards the received envelope bytes verbatim; the
  /// head (whose decision stamps CoW the decided subs) rebuilds the
  /// envelope once from the surviving sub views.
  void ProcessBatchEnvelope(net::BufferView frame);

  void HandleInit(core::Msg msg);
  void HandleRepl(core::MsgView msg);
  void HandleRenewOnly(core::MsgView msg);
  void HandleReadBuffer(core::MsgView msg);
  void HandleSnapshot(core::MsgView msg);
  /// Mergeable-mode delta (DESIGN.md §14): no ownership check and no
  /// sequence filter — the join is commutative and idempotent, so any
  /// interleaving (or replay) of deltas converges.
  void HandleMergeDelta(core::MsgView msg);
  /// Replicated-read subscription: registers the switch for replica pushes
  /// and answers immediately with the current durable state.
  void HandleReplicaSubscribe(core::MsgView msg);

  /// Pushes the (just-updated) durable state of `key` to every registered
  /// subscriber except `writer` (head only; DESIGN.md §14).
  void PushToSubscribers(const net::PartitionKey& key, const FlowRecord& rec,
                         net::Ipv4Addr writer, std::uint64_t span);

  /// Applies the (head-stamped) decision carried by a chain-internal
  /// message, then forwards down-chain or answers the switch.
  void ApplyAndContinue(core::MsgView msg);
  /// Same, for a locally-built message: encodes it once, then runs the
  /// view-based path (local apply + verbatim forwarding).
  void ApplyAndContinue(core::Msg&& msg);

  /// Sends `msg` to `dst` out of the server's uplink port (encodes once).
  void SendMsg(net::Ipv4Addr dst, const core::Msg& msg);
  /// Sends already-encoded protocol bytes verbatim — no copy, no encode.
  void SendRaw(net::Ipv4Addr dst, net::BufferView payload);

  /// Forwards a decided request to the successor, or answers if tail.
  void ForwardOrRespond(core::MsgView msg);

  /// Builds and sends the response for a decided request.  The request's
  /// piggyback bytes are spliced into the response without being parsed.
  void Respond(const core::MsgView& request);

  FlowRecord& GetOrCreate(const net::PartitionKey& key);
  bool LeaseActiveByOther(const FlowRecord& rec, net::Ipv4Addr requester) const;

  /// Sends a kLeaseDenied ack for `key` to `requester`, echoing the denied
  /// request's observability span id.
  void SendDeny(const net::PartitionKey& key, net::Ipv4Addr requester,
                std::uint64_t last_applied_seq, std::uint64_t span = 0);

  /// Re-examines buffered Inits for `key` (called when a lease lapses).
  void PumpPendingInits(const net::PartitionKey& key);

  /// Releases buffered reads whose awaited sequence number has been applied.
  void PumpWaitingReads(const net::PartitionKey& key);

  /// Arms the per-key lease-expiry pump timers (deduplicated: at most one
  /// pending timer per key and kind, since the blocking lease's expiry only
  /// moves forward — an early fire just re-arms).  The timer ids live in
  /// the maps below so failure cancels them instead of letting a stale
  /// lease-lapse check fire into a recovered replica.
  void ArmInitPump(const net::PartitionKey& key, SimTime at);
  void ArmReadPump(const net::PartitionKey& key, SimTime at);
  void CancelPumps();

  /// Typed handles into counters() for every hot-path counter (registered
  /// once at construction; updated O(1) per request).
  struct Metrics {
    obs::Counter non_protocol_drops;
    obs::Counter malformed_drops;
    obs::Counter misdirected_drops;
    obs::Counter unexpected_acks;
    obs::Counter failures;
    obs::Counter init_reqs;
    obs::Counter init_dedup;
    obs::Counter init_buffered;
    obs::Counter lease_denied;
    obs::Counter grants_new;
    obs::Counter grants_migrate;
    obs::Counter repl_reqs;
    obs::Counter stale_writes;
    obs::Counter renew_reqs;
    obs::Counter read_buffer_reqs;
    obs::Counter snapshot_reqs;
    obs::Counter merge_reqs;
    obs::Counter subscribe_reqs;
    obs::Counter replica_pushes_tx;
    obs::Counter reads_parked;
    obs::Counter chain_forwards;
    obs::Counter responses;
    obs::Counter batch_envelopes;
    obs::Counter batch_subs;
    obs::Counter init_bytes_rx;
    obs::Counter repl_bytes_rx;
    obs::Counter renew_bytes_rx;
    obs::Counter read_buffer_bytes_rx;
    obs::Counter snapshot_bytes_rx;
    obs::Counter merge_bytes_rx;
    obs::Counter chain_bytes_rx;
    obs::Counter batch_bytes_rx;
    obs::Counter resp_bytes_tx;
  };
  Metrics m_;

  net::Ipv4Addr ip_;
  StoreConfig config_;
  /// The deployment's resolved consistency spec (SetSpec).
  core::StateTraits spec_;
  std::optional<net::Ipv4Addr> successor_;
  bool is_head_ = true;
  std::unordered_map<net::PartitionKey, FlowRecord> flows_;
  std::unordered_map<net::PartitionKey, std::deque<PendingInit>> pending_inits_;
  /// Parked reads keep a view of the original request buffer alive until
  /// their awaited write is durable (or the blocking lease lapses).
  std::unordered_map<net::PartitionKey, std::vector<core::MsgView>>
      waiting_reads_;
  /// Pending lease-expiry pump timers, one per key (see ArmInitPump).
  std::unordered_map<net::PartitionKey, std::uint64_t> init_pump_timers_;
  std::unordered_map<net::PartitionKey, std::uint64_t> read_pump_timers_;
  /// Effective per-request CPU cost under the slow-shard factor.
  SimDuration EffectiveServiceTime() const;

  SimTime busy_until_ = 0;
  SimDuration busy_time_ = 0;
  /// Gray-failure knobs (see SetServiceTimeFactor / SetMaxFlows).
  double service_factor_ = 1.0;
  std::size_t max_flows_ = 0;
  /// Bumped on failure so queued service completions are invalidated.
  std::uint64_t epoch_ = 0;
  /// True while ProcessBatchEnvelope drains sub-messages: ForwardOrRespond
  /// then defers chain forwarding into batch_forward_ instead of sending a
  /// packet per sub-message.
  bool in_batch_ = false;
  std::vector<net::BufferView> batch_forward_;
};

/// Wires `chain` (head first) as one replication chain: the first replica
/// is the head, each forwards to the next, and the last is the tail.
void WireChain(const std::vector<StateStoreServer*>& chain);

}  // namespace redplane::store
