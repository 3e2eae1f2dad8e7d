#include "statestore/server.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "obs/profiler.h"

namespace redplane::store {

using core::AckKind;
using core::Msg;
using core::MsgType;
using core::MsgView;

namespace {
obs::ProfSite g_prof_handle_packet("store.handle_packet");
obs::ProfSite g_prof_process("store.process");
}  // namespace

StateStoreServer::StateStoreServer(sim::Simulator& sim, NodeId id,
                                   std::string name, net::Ipv4Addr ip,
                                   StoreConfig config)
    : Node(sim, id, std::move(name)), ip_(ip), config_(config) {
  auto& reg = counters();
  m_.non_protocol_drops = reg.RegisterCounter("non_protocol_drops");
  m_.malformed_drops = reg.RegisterCounter("malformed_drops");
  m_.misdirected_drops = reg.RegisterCounter("misdirected_drops");
  m_.unexpected_acks = reg.RegisterCounter("unexpected_acks");
  m_.failures = reg.RegisterCounter("failures");
  m_.init_reqs = reg.RegisterCounter("init_reqs");
  m_.init_dedup = reg.RegisterCounter("init_dedup");
  m_.init_buffered = reg.RegisterCounter("init_buffered");
  m_.lease_denied = reg.RegisterCounter("lease_denied");
  m_.grants_new = reg.RegisterCounter("grants_new");
  m_.grants_migrate = reg.RegisterCounter("grants_migrate");
  m_.repl_reqs = reg.RegisterCounter("repl_reqs");
  m_.stale_writes = reg.RegisterCounter("stale_writes");
  m_.renew_reqs = reg.RegisterCounter("renew_reqs");
  m_.read_buffer_reqs = reg.RegisterCounter("read_buffer_reqs");
  m_.snapshot_reqs = reg.RegisterCounter("snapshot_reqs");
  m_.merge_reqs = reg.RegisterCounter("merge_reqs");
  m_.subscribe_reqs = reg.RegisterCounter("subscribe_reqs");
  m_.replica_pushes_tx = reg.RegisterCounter("replica_pushes_tx");
  m_.reads_parked = reg.RegisterCounter("reads_parked");
  m_.chain_forwards = reg.RegisterCounter("chain_forwards");
  m_.responses = reg.RegisterCounter("responses");
  m_.batch_envelopes = reg.RegisterCounter("batch_envelopes");
  m_.batch_subs = reg.RegisterCounter("batch_subs");
  // Replication wire bytes received, split per request type (Fig. 10-style
  // bandwidth attribution, sampled into per-shard time series).
  m_.init_bytes_rx = reg.RegisterCounter("init_bytes_rx");
  m_.repl_bytes_rx = reg.RegisterCounter("repl_bytes_rx");
  m_.renew_bytes_rx = reg.RegisterCounter("renew_bytes_rx");
  m_.read_buffer_bytes_rx = reg.RegisterCounter("read_buffer_bytes_rx");
  m_.snapshot_bytes_rx = reg.RegisterCounter("snapshot_bytes_rx");
  m_.merge_bytes_rx = reg.RegisterCounter("merge_bytes_rx");
  m_.chain_bytes_rx = reg.RegisterCounter("chain_bytes_rx");
  m_.batch_bytes_rx = reg.RegisterCounter("batch_bytes_rx");
  m_.resp_bytes_tx = reg.RegisterCounter("resp_bytes_tx");
  reg.AddCallbackGauge(
      "num_flows", [this] { return static_cast<double>(flows_.size()); });
  // Occupancy gauges for the periodic sampler: how deep the FIFO service
  // queue is (in service-time units), fraction of sim time spent busy, and
  // table sizes that bound memory.
  reg.AddCallbackGauge("queue_depth", [this] {
    const SimTime now = sim_.Now();
    if (busy_until_ <= now || config_.service_time <= 0) return 0.0;
    return static_cast<double>(busy_until_ - now) /
           static_cast<double>(config_.service_time);
  });
  reg.AddCallbackGauge("busy_frac", [this] {
    const SimTime now = sim_.Now();
    return now > 0 ? static_cast<double>(busy_time_) / static_cast<double>(now)
                   : 0.0;
  });
  reg.AddCallbackGauge("pending_inits", [this] {
    std::size_t n = 0;
    for (const auto& [key, queue] : pending_inits_) n += queue.size();
    return static_cast<double>(n);
  });
  reg.AddCallbackGauge("waiting_reads", [this] {
    std::size_t n = 0;
    for (const auto& [key, reads] : waiting_reads_) n += reads.size();
    return static_cast<double>(n);
  });
}

void StateStoreServer::HandlePacket(net::Packet&& pkt, PortId in_port) {
  obs::ProfScope prof(g_prof_handle_packet);
  (void)in_port;
  if (!core::IsProtocolPacket(pkt)) {
    m_.non_protocol_drops.Add();
    return;
  }
  const double wire_bytes = static_cast<double>(pkt.WireSize());
  if (net::IsBatchFrame(pkt.payload)) {
    m_.batch_bytes_rx.Add(wire_bytes);
    // A batch envelope occupies the CPU once regardless of how many
    // sub-messages it carries — the requests/sec win of coalescing.
    const SimDuration service = EffectiveServiceTime();
    const SimTime start = std::max(sim_.Now(), busy_until_);
    busy_until_ = start + service;
    busy_time_ += service;
    const std::uint64_t epoch = epoch_;
    sim_.ScheduleAt(busy_until_,
                    [this, epoch, frame = std::move(pkt.payload)]() mutable {
                      if (epoch != epoch_ || !IsUp()) return;
                      ProcessBatchEnvelope(std::move(frame));
                    });
    return;
  }
  // View-parse in place: header + bounds validation without copying the
  // payload or parsing the piggybacked inner packet (which the store only
  // ever echoes, never consumes).
  auto msg = MsgView::Parse(pkt.payload);
  if (!msg.has_value()) {
    m_.malformed_drops.Add();
    return;
  }
  // Wire-byte attribution per request type.  Chain-internal traffic is
  // accounted separately: it is replication fan-out, not switch load.
  if (msg->chain_hop() > 0) {
    m_.chain_bytes_rx.Add(wire_bytes);
  } else {
    switch (msg->type()) {
      case MsgType::kLeaseNewReq: m_.init_bytes_rx.Add(wire_bytes); break;
      case MsgType::kLeaseRenewReq: m_.repl_bytes_rx.Add(wire_bytes); break;
      case MsgType::kLeaseRenewOnly: m_.renew_bytes_rx.Add(wire_bytes); break;
      case MsgType::kReadBufferReq:
        m_.read_buffer_bytes_rx.Add(wire_bytes);
        break;
      case MsgType::kSnapshotRepl: m_.snapshot_bytes_rx.Add(wire_bytes); break;
      case MsgType::kMergeDelta: m_.merge_bytes_rx.Add(wire_bytes); break;
      case MsgType::kReplicaSubscribe:
        m_.merge_bytes_rx.Add(wire_bytes);
        break;
      case MsgType::kAck: break;
    }
  }
  // Arrival instant: begins the request's queue-wait segment (service start
  // is emitted by ProcessMsg when the FIFO drains to it).
  if (trace().armed(obs::Ev::kStoreRecv)) {
    trace().Emit(obs::Ev::kStoreRecv, net::HashPartitionKey(msg->key()),
                 msg->seq(), static_cast<double>(msg->chain_hop()),
                 msg->span_id());
  }
  // FIFO service: one CPU core draining a kernel-bypass queue.
  const SimDuration service = EffectiveServiceTime();
  const SimTime start = std::max(sim_.Now(), busy_until_);
  busy_until_ = start + service;
  busy_time_ += service;
  const std::uint64_t epoch = epoch_;
  sim_.ScheduleAt(busy_until_, [this, epoch, m = std::move(*msg)]() mutable {
    if (epoch != epoch_ || !IsUp()) return;
    ProcessMsg(std::move(m));
  });
}

void StateStoreServer::SetUp(bool up) {
  const bool was_up = IsUp();
  Node::SetUp(up);
  if (was_up && !up) {
    ++epoch_;
    flows_.clear();
    pending_inits_.clear();
    waiting_reads_.clear();
    CancelPumps();
    batch_forward_.clear();
    in_batch_ = false;
    busy_until_ = 0;
    m_.failures.Add();
    if (trace().armed(obs::Ev::kStoreReset)) {
      // This replica's DRAM records are gone; audit baselines derived from
      // them (sequence filter positions) must be forgotten too.
      trace().Emit(obs::Ev::kStoreReset, 0);
    }
  }
}

void StateStoreServer::ProcessMsg(MsgView msg) {
  obs::ProfScope prof(g_prof_process);
  // Service start: closes the queue-wait segment opened by the arrival
  // kStoreRecv in HandlePacket.
  if (trace().armed(obs::Ev::kStoreServiceStart)) {
    trace().Emit(obs::Ev::kStoreServiceStart, net::HashPartitionKey(msg.key()),
                 msg.seq(), static_cast<double>(msg.chain_hop()),
                 msg.span_id());
  }
  if (msg.chain_hop() > 0) {
    // Chain-internal: the head already decided; apply and continue.
    ApplyAndContinue(std::move(msg));
    return;
  }
  if (!is_head_) {
    // A request from a switch reached a non-head replica (stale partition
    // map); drop — the switch will retransmit toward the right head.
    m_.misdirected_drops.Add();
    if (trace().armed(obs::Ev::kStoreDenied)) {
      trace().Emit(obs::Ev::kStoreDenied, net::HashPartitionKey(msg.key()),
                   msg.seq(), 0.0, msg.span_id());
    }
    return;
  }
  switch (msg.type()) {
    case MsgType::kLeaseNewReq: HandleInit(msg.ToMsg()); break;
    case MsgType::kLeaseRenewReq: HandleRepl(std::move(msg)); break;
    case MsgType::kLeaseRenewOnly: HandleRenewOnly(std::move(msg)); break;
    case MsgType::kReadBufferReq: HandleReadBuffer(std::move(msg)); break;
    case MsgType::kSnapshotRepl: HandleSnapshot(std::move(msg)); break;
    case MsgType::kMergeDelta: HandleMergeDelta(std::move(msg)); break;
    case MsgType::kReplicaSubscribe:
      HandleReplicaSubscribe(std::move(msg));
      break;
    case MsgType::kAck:
      m_.unexpected_acks.Add();
      break;
  }
}

void StateStoreServer::ProcessBatchEnvelope(net::BufferView frame) {
  auto batch = net::BatchView::Parse(frame);
  if (!batch.has_value()) {
    m_.malformed_drops.Add();
    return;
  }
  m_.batch_envelopes.Add();
  m_.batch_subs.Add(static_cast<double>(batch->size()));
  if (trace().armed(obs::Ev::kStoreBatchRecv)) {
    trace().Emit(obs::Ev::kStoreBatchRecv, 0, batch->size(),
                 static_cast<double>(frame.size()));
  }
  in_batch_ = true;
  batch_forward_.clear();
  for (std::size_t i = 0; i < batch->size(); ++i) {
    auto msg = MsgView::Parse(batch->at(i));
    if (!msg.has_value()) {
      m_.malformed_drops.Add();
      continue;
    }
    // Batched subs arrive and start service at the same instant (the
    // envelope's arrival already paid the queue wait); emit the per-sub
    // arrival here so every span still carries a (zero-length) queue-wait
    // segment and pairs symmetrically with the single-message path.
    if (trace().armed(obs::Ev::kStoreRecv)) {
      trace().Emit(obs::Ev::kStoreRecv, net::HashPartitionKey(msg->key()),
                   msg->seq(), static_cast<double>(msg->chain_hop()),
                   msg->span_id());
    }
    // Each sub-message runs the regular handler, so seq filtering, lease
    // checks, trace records, and per-flow acks are exactly per-packet
    // semantics.
    ProcessMsg(std::move(*msg));
  }
  in_batch_ = false;
  if (batch_forward_.empty()) return;
  // One chain traversal per batch.  If every sub-message survived
  // untouched (a pure replica pass never patches), the received envelope
  // bytes go out verbatim — zero-copy.  Otherwise (head stamping CoW'd the
  // decided subs, or the seq filter answered some directly) rebuild once.
  bool verbatim = batch_forward_.size() == batch->size();
  for (const net::BufferView& v : batch_forward_) {
    verbatim = verbatim && v.buffer().data() == frame.buffer().data();
  }
  if (verbatim) {
    SendRaw(*successor_, std::move(frame));
  } else if (batch_forward_.size() == 1) {
    SendRaw(*successor_, std::move(batch_forward_.front()));
  } else {
    SendRaw(*successor_, net::EncodeBatchEnvelope(batch_forward_));
  }
  batch_forward_.clear();
}

FlowRecord& StateStoreServer::GetOrCreate(const net::PartitionKey& key) {
  return flows_[key];
}

bool StateStoreServer::LeaseActiveByOther(const FlowRecord& rec,
                                          net::Ipv4Addr requester) const {
  return rec.owner.value != 0 && rec.owner != requester &&
         rec.lease_expiry > sim_.Now();
}

void StateStoreServer::SendDeny(const net::PartitionKey& key,
                                net::Ipv4Addr requester,
                                std::uint64_t last_applied_seq,
                                std::uint64_t span) {
  Msg deny;
  deny.type = MsgType::kAck;
  deny.ack = AckKind::kLeaseDenied;
  deny.key = key;
  deny.seq = last_applied_seq;
  deny.span_id = span;
  SendMsg(requester, deny);
  m_.lease_denied.Add();
}

SimDuration StateStoreServer::EffectiveServiceTime() const {
  if (service_factor_ == 1.0) return config_.service_time;
  return static_cast<SimDuration>(
      static_cast<double>(config_.service_time) * service_factor_);
}

void StateStoreServer::HandleInit(Msg msg) {
  m_.init_reqs.Add();
  // Capacity pressure (gray failure): a brand-new flow arriving at a full
  // table is denied outright — the switch's deny path, not a timeout.
  if (max_flows_ > 0 && flows_.size() >= max_flows_ &&
      flows_.find(msg.key) == flows_.end()) {
    SendDeny(msg.key, msg.reply_to, 0, msg.span_id);
    if (trace().armed(obs::Ev::kStoreDenied)) {
      trace().Emit(obs::Ev::kStoreDenied, net::HashPartitionKey(msg.key), 0,
                   0.0, msg.span_id);
    }
    return;
  }
  FlowRecord& rec = GetOrCreate(msg.key);
  if (LeaseActiveByOther(rec, msg.reply_to)) {
    // Another switch owns the flow: buffer the request until the lease
    // lapses (the spec's BUFFERING branch), bounded by configuration.
    // Retransmitted Inits from a switch already waiting are absorbed.
    auto& queue = pending_inits_[msg.key];
    for (const PendingInit& pending : queue) {
      if (pending.msg.reply_to == msg.reply_to) {
        m_.init_dedup.Add();
        return;
      }
    }
    if (queue.size() >= config_.max_buffered_inits) {
      SendDeny(msg.key, msg.reply_to, rec.last_applied_seq, msg.span_id);
      if (trace().armed(obs::Ev::kStoreDenied)) {
        trace().Emit(obs::Ev::kStoreDenied, net::HashPartitionKey(msg.key), 0,
                     0.0, msg.span_id);
      }
      return;
    }
    const net::PartitionKey key = msg.key;
    const std::uint64_t span = msg.span_id;
    const SimTime retry_at = rec.lease_expiry + Microseconds(1);
    queue.push_back(PendingInit{std::move(msg)});
    m_.init_buffered.Add();
    if (trace().armed(obs::Ev::kStoreBuffered)) {
      trace().Emit(obs::Ev::kStoreBuffered, net::HashPartitionKey(key), 0,
                   static_cast<double>(queue.size()), span);
    }
    ArmInitPump(key, retry_at);
    return;
  }

  // Grant.  A brand-new flow may get application-assigned initial state
  // (e.g. a NAT port allocation) from the registered initializer.
  if (!rec.exists) {
    rec.exists = true;
    if (config_.initializer) {
      rec.state = config_.initializer(msg.key);
    }
    msg.ack = AckKind::kLeaseGrantNew;
    m_.grants_new.Add();
  } else {
    msg.ack = AckKind::kLeaseGrantMigrate;
    m_.grants_migrate.Add();
  }
  // Carry the authoritative state and sequence number to the switch (and to
  // the chain replicas, which apply the same ownership change).
  msg.state = rec.state;
  msg.seq = rec.last_applied_seq;
  ++msg.chain_hop;  // decided; apply locally, then continue down the chain
  ApplyAndContinue(std::move(msg));
}

void StateStoreServer::HandleRepl(MsgView msg) {
  m_.repl_reqs.Add();
  FlowRecord& rec = GetOrCreate(msg.key());
  if (LeaseActiveByOther(rec, msg.reply_to())) {
    SendDeny(msg.key(), msg.reply_to(), rec.last_applied_seq, msg.span_id());
    if (trace().armed(obs::Ev::kStoreDenied)) {
      trace().Emit(obs::Ev::kStoreDenied, net::HashPartitionKey(msg.key()),
                   msg.seq(), 0.0, msg.span_id());
    }
    return;
  }
  if (msg.seq() <= rec.last_applied_seq &&
      !config_.mutations.disable_seq_filter) {
    // Stale or duplicate (Fig. 6b): do not apply — the stored state is at
    // least as new, and is already durable chain-wide.  Ack with the
    // applied sequence number so the switch clears its retransmit buffer,
    // and release any piggybacked output (its effects are subsumed by the
    // newer durable state).  The piggyback bytes are echoed verbatim.
    m_.stale_writes.Add();
    if (trace().armed(obs::Ev::kStoreFiltered)) {
      const std::uint64_t key_hash = net::HashPartitionKey(msg.key());
      trace().Emit(obs::Ev::kStoreFiltered, key_hash, msg.seq(), 0.0, 0, 0,
                   rec.last_applied_seq);
      // The ack about to be sent acknowledges seq already durable
      // chain-wide — legal evidence for the chain-commit monitor.
      trace().Emit(obs::Ev::kDupAckDurable, key_hash, rec.last_applied_seq);
    }
    Msg ack;
    ack.type = MsgType::kAck;
    ack.ack = AckKind::kWriteAck;
    ack.key = msg.key();
    ack.seq = rec.last_applied_seq;
    ack.span_id = msg.span_id();
    ack.piggyback_raw = msg.piggyback_bytes();
    SendMsg(msg.reply_to(), ack);
    return;
  }
  rec.exists = true;
  // Stamp the head's decision into the buffer; replicas forward verbatim.
  msg.SetAck(AckKind::kWriteAck);
  msg.SetChainHop(msg.chain_hop() + 1);
  ApplyAndContinue(std::move(msg));
}

void StateStoreServer::HandleRenewOnly(MsgView msg) {
  m_.renew_reqs.Add();
  FlowRecord& rec = GetOrCreate(msg.key());
  if (LeaseActiveByOther(rec, msg.reply_to())) {
    SendDeny(msg.key(), msg.reply_to(), rec.last_applied_seq, msg.span_id());
    if (trace().armed(obs::Ev::kStoreDenied)) {
      trace().Emit(obs::Ev::kStoreDenied, net::HashPartitionKey(msg.key()),
                   msg.seq(), 0.0, msg.span_id());
    }
    return;
  }
  msg.SetAck(AckKind::kRenewAck);
  msg.SetSeq(rec.last_applied_seq);
  msg.SetChainHop(msg.chain_hop() + 1);
  ApplyAndContinue(std::move(msg));
}

void StateStoreServer::HandleReadBuffer(MsgView msg) {
  m_.read_buffer_reqs.Add();
  // A buffered read must be released only after the write it observed at the
  // switch (sequence `msg.seq`) is durable.  Route it through the chain so
  // it orders behind those writes; the tail releases or parks it.
  msg.SetAck(AckKind::kReadReturn);
  msg.SetChainHop(msg.chain_hop() + 1);
  ApplyAndContinue(std::move(msg));
}

void StateStoreServer::HandleSnapshot(MsgView msg) {
  m_.snapshot_reqs.Add();
  FlowRecord& rec = GetOrCreate(msg.key());
  bool stale = false;
  if (rec.mode) {
    const auto& slots = rec.mode->snapshot_slots;
    const auto it = slots.find(msg.snapshot_index());
    stale = it != slots.end() && msg.seq() <= it->second.second;
  }
  if (stale) {
    // Stale snapshot slot; ack without applying.
    Msg ack;
    ack.type = MsgType::kAck;
    ack.ack = AckKind::kSnapshotAck;
    ack.key = msg.key();
    ack.seq = msg.seq();
    ack.snapshot_index = msg.snapshot_index();
    ack.span_id = msg.span_id();
    SendMsg(msg.reply_to(), ack);
    return;
  }
  rec.exists = true;
  msg.SetAck(AckKind::kSnapshotAck);
  msg.SetChainHop(msg.chain_hop() + 1);
  ApplyAndContinue(std::move(msg));
}

void StateStoreServer::HandleMergeDelta(MsgView msg) {
  m_.merge_reqs.Add();
  // No LeaseActiveByOther check and no sequence filter: concurrent writers
  // are the design point of the mergeable mode, and the join is idempotent
  // so a replayed or retransmitted delta re-merges to the same state.
  msg.SetAck(AckKind::kMergeAck);
  msg.SetChainHop(msg.chain_hop() + 1);
  ApplyAndContinue(std::move(msg));
}

void StateStoreServer::HandleReplicaSubscribe(MsgView msg) {
  m_.subscribe_reqs.Add();
  FlowRecord& rec = GetOrCreate(msg.key());
  const net::Ipv4Addr sub = msg.reply_to();
  auto& subscribers = rec.mode.GetOrCreate().subscribers;
  if (std::find(subscribers.begin(), subscribers.end(), sub) ==
      subscribers.end()) {
    subscribers.push_back(sub);
  }
  // Answer with the current durable state so the replica starts warm.
  // Subscription is head-local soft state: it rides in the FlowRecord, so a
  // chain resync copies it, and a lost head simply stops pushing (the
  // switch then falls back to the buffering path, which is always safe).
  Msg push;
  push.type = MsgType::kAck;
  push.ack = AckKind::kReplicaPush;
  push.key = msg.key();
  push.seq = rec.last_applied_seq;
  push.state = rec.state;
  push.mode = msg.mode();
  push.span_id = msg.span_id();
  m_.replica_pushes_tx.Add();
  SendMsg(sub, push);
}

void StateStoreServer::PushToSubscribers(const net::PartitionKey& key,
                                         const FlowRecord& rec,
                                         net::Ipv4Addr writer,
                                         std::uint64_t span) {
  if (!is_head_ || !rec.mode) return;
  for (const net::Ipv4Addr sub : rec.mode->subscribers) {
    if (sub == writer) continue;  // the writer already holds the newer state
    Msg push;
    push.type = MsgType::kAck;
    push.ack = AckKind::kReplicaPush;
    push.key = key;
    push.seq = rec.last_applied_seq;
    push.state = rec.state;
    push.mode = core::ConsistencyMode::kReplicatedRead;
    push.span_id = span;
    m_.replica_pushes_tx.Add();
    if (trace().armed(obs::Ev::kReplicaPushed)) {
      trace().Emit(obs::Ev::kReplicaPushed, net::HashPartitionKey(key),
                   rec.last_applied_seq, 0.0, 0, 0, sub.value);
    }
    SendMsg(sub, push);
  }
}

void StateStoreServer::ApplyAndContinue(Msg&& msg) {
  auto view = MsgView::Parse(core::EncodeMsg(msg));
  assert(view.has_value());
  ApplyAndContinue(std::move(*view));
}

void StateStoreServer::ApplyAndContinue(MsgView msg) {
  FlowRecord& rec = GetOrCreate(msg.key());
  switch (msg.type()) {
    case MsgType::kLeaseNewReq:
      rec.exists = true;
      rec.state.assign(msg.state().begin(), msg.state().end());
      rec.last_applied_seq = msg.seq();
      rec.owner = msg.reply_to();
      rec.lease_expiry = sim_.Now() + config_.lease_period;
      break;
    case MsgType::kLeaseRenewReq:
      rec.exists = true;
      if (msg.seq() > rec.last_applied_seq ||
          config_.mutations.disable_seq_filter) {
        const std::uint64_t prev_applied = rec.last_applied_seq;
        rec.state.assign(msg.state().begin(), msg.state().end());
        rec.last_applied_seq = msg.seq();
        if (trace().armed(obs::Ev::kStoreApplied)) {
          trace().Emit(obs::Ev::kStoreApplied,
                       net::HashPartitionKey(msg.key()), msg.seq(),
                       static_cast<double>(msg.state().size()),
                       msg.span_id(), 0, prev_applied);
        }
        PushToSubscribers(msg.key(), rec, msg.reply_to(), msg.span_id());
      }
      rec.owner = msg.reply_to();
      rec.lease_expiry = sim_.Now() + config_.lease_period;
      break;
    case MsgType::kLeaseRenewOnly:
      rec.owner = msg.reply_to();
      rec.lease_expiry = sim_.Now() + config_.lease_period;
      break;
    case MsgType::kReadBufferReq:
      if (IsTail() &&
          (rec.last_applied_seq < msg.seq() ||
           (rec.owner.value != 0 && rec.owner != msg.reply_to() &&
            rec.lease_expiry > sim_.Now()))) {
        // Park the read: either its awaited write is not yet durable, or
        // the requesting switch does not own the flow yet (packets looping
        // while a migration grant is buffered behind the old lease).  It
        // is released by PumpWaitingReads when the blocking condition
        // clears, or dropped if it outlives a lease period (packet loss is
        // permitted by the correctness model).
        if (trace().armed(obs::Ev::kStoreReadParked)) {
          trace().Emit(obs::Ev::kStoreReadParked,
                       net::HashPartitionKey(msg.key()), msg.seq(), 0.0,
                       msg.span_id());
        }
        waiting_reads_[msg.key()].push_back(std::move(msg));
        m_.reads_parked.Add();
        return;
      }
      break;
    case MsgType::kSnapshotRepl: {
      rec.exists = true;
      FlowModeState& mode = rec.mode.GetOrCreate();
      auto& slot = mode.snapshot_slots[msg.snapshot_index()];
      if (msg.seq() > slot.second) {
        slot.first.assign(msg.state().begin(), msg.state().end());
        slot.second = msg.seq();
      }
      mode.last_snapshot_at = sim_.Now();
      break;
    }
    case MsgType::kMergeDelta: {
      rec.exists = true;
      rec.mergeable = true;
      if (config_.mutations.overwrite_instead_of_merge ||
          spec_.merge == nullptr) {
        rec.state.assign(msg.state().begin(), msg.state().end());
      } else {
        spec_.merge(rec.state, msg.state().span());
      }
      if (trace().armed(obs::Ev::kStoreApplied)) {
        // Ring only: the subscribers' fact for a merge is kMergeApplied,
        // which carries the merged measure instead of the state size.
        trace().Emit(obs::Ev::kStoreApplied, net::HashPartitionKey(msg.key()),
                     msg.seq(), static_cast<double>(msg.state().size()),
                     msg.span_id(), 0, 0, obs::kRing);
      }
      if (trace().armed(obs::Ev::kMergeApplied)) {
        // The measure is computed from the *post-merge* stored state: a
        // correct join can only move up the lattice, so this series is
        // non-decreasing per key (checked by the merge-convergence
        // monitor).  Overwrites under the mutation honestly report the
        // (possibly lower) measure and get caught.
        const double measure =
            spec_.measure != nullptr ? spec_.measure(rec.state) : 0.0;
        trace().Emit(obs::Ev::kMergeApplied, net::HashPartitionKey(msg.key()),
                     msg.seq(), measure);
      }
      break;
    }
    case MsgType::kReplicaSubscribe:
      // Subscriptions never traverse the chain (handled at the head).
      return;
    case MsgType::kAck:
      return;
  }
  const net::PartitionKey key = msg.key();
  ForwardOrRespond(std::move(msg));
  PumpWaitingReads(key);
}

void StateStoreServer::ForwardOrRespond(MsgView msg) {
  if (successor_.has_value() && !config_.mutations.early_chain_ack) {
    m_.chain_forwards.Add();
    if (in_batch_) {
      // Defer into the envelope-wide forward.  The per-hop chain_hop
      // increment is skipped for batched subs: any hop > 0 already means
      // "decided", and not patching is what lets a pure replica forward
      // the whole envelope verbatim without a per-sub CoW.
      batch_forward_.push_back(msg.bytes());
      return;
    }
    msg.SetChainHop(msg.chain_hop() + 1);
    SendRaw(*successor_, msg.bytes());
    return;
  }
  Respond(msg);
}

void StateStoreServer::Respond(const MsgView& request) {
  Msg resp;
  resp.type = MsgType::kAck;
  resp.ack = request.ack();
  resp.key = request.key();
  resp.seq = request.seq();
  resp.snapshot_index = request.snapshot_index();
  resp.span_id = request.span_id();
  resp.mode = request.mode();
  resp.piggyback_raw = request.piggyback_bytes();
  if (request.ack() == AckKind::kLeaseGrantNew ||
      request.ack() == AckKind::kLeaseGrantMigrate) {
    resp.state = request.state().ToVector();
  } else if (request.ack() == AckKind::kMergeAck) {
    // Answer with the *merged* stored state (the request carried only the
    // sender's local contribution): every replica applied the same joins,
    // so the answering replica's record is the converged global value.
    if (const FlowRecord* rec = Find(request.key())) resp.state = rec->state;
  }
  m_.responses.Add();
  if (trace().armed(obs::Ev::kStoreResponded)) {
    trace().Emit(obs::Ev::kStoreResponded,
                 net::HashPartitionKey(request.key()), request.seq(), 0.0,
                 request.span_id());
  }
  if (trace().armed(obs::Ev::kTailCommit) && IsTail() &&
      request.ack() == AckKind::kWriteAck) {
    // The tail answering a decided write is the chain-wide commit point —
    // emitted before the response leaves so the commit-order monitor sees
    // commit evidence strictly before the switch's ack-released event.
    trace().Emit(obs::Ev::kTailCommit, net::HashPartitionKey(request.key()),
                 request.seq());
  }
  SendMsg(request.reply_to(), resp);
}

void StateStoreServer::SendMsg(net::Ipv4Addr dst, const Msg& msg) {
  net::Packet pkt = core::MakeProtocolPacket(ip_, dst, msg);
  if (msg.type == MsgType::kAck) {
    m_.resp_bytes_tx.Add(static_cast<double>(pkt.WireSize()));
  }
  SendTo(0, std::move(pkt));
}

void StateStoreServer::SendRaw(net::Ipv4Addr dst, net::BufferView payload) {
  net::Packet pkt = core::MakeProtocolPacketRaw(ip_, dst, std::move(payload));
  SendTo(0, std::move(pkt));
}

void StateStoreServer::PumpPendingInits(const net::PartitionKey& key) {
  auto it = pending_inits_.find(key);
  if (it == pending_inits_.end() || it->second.empty()) return;
  FlowRecord& rec = GetOrCreate(key);
  // Grant to the first waiter whose blocker has lapsed; later waiters are
  // retried when this new lease lapses in turn.
  while (!it->second.empty()) {
    if (LeaseActiveByOther(rec, it->second.front().msg.reply_to)) {
      ArmInitPump(key, rec.lease_expiry + Microseconds(1));
      return;
    }
    Msg msg = std::move(it->second.front().msg);
    it->second.pop_front();
    HandleInit(std::move(msg));
  }
  pending_inits_.erase(key);
}

void StateStoreServer::PumpWaitingReads(const net::PartitionKey& key) {
  auto it = waiting_reads_.find(key);
  if (it == waiting_reads_.end()) return;
  FlowRecord& rec = GetOrCreate(key);
  auto& reads = it->second;
  bool reschedule = false;
  for (auto rit = reads.begin(); rit != reads.end();) {
    const bool seq_ready = rec.last_applied_seq >= rit->seq();
    const bool ownership_blocked = rec.owner.value != 0 &&
                                   rec.owner != rit->reply_to() &&
                                   rec.lease_expiry > sim_.Now();
    if (seq_ready && !ownership_blocked) {
      Respond(*rit);
      rit = reads.erase(rit);
    } else {
      // Waiting for a write (pumped on the next apply) or for the blocking
      // lease to lapse (pumped by the rescheduled check below).
      reschedule = reschedule || ownership_blocked;
      ++rit;
    }
  }
  if (reads.empty()) {
    waiting_reads_.erase(it);
  } else if (reschedule) {
    // Re-examine when the blocking lease lapses (the owner may never
    // return; the parked packets are then released toward the requester,
    // which re-evaluates under its own — possibly absent — lease).
    ArmReadPump(key, rec.lease_expiry + Microseconds(1));
  }
}

void StateStoreServer::ArmInitPump(const net::PartitionKey& key, SimTime at) {
  if (init_pump_timers_.count(key) != 0) return;
  const std::uint64_t epoch = epoch_;
  init_pump_timers_[key] = sim_.ScheduleAt(at, [this, key, epoch]() {
    if (epoch != epoch_) return;
    init_pump_timers_.erase(key);
    if (IsUp()) PumpPendingInits(key);
  });
}

void StateStoreServer::ArmReadPump(const net::PartitionKey& key, SimTime at) {
  if (read_pump_timers_.count(key) != 0) return;
  const std::uint64_t epoch = epoch_;
  read_pump_timers_[key] = sim_.ScheduleAt(at, [this, key, epoch]() {
    if (epoch != epoch_) return;
    read_pump_timers_.erase(key);
    if (IsUp()) PumpWaitingReads(key);
  });
}

void StateStoreServer::CancelPumps() {
  for (const auto& [key, id] : init_pump_timers_) sim_.Cancel(id);
  init_pump_timers_.clear();
  for (const auto& [key, id] : read_pump_timers_) sim_.Cancel(id);
  read_pump_timers_.clear();
}

const FlowRecord* StateStoreServer::Find(const net::PartitionKey& key) const {
  auto it = flows_.find(key);
  return it == flows_.end() ? nullptr : &it->second;
}

void StateStoreServer::ImportFlows(
    std::unordered_map<net::PartitionKey, FlowRecord>&& flows) {
  for (auto& [key, incoming] : flows) {
    auto [it, inserted] = flows_.try_emplace(key, std::move(incoming));
    if (inserted) continue;
    FlowRecord& local = it->second;
    // The snapshot is resync_delay stale by the time it lands, so the
    // local record may already be ahead of it.
    if ((local.mergeable || incoming.mergeable) && spec_.merge != nullptr) {
      // Join-semilattice state: the join is idempotent and commutative, so
      // merging the snapshot in can only move up the lattice regardless of
      // which side is fresher.
      spec_.merge(local.state, incoming.state);
      local.mergeable = true;
    } else if (incoming.last_applied_seq > local.last_applied_seq) {
      local.state = std::move(incoming.state);
    }
    local.last_applied_seq =
        std::max(local.last_applied_seq, incoming.last_applied_seq);
    local.exists = local.exists || incoming.exists;
    if (incoming.lease_expiry > local.lease_expiry) {
      local.lease_expiry = incoming.lease_expiry;
      local.owner = incoming.owner;
    }
    if (!incoming.mode) continue;
    // An absent block merges as an empty one: no slots, no subscribers and
    // a last_snapshot_at of 0.
    FlowModeState& mode = local.mode.GetOrCreate();
    for (auto& [index, slot] : incoming.mode->snapshot_slots) {
      auto& mine = mode.snapshot_slots[index];
      if (slot.second > mine.second) mine = std::move(slot);
    }
    mode.last_snapshot_at =
        std::max(mode.last_snapshot_at, incoming.mode->last_snapshot_at);
    for (const net::Ipv4Addr sub : incoming.mode->subscribers) {
      if (std::find(mode.subscribers.begin(), mode.subscribers.end(), sub) ==
          mode.subscribers.end()) {
        mode.subscribers.push_back(sub);
      }
    }
  }
}

void WireChain(const std::vector<StateStoreServer*>& chain) {
  for (std::size_t i = 0; i < chain.size(); ++i) {
    chain[i]->SetIsHead(i == 0);
    if (i + 1 < chain.size()) {
      chain[i]->SetChainSuccessor(chain[i + 1]->ip());
    } else {
      chain[i]->ClearChainSuccessor();
    }
  }
}

}  // namespace redplane::store
