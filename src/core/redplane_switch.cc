#include "core/redplane_switch.h"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "obs/profiler.h"

namespace redplane::core {

namespace {

// Profiler sites for the switch's hot paths (namespace scope: no
// function-local-static guard on the per-packet path).
obs::ProfSite g_prof_process("switch.process");
obs::ProfSite g_prof_handle_ack("switch.handle_ack");
obs::ProfSite g_prof_send_request("switch.send_request");

/// Max loops through the network buffer while awaiting a lease grant
/// before a packet is dropped (loss is permitted by the model).
constexpr std::uint32_t kMaxInitLoops = 64;
/// A pending coalesced batch flushes early once it holds this many encoded
/// payload bytes (or RedPlaneConfig::coalesce_max_msgs sub-messages).
constexpr std::size_t kCoalesceMaxBytes = 4096;

/// Mirror-buffer sequence for one snapshot slot: unique per (round, index)
/// and ordered so that acknowledging a slot clears superseded rounds too.
std::uint64_t SnapSeq(std::uint64_t round, std::uint32_t index) {
  return (round << 20) | index;
}

}  // namespace

RedPlaneSwitch::RedPlaneSwitch(
    dp::SwitchNode& node, SwitchApp& app,
    std::function<net::Ipv4Addr(const net::PartitionKey&)> shard_for,
    RedPlaneConfig config)
    : node_(node),
      app_(app),
      shard_for_(std::move(shard_for)),
      config_(config),
      spec_(ResolveSpec(app.Traits(), config.mode_override,
                        dynamic_cast<Snapshottable*>(&app) != nullptr)),
      stats_(node.name() + "/rp"),
      trace_(node.sim().tracer_slot(), node.name() + "/rp"),
      diag_(node.name() + "/rp lease table",
            [this](std::ostream& os) { DumpLeaseTable(os); }) {
  assert(shard_for_);
  node_.mirror().set_truncate_to(config_.mirror_truncate_bytes);
  m_.app_pkts = stats_.RegisterCounter("app_pkts");
  m_.orig_bytes = stats_.RegisterCounter("orig_bytes");
  m_.req_bytes = stats_.RegisterCounter("req_bytes");
  m_.resp_bytes = stats_.RegisterCounter("resp_bytes");
  m_.reqs_sent = stats_.RegisterCounter("reqs_sent");
  m_.inits_sent = stats_.RegisterCounter("inits_sent");
  m_.renewals_sent = stats_.RegisterCounter("renewals_sent");
  m_.writes_replicated = stats_.RegisterCounter("writes_replicated");
  m_.reads_buffered = stats_.RegisterCounter("reads_buffered");
  m_.init_loop_buffered = stats_.RegisterCounter("init_loop_buffered");
  m_.init_loop_drops = stats_.RegisterCounter("init_loop_drops");
  m_.grants_new = stats_.RegisterCounter("grants_new");
  m_.grants_migrate = stats_.RegisterCounter("grants_migrate");
  m_.stale_grants = stats_.RegisterCounter("stale_grants");
  m_.cp_installs = stats_.RegisterCounter("cp_installs");
  m_.lease_denials = stats_.RegisterCounter("lease_denials");
  m_.retransmits = stats_.RegisterCounter("retransmits");
  m_.retx_give_ups = stats_.RegisterCounter("retx_give_ups");
  m_.renew_timeouts = stats_.RegisterCounter("renew_timeouts");
  m_.batch_envelopes = stats_.RegisterCounter("batch_envelopes");
  m_.batch_msgs = stats_.RegisterHistogram("batch_msgs");
  m_.batch_bytes = stats_.RegisterHistogram("batch_bytes");
  m_.coalesce_wait_us = stats_.RegisterHistogram("coalesce_wait_us");
  m_.outputs_released = stats_.RegisterCounter("outputs_released");
  m_.malformed_acks = stats_.RegisterCounter("malformed_acks");
  m_.snapshot_slots_sent = stats_.RegisterCounter("snapshot_slots_sent");
  m_.epsilon_violations = stats_.RegisterCounter("epsilon_violations");
  m_.write_rtt_us = stats_.RegisterHistogram("write_rtt_us");
  m_.local_reads_served = stats_.RegisterCounter("local_reads_served");
  m_.merge_deltas_sent = stats_.RegisterCounter("merge_deltas_sent");
  m_.merge_acks = stats_.RegisterCounter("merge_acks");
  m_.replica_pushes_rx = stats_.RegisterCounter("replica_pushes_rx");
  m_.local_read_staleness_us =
      stats_.RegisterHistogram("local_read_staleness_us");
  stats_.AddCallbackGauge(
      "active_flows", [this] { return static_cast<double>(flows_.Size()); });
  stats_.AddCallbackGauge("mirror_occupancy_bytes", [this] {
    return static_cast<double>(node_.mirror().OccupancyBytes());
  });
  // PR 7 SoA-table health: digest-index load factor and worst probe chain,
  // sampled on demand by the fleet time-series exporter (obs/timeseries.h).
  stats_.AddCallbackGauge("flow_idx_load",
                          [this] { return flows_.IndexStatsNow().load(); });
  stats_.AddCallbackGauge("flow_idx_max_probe", [this] {
    return static_cast<double>(flows_.IndexStatsNow().max_probe);
  });
  stats_.AddCallbackGauge("mirror_idx_load", [this] {
    return node_.mirror().IndexStatsNow().load();
  });
  stats_.AddCallbackGauge("mirror_idx_max_probe", [this] {
    return static_cast<double>(node_.mirror().IndexStatsNow().max_probe);
  });
}

RedPlaneSwitch::~RedPlaneSwitch() = default;

void RedPlaneSwitch::Process(dp::SwitchContext& ctx, net::Packet pkt) {
  obs::ProfScope prof(g_prof_process);
  if (IsProtocolPacket(pkt)) {
    if (pkt.ip.has_value() && pkt.ip->dst == node_.ip()) {
      m_.resp_bytes.Add(static_cast<double>(pkt.WireSize()));
      auto msg = MsgView::Parse(pkt.payload);
      if (!msg.has_value()) {
        m_.malformed_acks.Add();
        return;
      }
      HandleAck(ctx, std::move(*msg));
      return;
    }
    // Transit protocol traffic (another switch <-> store): plain L3.
    ctx.Forward(std::move(pkt));
    return;
  }
  HandleAppPacket(ctx, std::move(pkt));
}

void RedPlaneSwitch::HandleAppPacket(dp::SwitchContext& ctx, net::Packet pkt) {
  const auto key = app_.KeyOf(pkt);
  if (!key.has_value()) {
    ctx.Forward(std::move(pkt));
    return;
  }
  m_.orig_bytes.Add(static_cast<double>(pkt.WireSize()));
  m_.app_pkts.Add();
  const SimTime now = ctx.Now();

  if (spec_.mode == ConsistencyMode::kMergeable) {
    // Multi-writer mode: no lease machinery at all — the flow is admitted
    // locally and the single-owner protocol below never runs for it.
    HandleMergeablePacket(ctx, *key, std::move(pkt));
    return;
  }

  std::uint32_t slot = flows_.FindSlot(*key);
  if (slot != FlowTable::kNilSlot && flows_.LeaseActive(slot, now)) {
    // A renewal whose request or ack was lost is un-wedged by the flow's
    // renew timer (OnRenewTimeout), not here on the packet path.
    FlowTable::Cold& cold = flows_.cold(slot);
    // Proactive renewal for read-centric flows (§5.3): writes renew
    // implicitly, so only renew explicitly when the lease is aging and no
    // write is about to do it for us.
    if (!cold.renew_in_flight && !flows_.WritesInFlight(slot) &&
        flows_.lease_expiry(slot) - now < config_.renew_interval) {
      Msg renew;
      renew.type = MsgType::kLeaseRenewOnly;
      renew.key = *key;
      renew.seq = flows_.cur_seq(slot);
      renew.reply_to = node_.ip();
      renew.mode = spec_.mode;
      renew.span_id = NewSpanId();
      cold.renew_in_flight = true;
      m_.renewals_sent.Add();
      if (trace_.armed(obs::Ev::kRenewSent)) {
        trace_.Emit(obs::Ev::kRenewSent, net::HashPartitionKey(*key),
                    flows_.cur_seq(slot), 0.0, renew.span_id);
      }
      SendRequest(renew, /*mirror=*/false);
      // Record the send time for expiry extension on kRenewAck, and arm
      // the un-wedge timer in case the renewal (or its ack) is lost.
      cold.renew_sent_at = now;
      ArmRenewTimer(slot);
    }
    RunApp(ctx, *key, slot, std::move(pkt));
    return;
  }

  if (slot != FlowTable::kNilSlot &&
      flows_.status(slot) == FlowStatus::kInitPending) {
    // Lease grant still pending: buffer this packet through the network
    // (§5.1): it loops store-and-back until the grant lands.  Each packet
    // carries its own loop count (in the otherwise-unused snapshot_index
    // field) so a busy flow cannot exhaust a shared budget.
    FlowTable::Cold& cold = flows_.cold(slot);
    ++cold.init_loops;  // statistics only
    Msg buf;
    buf.type = MsgType::kReadBufferReq;
    buf.key = *key;
    buf.seq = 0;  // marks an unprocessed input looping pre-grant
    buf.snapshot_index = 0;
    buf.reply_to = node_.ip();
    buf.mode = spec_.mode;
    buf.piggyback = std::move(pkt);
    buf.span_id = NewSpanId();
    m_.init_loop_buffered.Add();
    if (trace_.armed(obs::Ev::kBufferedReadLoop)) {
      trace_.Emit(obs::Ev::kBufferedReadLoop, net::HashPartitionKey(*key), 0,
                  static_cast<double>(cold.init_loops), buf.span_id);
    }
    SendRequest(buf, /*mirror=*/false);
    return;
  }

  // No lease (new flow here, or an expired one): acquire it.  The packet
  // rides along as the piggyback and comes back with the grant.
  if (slot == FlowTable::kNilSlot) {
    slot = flows_.GetOrCreateSlot(*key);
  } else {
    // Expired entries are re-initialized from scratch; any renew timer
    // still pending for the stale lease dies with it.
    CancelRenewTimer(slot);
    flows_.Reinit(slot);
  }
  flows_.cold(slot).init_sent_at = now;
  Msg init;
  init.type = MsgType::kLeaseNewReq;
  init.key = *key;
  init.seq = 0;
  init.reply_to = node_.ip();
  init.mode = spec_.mode;
  init.piggyback = std::move(pkt);
  init.span_id = NewSpanId();
  m_.inits_sent.Add();
  if (trace_.armed(obs::Ev::kLeaseMiss)) {
    trace_.Emit(obs::Ev::kLeaseMiss, net::HashPartitionKey(*key), 0, 0.0,
                init.span_id);
  }
  if (trace_.armed(obs::Ev::kLeaseRequested)) {
    trace_.Emit(obs::Ev::kLeaseRequested, net::HashPartitionKey(*key));
  }
  SendRequest(init, /*mirror=*/true);
}

void RedPlaneSwitch::RunApp(dp::SwitchContext& ctx,
                            const net::PartitionKey& key, std::uint32_t slot,
                            net::Packet pkt) {
  AppContext actx;
  actx.now = ctx.Now();
  actx.switch_ip = node_.ip();
  ProcessResult result =
      app_.Process(actx, std::move(pkt), flows_.cold(slot).state);

  const bool sync_writes = spec_.mode != ConsistencyMode::kSnapshot;
  if (result.state_modified && sync_writes) {
    // Synchronous replication: the write leaves as a replication request
    // carrying the new state; the output rides piggybacked and is released
    // by the ack (never before the update is durable).
    const std::uint64_t seq = flows_.NextSeq(slot);
    Msg repl;
    repl.type = MsgType::kLeaseRenewReq;
    repl.key = key;
    repl.seq = seq;
    repl.reply_to = node_.ip();
    repl.mode = spec_.mode;
    repl.piggyback = std::move(result.output);
    repl.span_id = NewSpanId();
    // Pending-send records older than the retransmit give-up horizon are
    // dead (their request was acked or abandoned); NoteSend compacts them.
    flows_.NoteSend(slot, seq, ctx.Now(),
                    static_cast<SimDuration>(config_.max_retransmissions) *
                        config_.request_timeout);
    m_.writes_replicated.Add();
    if (trace_.armed(obs::Ev::kReplicationSent)) {
      flows_.cold(slot).last_write_span = repl.span_id;
      trace_.Emit(obs::Ev::kReplicationSent, net::HashPartitionKey(key), seq,
                  static_cast<double>(flows_.cold(slot).state.size()),
                  repl.span_id);
    }
    // The new state is only encoded: lend the flow's vector to the message
    // for the send and take it back, instead of copying it.  SendRequest
    // never reads the flow's own state, which is empty meanwhile.
    repl.state = std::move(flows_.cold(slot).state);
    SendRequest(repl, /*mirror=*/true);
    flows_.cold(slot).state = std::move(repl.state);
    return;
  }

  if (sync_writes && flows_.WritesInFlight(slot)) {
    // Replicated-read mode (DESIGN.md §14): answer the read from local
    // state instead of looping it through the store, as long as the local
    // replica's staleness — how long the oldest un-acked write has been in
    // flight — is within the app's declared bound.  Beyond the bound the
    // read falls through to the buffering path below (ε-serializability is
    // preserved by waiting, never by serving stale).
    if (spec_.mode == ConsistencyMode::kReplicatedRead) {
      const SimTime oldest = flows_.OldestPendingSendTime(slot);
      const SimDuration staleness = oldest != 0 ? ctx.Now() - oldest : 0;
      if (config_.mutation_stale_reads || staleness <= spec_.staleness_bound) {
        if (result.output) {
          m_.local_reads_served.Add();
          m_.local_read_staleness_us.Record(ToMicroseconds(staleness));
          if (trace_.armed(obs::Ev::kLocalReadServed)) {
            trace_.Emit(
                obs::Ev::kLocalReadServed, net::HashPartitionKey(key),
                flows_.cur_seq(slot), static_cast<double>(staleness), 0, 0,
                static_cast<std::uint64_t>(spec_.staleness_bound));
          }
          ReleaseOutput(ctx, key, std::move(*result.output));
        }
        return;
      }
    }
    // A read while writes are in flight: its output may depend on state not
    // yet durable, so it buffers through the network until the newest write
    // is acknowledged (§5.1).
    if (result.output) {
      Msg buf;
      buf.type = MsgType::kReadBufferReq;
      buf.key = key;
      buf.seq = flows_.cur_seq(slot);
      buf.reply_to = node_.ip();
      buf.mode = spec_.mode;
      buf.piggyback = std::move(result.output);
      buf.span_id = NewSpanId();
      m_.reads_buffered.Add();
      if (trace_.armed(obs::Ev::kBufferedRead)) {
        // Parent the read's span under the write it waits on, so the span
        // tree shows the dependency.
        trace_.Emit(obs::Ev::kBufferedRead, net::HashPartitionKey(key),
                    flows_.cur_seq(slot), 0.0, buf.span_id,
                    flows_.cold(slot).last_write_span);
      }
      SendRequest(buf, /*mirror=*/false);
    }
    return;
  }

  // Read with nothing in flight (or any packet in snapshot mode): release
  // immediately.
  if (result.output) ReleaseOutput(ctx, key, std::move(*result.output));
}

void RedPlaneSwitch::HandleMergeablePacket(dp::SwitchContext& ctx,
                                           const net::PartitionKey& key,
                                           net::Packet pkt) {
  std::uint32_t slot = flows_.FindSlot(key);
  if (slot == FlowTable::kNilSlot) {
    // Local admission: no lease, no store round trip.  The admission record
    // exempts the key from the single-owner invariant — several switches
    // admitting the same mergeable key concurrently is the whole point.
    slot = flows_.GetOrCreateSlot(key);
    flows_.set_status(slot, FlowStatus::kActive);
    if (trace_.armed(obs::Ev::kFlowAdmitted)) {
      trace_.Emit(obs::Ev::kFlowAdmitted, net::HashPartitionKey(key), 0, 0.0, 0,
                  0, static_cast<std::uint64_t>(spec_.mode));
    }
  }
  AppContext actx;
  actx.now = ctx.Now();
  actx.switch_ip = node_.ip();
  ProcessResult result =
      app_.Process(actx, std::move(pkt), flows_.cold(slot).state);

  if (result.state_modified) {
    FlowTable::Cold& cold = flows_.cold(slot);
    if (!cold.merge_dirty) {
      cold.merge_dirty = true;
      merge_dirty_.emplace_back(slot, flows_.gen(slot));
    }
    EnsureMergeTick();
  } else if (trace_.armed(obs::Ev::kLocalReadServed) && result.output) {
    // A locally served read with no staleness contract (aux 0): legal at
    // any staleness in this mode, and reported so the mode-aware monitors
    // can prove they know that.
    trace_.Emit(obs::Ev::kLocalReadServed, net::HashPartitionKey(key),
                flows_.cur_seq(slot));
  }
  // Zero-RTT writes: every output releases immediately; durability comes
  // from the periodic idempotent merge push, not from an ack.
  if (result.output) ReleaseOutput(ctx, key, std::move(*result.output));
}

void RedPlaneSwitch::EnsureMergeTick() {
  if (merge_tick_armed_) return;
  merge_tick_armed_ = true;
  const std::uint64_t epoch = epoch_;
  node_.sim().Schedule(spec_.merge_interval,
                       [this, epoch]() { MergeTick(epoch); });
}

void RedPlaneSwitch::MergeTick(std::uint64_t epoch) {
  if (epoch != epoch_) return;
  merge_tick_armed_ = false;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> dirty;
  dirty.swap(merge_dirty_);
  const SimTime now = node_.sim().Now();
  for (const auto& [slot, gen] : dirty) {
    if (!flows_.Alive(slot, gen)) continue;
    FlowTable::Cold& cold = flows_.cold(slot);
    if (!cold.merge_dirty) continue;
    cold.merge_dirty = false;
    // The delta is the full local state: joining a superset is idempotent,
    // so a retransmitted or replayed delta can never double-count.
    const std::uint64_t seq = flows_.NextSeq(slot);
    Msg delta;
    delta.type = MsgType::kMergeDelta;
    delta.key = cold.key;
    delta.seq = seq;
    delta.reply_to = node_.ip();
    delta.mode = spec_.mode;
    delta.state = cold.state;
    delta.span_id = NewSpanId();
    flows_.NoteSend(slot, seq, now,
                    static_cast<SimDuration>(config_.max_retransmissions) *
                        config_.request_timeout);
    m_.merge_deltas_sent.Add();
    if (trace_.armed(obs::Ev::kMergeEmitted)) {
      trace_.Emit(obs::Ev::kMergeEmitted, net::HashPartitionKey(cold.key), seq,
                  spec_.measure != nullptr ? spec_.measure(cold.state) : 0.0);
    }
    if (trace_.armed(obs::Ev::kReplicationSent)) {
      trace_.Emit(obs::Ev::kReplicationSent, net::HashPartitionKey(cold.key),
                  seq, static_cast<double>(delta.state.size()), delta.span_id);
    }
    SendRequest(delta, /*mirror=*/true);
  }
}

void RedPlaneSwitch::HandleAck(dp::SwitchContext& ctx, MsgView msg) {
  obs::ProfScope prof(g_prof_handle_ack);
  const net::PartitionKey key = msg.key();
  const std::uint64_t seq = msg.seq();
  const std::uint64_t span = msg.span_id();
  const std::uint32_t slot = flows_.FindSlot(key);
  // Releasing a mirrored entry cancels its retransmit timer in the same
  // pass (O(1) in the timing wheel).
  const auto cancel_retx = [this](dp::MirrorTable::Handle,
                                  std::uint64_t timer) {
    if (timer != 0) node_.sim().Cancel(timer);
  };
  switch (msg.ack()) {
    case AckKind::kLeaseGrantNew:
    case AckKind::kLeaseGrantMigrate: {
      if (slot == FlowTable::kNilSlot ||
          flows_.status(slot) != FlowStatus::kInitPending) {
        m_.stale_grants.Add();
        return;
      }
      // The grant's piggyback (the flow's first packet) is consumed below,
      // so parse it up front; a grant with a malformed piggyback is dropped
      // whole, as a malformed ack.
      std::optional<net::Packet> piggy;
      if (msg.has_piggyback()) {
        piggy = msg.PiggybackPacket();
        if (!piggy.has_value()) {
          m_.malformed_acks.Add();
          return;
        }
      }
      node_.mirror().Acknowledge(key, seq, cancel_retx);
      const bool migrate = msg.ack() == AckKind::kLeaseGrantMigrate;
      if (migrate) {
        m_.grants_migrate.Add();
      } else {
        m_.grants_new.Add();
      }
      const obs::Ev granted =
          migrate ? obs::Ev::kFailoverRehome : obs::Ev::kLeaseGrant;
      if (trace_.armed(granted)) {
        trace_.Emit(granted, net::HashPartitionKey(key), seq, 0.0, span);
      }
      const SimTime init_sent = flows_.cold(slot).init_sent_at;
      const SimTime sent_at = init_sent != 0 ? init_sent : ctx.Now();
      flows_.cold(slot).init_sent_at = 0;

      const std::size_t state_size = msg.state().size();
      auto install = [this, key, state = msg.state().ToVector(), seq, sent_at,
                      piggy = std::move(piggy)]() mutable {
        // Re-resolve by key: a control-plane install may be delayed past an
        // erase that recycled the slot.
        const std::uint32_t s = flows_.FindSlot(key);
        if (s == FlowTable::kNilSlot ||
            flows_.status(s) != FlowStatus::kInitPending) {
          return;
        }
        flows_.cold(s).state = std::move(state);
        flows_.cold(s).has_state = true;
        flows_.set_cur_seq(s, seq);
        flows_.set_last_acked_seq(s, seq);
        flows_.set_lease_expiry(s, sent_at + config_.lease_period +
                                       config_.mutation_lease_extension);
        flows_.set_status(s, FlowStatus::kActive);
        flows_.cold(s).init_loops = 0;
        if (trace_.armed(obs::Ev::kLeaseAcquired)) {
          trace_.Emit(obs::Ev::kLeaseAcquired, net::HashPartitionKey(key), seq,
                      0.0, 0, 0,
                      static_cast<std::uint64_t>(flows_.lease_expiry(s)));
        }
        if (spec_.mode == ConsistencyMode::kReplicatedRead) {
          // Announce the weaker mode to the mode-aware monitors and
          // subscribe this switch to the store's replica pushes.  (Single-
          // owner flows announce nothing: their path stays bit-identical.)
          if (trace_.armed(obs::Ev::kFlowAdmitted)) {
            trace_.Emit(obs::Ev::kFlowAdmitted, net::HashPartitionKey(key), 0,
                        0.0, 0, 0, static_cast<std::uint64_t>(spec_.mode));
          }
          FlowTable::Cold& cold = flows_.cold(s);
          if (!cold.replica_subscribed) {
            cold.replica_subscribed = true;
            Msg sub;
            sub.type = MsgType::kReplicaSubscribe;
            sub.key = key;
            sub.reply_to = node_.ip();
            sub.mode = spec_.mode;
            sub.span_id = NewSpanId();
            SendRequest(sub, /*mirror=*/false);
          }
        }
        if (piggy.has_value()) {
          // The first packet of the flow, returned with the grant: process
          // it now on a fresh pipeline pass.
          node_.Recirculate([this, p = std::move(*piggy)](
                                dp::SwitchContext& rctx) mutable {
            m_.orig_bytes.Add(-static_cast<double>(p.WireSize()));
            HandleAppPacket(rctx, std::move(p));
          });
        }
      };
      if (app_.StateInMatchTable()) {
        // Match-table state installs only via the switch control plane.
        m_.cp_installs.Add();
        node_.control_plane().Submit(state_size + 64, std::move(install));
      } else {
        install();
      }
      return;
    }
    case AckKind::kWriteAck: {
      if (slot != FlowTable::kNilSlot) {
        // Write replication RTT, measured send-to-ack from the pending-send
        // record the ack is about to consume.
        const SimTime sent_at = flows_.SendTimeOf(slot, seq);
        if (sent_at != 0) {
          m_.write_rtt_us.Record(
              static_cast<double>(ctx.Now() - sent_at) / 1e3);
        }
        flows_.NoteAck(slot, seq,
                       config_.lease_period + config_.mutation_lease_extension);
        if (trace_.armed(obs::Ev::kLeaseAcquired)) {
          trace_.Emit(obs::Ev::kLeaseAcquired, net::HashPartitionKey(key), seq,
                      0.0, 0, 0,
                      static_cast<std::uint64_t>(flows_.lease_expiry(slot)));
        }
      }
      node_.mirror().Acknowledge(key, seq, cancel_retx);
      if (trace_.armed(obs::Ev::kAckReleased)) {
        trace_.Emit(obs::Ev::kAckReleased, net::HashPartitionKey(key), seq,
                    0.0, span);
      }
      if (msg.has_piggyback()) {
        if (auto piggy = msg.PiggybackPacket()) {
          ReleaseOutput(ctx, key, std::move(*piggy));
        } else {
          m_.malformed_acks.Add();
        }
      }
      return;
    }
    case AckKind::kReadReturn: {
      if (!msg.has_piggyback()) return;
      if (seq == 0) {
        // An unprocessed input that looped while the grant was pending.
        if (slot != FlowTable::kNilSlot &&
            flows_.status(slot) == FlowStatus::kInitPending) {
          // Still no lease (e.g. a control-plane install in progress):
          // loop again, bounded per packet.
          if (msg.snapshot_index() >= kMaxInitLoops) {
            m_.init_loop_drops.Add();
            if (trace_.armed(obs::Ev::kOutputDropped)) {
              trace_.Emit(obs::Ev::kOutputDropped, net::HashPartitionKey(key),
                          0, static_cast<double>(msg.snapshot_index()), span);
            }
            return;  // permitted input loss
          }
          // Re-loop without ever parsing the buffered input: its serialized
          // bytes are spliced verbatim into the next request.
          Msg buf;
          buf.type = MsgType::kReadBufferReq;
          buf.key = key;
          buf.seq = 0;
          buf.snapshot_index = msg.snapshot_index() + 1;
          buf.reply_to = node_.ip();
          buf.piggyback_raw = msg.piggyback_bytes();
          // The re-loop keeps the request's span: every lap through the
          // network buffer accumulates in one lifecycle.
          buf.span_id = span;
          m_.init_loop_buffered.Add();
          if (trace_.armed(obs::Ev::kBufferedReadLoop)) {
            trace_.Emit(obs::Ev::kBufferedReadLoop, net::HashPartitionKey(key),
                        0, static_cast<double>(msg.snapshot_index() + 1), span);
          }
          SendRequest(buf, /*mirror=*/false);
          return;
        }
        // Lease landed (or flow was forgotten): run the input through the
        // pipeline again.
        auto piggy = msg.PiggybackPacket();
        if (!piggy.has_value()) {
          m_.malformed_acks.Add();
          return;
        }
        node_.Recirculate([this, p = std::move(*piggy)](
                              dp::SwitchContext& rctx) mutable {
          m_.orig_bytes.Add(-static_cast<double>(p.WireSize()));
          HandleAppPacket(rctx, std::move(p));
        });
      } else {
        // A processed output whose awaited write is now durable.
        auto piggy = msg.PiggybackPacket();
        if (!piggy.has_value()) {
          m_.malformed_acks.Add();
          return;
        }
        if (trace_.armed(obs::Ev::kAckReleased)) {
          trace_.Emit(obs::Ev::kAckReleased, net::HashPartitionKey(key), seq,
                      0.0, span);
        }
        ReleaseOutput(ctx, key, std::move(*piggy));
      }
      return;
    }
    case AckKind::kRenewAck: {
      if (slot == FlowTable::kNilSlot) return;
      FlowTable::Cold& cold = flows_.cold(slot);
      CancelRenewTimer(slot);
      cold.renew_in_flight = false;
      if (trace_.armed(obs::Ev::kRenewAck)) {
        trace_.Emit(obs::Ev::kRenewAck, net::HashPartitionKey(key), seq, 0.0,
                    span);
      }
      if (cold.renew_sent_at != 0) {
        flows_.set_lease_expiry(
            slot, std::max(flows_.lease_expiry(slot),
                           cold.renew_sent_at + config_.lease_period +
                               config_.mutation_lease_extension));
        cold.renew_sent_at = 0;
        if (trace_.armed(obs::Ev::kLeaseAcquired)) {
          trace_.Emit(obs::Ev::kLeaseAcquired, net::HashPartitionKey(key), seq,
                      0.0, 0, 0,
                      static_cast<std::uint64_t>(flows_.lease_expiry(slot)));
        }
      }
      return;
    }
    case AckKind::kLeaseDenied: {
      // Another switch owns the flow; forget it here (its packets will
      // re-init if routing brings them back).
      m_.lease_denials.Add();
      if (trace_.armed(obs::Ev::kLeaseDenied)) {
        trace_.Emit(obs::Ev::kLeaseDenied, net::HashPartitionKey(key), 0, 0.0,
                    span);
      }
      if (slot != FlowTable::kNilSlot) {
        if (trace_.armed(obs::Ev::kLeaseReleased)) {
          trace_.Emit(obs::Ev::kLeaseReleased, net::HashPartitionKey(key));
        }
        CancelRenewTimer(slot);
      }
      flows_.Erase(key);
      // Cumulative release: drops every mirrored request of the flow,
      // cancelling each one's retransmit timer (and with it the per-entry
      // retransmit count that used to leak from a side map here).
      node_.mirror().Acknowledge(key, UINT64_MAX, cancel_retx);
      return;
    }
    case AckKind::kSnapshotAck: {
      if (epsilon_ != nullptr) {
        epsilon_->SlotAcked(key, seq, ctx.Now());
      }
      node_.mirror().Acknowledge(key, SnapSeq(seq, msg.snapshot_index()),
                                 cancel_retx);
      return;
    }
    case AckKind::kMergeAck: {
      // A merge delta was joined at the store.  The ack carries the merged
      // global state: fold remote writers' contributions into the local
      // copy (the merge is idempotent, so re-folding our own is harmless).
      node_.mirror().Acknowledge(key, seq, cancel_retx);
      if (slot != FlowTable::kNilSlot) {
        flows_.NoteAck(slot, seq, config_.lease_period);
        const net::BufferView merged = msg.state();
        // Only mergeable switches send deltas; a merge ack reaching any
        // other switch carries no state it may adopt.
        if (merged.size() > 0 && spec_.mode == ConsistencyMode::kMergeable) {
          spec_.merge(flows_.cold(slot).state, merged.span());
        }
        m_.merge_acks.Add();
      }
      return;
    }
    case AckKind::kReplicaPush: {
      // Unsolicited store push (replicated-read): refresh the local replica
      // — but never clobber local writes that are still in flight, and
      // never regress to a push older than what this switch already acked.
      if (slot == FlowTable::kNilSlot ||
          flows_.status(slot) != FlowStatus::kActive ||
          flows_.WritesInFlight(slot) || seq < flows_.cur_seq(slot)) {
        return;
      }
      flows_.cold(slot).state.assign(msg.state().begin(), msg.state().end());
      flows_.cold(slot).has_state = true;
      flows_.set_cur_seq(slot, seq);
      flows_.set_last_acked_seq(slot, seq);
      m_.replica_pushes_rx.Add();
      return;
    }
    case AckKind::kNone:
      m_.malformed_acks.Add();
      return;
  }
}

void RedPlaneSwitch::SendRequest(const Msg& msg, bool mirror) {
  obs::ProfScope prof(g_prof_send_request);
  // Encode once; the wire packet and the mirror copy share the buffer.
  net::Buffer payload = EncodeMsg(msg);
  const net::Ipv4Addr shard = shard_for_(msg.key);
  m_.reqs_sent.Add();
  if (mirror) {
    net::BufferView mdata{payload};
    const bool has_piggy =
        msg.piggyback.has_value() || !msg.piggyback_raw.empty();
    if (!config_.mirror_include_piggyback && has_piggy) {
      // Slice off the piggybacked output and zero its length field; the
      // patch copies only the retained prefix (CoW), never the output.
      const std::size_t sans_piggy = HeaderWireSize(msg.key) + msg.state.size();
      mdata = mdata.Prefix(sans_piggy);
      mdata.PatchU16(HeaderWireSize(msg.key) - 2, 0);
    }
    const std::uint64_t mirror_seq =
        msg.type == MsgType::kSnapshotRepl
            ? SnapSeq(msg.seq, msg.snapshot_index)
            : msg.seq;
    const dp::MirrorTable::Handle h = node_.mirror().Mirror(
        msg.key, mirror_seq, std::move(mdata), node_.sim().Now());
    ArmMirrorTimer(h);
  }
  // Replication traffic (writes and renewals) coalesces per shard when
  // enabled; everything else — and everything when coalesce_delay is 0 —
  // leaves immediately as its own packet.
  if (config_.coalesce_delay > 0 && (msg.type == MsgType::kLeaseRenewReq ||
                                     msg.type == MsgType::kLeaseRenewOnly)) {
    EnqueueForBatch(shard, net::BufferView{std::move(payload)});
    return;
  }
  net::Packet pkt = MakeProtocolPacketRaw(node_.ip(), shard, payload);
  m_.req_bytes.Add(static_cast<double>(pkt.WireSize()));
  node_.ForwardPacket(std::move(pkt), kInvalidPort);
}

void RedPlaneSwitch::EnqueueForBatch(net::Ipv4Addr shard,
                                     net::BufferView msg) {
  PendingBatch& b = coalesce_[shard.value];
  if (b.msgs.empty()) {
    b.opened_at = node_.sim().Now();
    const std::uint64_t epoch = epoch_;
    const std::uint64_t gen = b.gen;
    node_.sim().Schedule(config_.coalesce_delay, [this, shard, epoch, gen]() {
      if (epoch != epoch_) return;
      const auto it = coalesce_.find(shard.value);
      if (it == coalesce_.end() || it->second.gen != gen) return;
      FlushBatch(shard);
    });
  }
  b.bytes += msg.size();
  b.msgs.push_back(std::move(msg));
  if (b.msgs.size() >= config_.coalesce_max_msgs ||
      b.bytes >= kCoalesceMaxBytes) {
    FlushBatch(shard);
  }
}

void RedPlaneSwitch::FlushBatch(net::Ipv4Addr shard) {
  const auto it = coalesce_.find(shard.value);
  if (it == coalesce_.end()) return;
  PendingBatch& b = it->second;
  ++b.gen;  // invalidates any delayed flush still scheduled
  if (b.msgs.empty()) return;
  m_.coalesce_wait_us.Record(
      static_cast<double>(node_.sim().Now() - b.opened_at) / 1e3);
  net::Packet pkt;
  if (b.msgs.size() == 1) {
    // A lone message goes out unwrapped: same bytes as per-packet mode.
    pkt = MakeProtocolPacketRaw(node_.ip(), shard, std::move(b.msgs.front()));
  } else {
    net::BufferView env = net::EncodeBatchEnvelope(b.msgs);
    m_.batch_envelopes.Add();
    m_.batch_msgs.Record(static_cast<double>(b.msgs.size()));
    m_.batch_bytes.Record(static_cast<double>(env.size()));
    if (trace_.armed(obs::Ev::kBatchFlushed)) {
      trace_.Emit(obs::Ev::kBatchFlushed, shard.value,
                  static_cast<std::uint64_t>(b.msgs.size()),
                  static_cast<double>(env.size()));
    }
    pkt = MakeProtocolPacketRaw(node_.ip(), shard, std::move(env));
  }
  b.msgs.clear();
  b.bytes = 0;
  m_.req_bytes.Add(static_cast<double>(pkt.WireSize()));
  node_.ForwardPacket(std::move(pkt), kInvalidPort);
}

void RedPlaneSwitch::ArmMirrorTimer(dp::MirrorTable::Handle h) {
  const std::uint64_t epoch = epoch_;
  const std::uint64_t id =
      node_.sim().Schedule(config_.request_timeout, [this, h, epoch]() {
        if (epoch == epoch_) OnMirrorTimeout(h);
      });
  node_.mirror().set_timer(h, id);
}

void RedPlaneSwitch::OnMirrorTimeout(dp::MirrorTable::Handle h) {
  dp::MirrorTable& mirror = node_.mirror();
  if (!mirror.Alive(h)) return;
  // This timer has fired: clear the stored id *before* anything that could
  // release the entry, so release paths never cancel a dead event.
  mirror.set_timer(h, 0);
  const SimTime now = node_.sim().Now();
  // Give-up horizon: a write is abandoned after max_retransmissions
  // timeouts; a lease acquisition (seq 0) legitimately waits out another
  // switch's lease at the store, so it lives for two lease periods.
  const SimDuration horizon =
      mirror.seq(h) == 0
          ? 2 * config_.lease_period
          : static_cast<SimDuration>(config_.max_retransmissions) *
                config_.request_timeout;
  if (now - mirror.enqueued_at(h) > horizon) {
    GiveUpMirror(h);
    return;
  }
  // Resend the mirrored bytes verbatim — no decode/re-encode.  A copy
  // truncated below its own header cannot be resent (it would be dropped
  // by the store anyway), so it is abandoned like a dead request.
  const auto msg = MsgView::Parse(mirror.data(h));
  if (!msg.has_value()) {
    GiveUpMirror(h);
    return;
  }
  mirror.set_last_sent_at(h, now);
  mirror.BumpRetx(h);
  m_.retransmits.Add();
  if (trace_.armed(obs::Ev::kRetransmit)) {
    // The mirrored bytes carry the original request's span id verbatim.
    trace_.Emit(obs::Ev::kRetransmit, net::HashPartitionKey(mirror.key(h)),
                mirror.seq(h), static_cast<double>(mirror.retx_count(h)),
                msg->span_id());
  }
  const net::Ipv4Addr shard = shard_for_(msg->key());
  if (config_.coalesce_delay > 0 && (msg->type() == MsgType::kLeaseRenewReq ||
                                     msg->type() == MsgType::kLeaseRenewOnly)) {
    EnqueueForBatch(shard, mirror.data(h));
  } else {
    net::Packet pkt = MakeProtocolPacketRaw(node_.ip(), shard, mirror.data(h));
    m_.req_bytes.Add(static_cast<double>(pkt.WireSize()));
    node_.ForwardPacket(std::move(pkt), kInvalidPort);
  }
  ArmMirrorTimer(h);
}

void RedPlaneSwitch::GiveUpMirror(dp::MirrorTable::Handle h) {
  const net::PartitionKey key = node_.mirror().key(h);
  const std::uint64_t seq = node_.mirror().seq(h);
  m_.retx_give_ups.Add();
  if (trace_.armed(obs::Ev::kRetxGiveUp)) {
    trace_.Emit(obs::Ev::kRetxGiveUp, net::HashPartitionKey(key), seq);
  }
  // Releases h itself (its timer lane is already 0 — the fired timer
  // cleared it) and any earlier mirrors of the flow, whose pending timers
  // are cancelled by the visitor.
  node_.mirror().Acknowledge(key, seq, [this](dp::MirrorTable::Handle,
                                              std::uint64_t timer) {
    if (timer != 0) node_.sim().Cancel(timer);
  });
  if (seq == 0) {
    // An abandoned lease acquisition must not leave a zombie kInitPending
    // entry behind (it would drop the flow's packets forever); forget the
    // flow so its next packet restarts the acquisition — the store absorbs
    // the duplicate Init.
    const std::uint32_t slot = flows_.FindSlot(key);
    if (slot != FlowTable::kNilSlot &&
        flows_.status(slot) == FlowStatus::kInitPending) {
      if (trace_.armed(obs::Ev::kLeaseReleased)) {
        trace_.Emit(obs::Ev::kLeaseReleased, net::HashPartitionKey(key));
      }
      CancelRenewTimer(slot);
      flows_.Erase(key);
    }
  }
}

void RedPlaneSwitch::ArmRenewTimer(std::uint32_t slot) {
  const std::uint32_t gen = flows_.gen(slot);
  const std::uint64_t epoch = epoch_;
  flows_.cold(slot).renew_timer =
      node_.sim().Schedule(config_.request_timeout, [this, slot, gen, epoch]() {
        if (epoch == epoch_) OnRenewTimeout(slot, gen);
      });
}

void RedPlaneSwitch::OnRenewTimeout(std::uint32_t slot, std::uint32_t gen) {
  if (!flows_.Alive(slot, gen)) return;
  FlowTable::Cold& cold = flows_.cold(slot);
  cold.renew_timer = 0;  // fired; release paths must not cancel it
  if (!cold.renew_in_flight) return;
  // The renewal (or its ack) was lost: un-wedge so the next packet can
  // renew again, and forget the send time so a very late ack does not
  // extend the lease from it.
  cold.renew_in_flight = false;
  cold.renew_sent_at = 0;
  m_.renew_timeouts.Add();
}

void RedPlaneSwitch::CancelRenewTimer(std::uint32_t slot) {
  FlowTable::Cold& cold = flows_.cold(slot);
  if (cold.renew_timer != 0) {
    node_.sim().Cancel(cold.renew_timer);
    cold.renew_timer = 0;
  }
}

void RedPlaneSwitch::StartSnapshotReplication() {
  if (spec_.mode != ConsistencyMode::kSnapshot) {
    RP_LOG(kWarn) << node_.name()
                  << ": snapshot replication needs snapshot mode; not started";
    return;
  }
  // ResolveSpec admitted kSnapshot only for a Snapshottable app.
  snapshottable_ = dynamic_cast<Snapshottable*>(&app_);
  if (epsilon_ == nullptr) {
    epsilon_ = std::make_unique<EpsilonTracker>(
        kEpsilonBound, [this](const net::PartitionKey&) {
          m_.epsilon_violations.Add();
        });
  }
  // ε visibility: bound as a gauge, observed staleness as a histogram, and
  // one audit sample per key per ε-audit tick.  Re-registering on the
  // OnRecovery re-entry fetches the same cells, so this is idempotent.
  m_.epsilon_bound_us = stats_.RegisterGauge("epsilon_bound_us");
  m_.epsilon_bound_us.Set(ToMicroseconds(kEpsilonBound));
  m_.epsilon_staleness_us = stats_.RegisterHistogram("epsilon_staleness_us");
  epsilon_->SetObserver([this](const net::PartitionKey& key,
                               SimDuration staleness, SimTime /*now*/) {
    m_.epsilon_staleness_us.Record(ToMicroseconds(staleness));
    if (trace_.armed(obs::Ev::kEpsilonSample)) {
      trace_.Emit(obs::Ev::kEpsilonSample, net::HashPartitionKey(key), 0,
                  static_cast<double>(staleness), 0, 0,
                  static_cast<std::uint64_t>(kEpsilonBound));
    }
  });
  // One batch per T_snap; packet i addresses slot i (§5.4).  Generated
  // packets are spaced a pipeline-pass apart.
  node_.packet_generator().Start(
      config_.snapshot_period, snapshottable_->NumSnapshotSlots(),
      node_.config().pipeline_latency,
      [this](std::uint32_t index) { SnapshotBurstSlot(index); });
  // Periodic ε audit.
  const std::uint64_t epoch = epoch_;
  node_.sim().Schedule(kEpsilonBound,
                       [this, epoch]() { EpsilonAuditTick(epoch); });
}

void RedPlaneSwitch::EpsilonAuditTick(std::uint64_t epoch) {
  if (epoch != epoch_ || epsilon_ == nullptr) return;
  epsilon_->Check(node_.sim().Now());
  node_.sim().Schedule(kEpsilonBound,
                       [this, epoch]() { EpsilonAuditTick(epoch); });
}

void RedPlaneSwitch::SnapshotBurstSlot(std::uint32_t index) {
  if (snapshottable_ == nullptr) return;
  const SimTime now = node_.sim().Now();
  const auto keys = snapshottable_->SnapshotKeys();
  if (index == 0) {
    ++snapshot_round_;
    for (const auto& key : keys) {
      snapshottable_->BeginSnapshot(key);
      if (epsilon_ != nullptr) {
        epsilon_->BeginRound(key, snapshot_round_,
                             snapshottable_->NumSnapshotSlots(), now);
      }
    }
  }
  for (const auto& key : keys) {
    Msg msg;
    msg.type = MsgType::kSnapshotRepl;
    msg.key = key;
    msg.seq = snapshot_round_;
    msg.snapshot_index = index;
    msg.reply_to = node_.ip();
    msg.mode = spec_.mode;
    msg.state = snapshottable_->ReadSnapshotSlot(key, index);
    msg.span_id = NewSpanId();
    m_.snapshot_slots_sent.Add();
    if (trace_.armed(obs::Ev::kSnapshotSent)) {
      trace_.Emit(obs::Ev::kSnapshotSent, net::HashPartitionKey(key),
                  SnapSeq(snapshot_round_, index),
                  static_cast<double>(msg.state.size()), msg.span_id);
    }
    SendRequest(msg, /*mirror=*/true);
  }
}

void RedPlaneSwitch::ReleaseOutput(dp::SwitchContext& ctx,
                                   const net::PartitionKey& key,
                                   net::Packet pkt) {
  (void)ctx;
  m_.outputs_released.Add();
  // Bandwidth accounting counts what the switch sends and receives (the
  // paper's Fig. 10 methodology), so the released output counts as original
  // traffic alongside its arrival.
  m_.orig_bytes.Add(static_cast<double>(pkt.WireSize()));
  if (trace_.armed(obs::Ev::kOutputServed)) {
    trace_.Emit(obs::Ev::kOutputServed, net::HashPartitionKey(key));
  }
  node_.ForwardPacket(std::move(pkt), kInvalidPort);
}

void RedPlaneSwitch::DumpLeaseTable(std::ostream& os) const {
  const SimTime now = node_.sim().Now();
  std::vector<std::pair<std::string, FlowRef>> rows;
  flows_.ForEach([&](const net::PartitionKey& key, FlowRef ref) {
    rows.emplace_back(net::ToString(key), ref);
  });
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  os << rows.size() << " flow(s), t=" << now << "ns\n";
  for (const auto& [name, e] : rows) {
    os << "  " << name
       << (e.status() == FlowStatus::kActive ? " active" : " init-pending")
       << " cur_seq=" << e.cur_seq() << " acked=" << e.last_acked_seq()
       << " lease_expiry=" << e.lease_expiry()
       << (e.LeaseActive(now) ? " (live)" : " (expired)")
       << " in_flight=" << (e.cur_seq() - e.last_acked_seq()) << "\n";
  }
}

void RedPlaneSwitch::Reset() {
  ++epoch_;
  if (trace_.armed(obs::Ev::kLeaseReleased)) {
    // key 0 = "this component dropped every lease" (SRAM lost on failure).
    trace_.Emit(obs::Ev::kLeaseReleased, 0);
  }
  // Cancel every per-entry timer before the tables forget the entries; the
  // epoch bump alone would keep the events pending (and their payload slots
  // pinned) until they fire as no-ops.
  flows_.ForEach([this](const net::PartitionKey&, FlowRef ref) {
    CancelRenewTimer(ref.slot());
  });
  flows_.Reset();
  node_.mirror().ForEach([this](dp::MirrorTable::Handle h) {
    const std::uint64_t timer = node_.mirror().timer(h);
    if (timer != 0) {
      node_.sim().Cancel(timer);
      node_.mirror().set_timer(h, 0);
    }
  });
  coalesce_.clear();  // pending batches are lost with the SRAM
  merge_dirty_.clear();
  merge_tick_armed_ = false;  // the epoch bump killed any scheduled tick
  app_.Reset();
}

void RedPlaneSwitch::OnRecovery() {
  ++epoch_;
  coalesce_.clear();
  merge_dirty_.clear();
  merge_tick_armed_ = false;
  if (snapshottable_ != nullptr) StartSnapshotReplication();
}

}  // namespace redplane::core
