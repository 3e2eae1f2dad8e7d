#include "tcp/tcp.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace redplane::tcp {

using net::TcpFlags;

TcpSenderNode::TcpSenderNode(sim::Simulator& sim, NodeId id, std::string name,
                             net::Ipv4Addr ip, TcpConfig config)
    : Node(sim, id, std::move(name)), ip_(ip), config_(config) {}

void TcpSenderNode::Start(const net::FlowKey& flow) {
  flow_ = flow;
  started_ = true;
  snd_nxt_ = iss_;
  snd_una_ = iss_;
  cwnd_ = config_.init_cwnd_segments;
  SendSyn();
}

void TcpSenderNode::SendSyn() {
  net::Packet syn = net::MakeTcpPacket(flow_, TcpFlags::kSyn, iss_, 0, 0);
  SendTo(0, std::move(syn));
  ArmRto();
}

SimDuration TcpSenderNode::CurrentRto() const {
  SimDuration rto;
  if (have_rtt_) {
    rto = static_cast<SimDuration>(srtt_ns_ + 4 * rttvar_ns_);
  } else {
    rto = Seconds(1);
  }
  rto = std::max(rto, config_.min_rto);
  rto <<= std::min<std::uint32_t>(backoff_, 4);
  return std::min(rto, config_.max_rto);
}

void TcpSenderNode::ArmRto() {
  if (rto_event_ != 0) sim_.Cancel(rto_event_);
  rto_event_ = sim_.Schedule(CurrentRto(), [this]() { OnRto(); });
}

void TcpSenderNode::OnRto() {
  rto_event_ = 0;
  if (!started_) return;
  ++timeouts_;
  ++backoff_;
  timed_segment_.reset();  // Karn: no RTT sample from retransmits
  if (!established_) {
    if (++syn_retries_ > 30) return;  // give up (connection broken)
    SendSyn();
    return;
  }
  // Loss: collapse to one segment and go back to the oldest outstanding —
  // everything past snd_una is presumed lost and will be resent as the
  // window regrows (go-back-N after a full timeout).
  ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
  cwnd_ = 1.0;
  dupacks_ = 0;
  in_recovery_ = false;
  SendSegment(snd_una_, /*retransmit=*/true);
  snd_nxt_ = snd_una_ + config_.mss;
  ArmRto();
}

void TcpSenderNode::SendSegment(std::uint32_t seq, bool retransmit) {
  net::Packet data = net::MakeTcpPacket(flow_, TcpFlags::kAck, seq, 0,
                                        config_.mss);
  if (retransmit) ++retransmissions_;
  if (!retransmit && !timed_segment_.has_value()) {
    timed_segment_ = {seq, sim_.Now()};
  }
  SendTo(0, std::move(data));
}

void TcpSenderNode::TrySendData() {
  const double window_segments = std::min(
      cwnd_, static_cast<double>(config_.rwnd_segments));
  const std::uint32_t window_bytes =
      static_cast<std::uint32_t>(window_segments) * config_.mss;
  while (SeqLt(snd_nxt_, snd_una_ + window_bytes)) {
    SendSegment(snd_nxt_, /*retransmit=*/false);
    snd_nxt_ += config_.mss;
  }
}

void TcpSenderNode::HandlePacket(net::Packet&& pkt, PortId in_port) {
  (void)in_port;
  if (!IsUp() || !pkt.tcp.has_value()) return;
  const net::TcpHeader& tcp = *pkt.tcp;

  if (!established_) {
    if (tcp.syn() && tcp.ack_flag() && tcp.ack == iss_ + 1) {
      established_ = true;
      backoff_ = 0;
      syn_retries_ = 0;
      snd_una_ = iss_ + 1;
      snd_nxt_ = snd_una_;
      // Complete the handshake, then stream.
      net::Packet ack =
          net::MakeTcpPacket(flow_, TcpFlags::kAck, snd_nxt_, tcp.seq + 1, 0);
      SendTo(0, std::move(ack));
      TrySendData();
      ArmRto();
    }
    return;
  }

  if (!tcp.ack_flag()) return;
  OnAck(tcp.ack);
}

void TcpSenderNode::OnAck(std::uint32_t ack) {
  if (SeqLt(snd_una_, ack)) {
    // New data acknowledged.
    const std::uint32_t newly = ack - snd_una_;
    bytes_acked_ += newly;
    snd_una_ = ack;
    backoff_ = 0;

    // RTT sample.
    if (timed_segment_.has_value() && SeqLt(timed_segment_->first, ack)) {
      const double sample =
          static_cast<double>(sim_.Now() - timed_segment_->second);
      if (!have_rtt_) {
        srtt_ns_ = sample;
        rttvar_ns_ = sample / 2;
        have_rtt_ = true;
      } else {
        rttvar_ns_ = 0.75 * rttvar_ns_ + 0.25 * std::abs(srtt_ns_ - sample);
        srtt_ns_ = 0.875 * srtt_ns_ + 0.125 * sample;
      }
      timed_segment_.reset();
    }

    if (in_recovery_) {
      if (SeqLeq(recover_, ack)) {
        // Recovery complete: deflate to ssthresh.
        in_recovery_ = false;
        cwnd_ = ssthresh_;
      }
    } else if (cwnd_ < ssthresh_) {
      cwnd_ += static_cast<double>(newly) / config_.mss;  // slow start
    } else {
      cwnd_ += static_cast<double>(newly) / config_.mss / cwnd_;  // CA
    }
    dupacks_ = 0;
    if (SeqLt(snd_una_, snd_nxt_)) {
      ArmRto();
    } else if (rto_event_ != 0) {
      sim_.Cancel(rto_event_);
      rto_event_ = 0;
    }
    TrySendData();
    return;
  }

  if (ack == snd_una_ && SeqLt(snd_una_, snd_nxt_)) {
    // Duplicate ack.
    if (++dupacks_ == 3 && !in_recovery_) {
      // Fast retransmit + recovery.
      in_recovery_ = true;
      recover_ = snd_nxt_;
      ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
      cwnd_ = ssthresh_ + 3;
      SendSegment(snd_una_, /*retransmit=*/true);
      ArmRto();
    } else if (in_recovery_) {
      cwnd_ += 1;  // inflate per additional dupack
      TrySendData();
    }
  }
}

TcpReceiverNode::TcpReceiverNode(sim::Simulator& sim, NodeId id,
                                 std::string name, net::Ipv4Addr ip,
                                 std::uint16_t listen_port,
                                 SimDuration goodput_bucket)
    : Node(sim, id, std::move(name)),
      ip_(ip),
      listen_port_(listen_port),
      goodput_(goodput_bucket) {}

void TcpReceiverNode::SendAck(const net::Packet& data_pkt) {
  const net::FlowKey reply = data_pkt.Flow()->Reversed();
  net::Packet ack = net::MakeTcpPacket(reply, TcpFlags::kAck, 1, rcv_nxt_, 0);
  SendTo(0, std::move(ack));
}

void TcpReceiverNode::HandlePacket(net::Packet&& pkt, PortId in_port) {
  (void)in_port;
  if (!IsUp() || !pkt.tcp.has_value() || !pkt.Flow().has_value()) return;
  const net::TcpHeader& tcp = *pkt.tcp;
  if (tcp.dst_port != listen_port_) return;

  if (tcp.syn()) {
    // (Re)synchronize; a fresh SYN resets the connection state and pins
    // the peer endpoint.
    synced_ = true;
    peer_ip_ = pkt.ip->src;
    peer_port_ = tcp.src_port;
    rcv_nxt_ = tcp.seq + 1;
    ooo_.clear();
    const net::FlowKey reply = pkt.Flow()->Reversed();
    net::Packet synack = net::MakeTcpPacket(
        reply, TcpFlags::kSyn | TcpFlags::kAck, 0, rcv_nxt_, 0);
    SendTo(0, std::move(synack));
    return;
  }
  if (!synced_) return;
  if (pkt.ip->src != peer_ip_ || tcp.src_port != peer_port_) {
    // Mid-stream endpoint change (e.g. a NAT that lost its mapping and
    // re-translated): not our connection.
    ++foreign_segments_;
    return;
  }
  // Segment length: synthetic pad bytes plus any materialized payload (a
  // packet that traversed a RedPlane piggyback comes back with its pad
  // re-materialized as payload bytes).
  const std::uint32_t len =
      pkt.pad_bytes + static_cast<std::uint32_t>(pkt.payload.size());
  if (len == 0) return;  // pure ack toward us: ignore

  if (tcp.seq == rcv_nxt_) {
    rcv_nxt_ += len;
    bytes_delivered_ += len;
    goodput_.Add(sim_.Now(), static_cast<double>(len));
    // Drain any contiguous out-of-order segments.
    auto it = ooo_.begin();
    while (it != ooo_.end() && SeqLeq(it->first, rcv_nxt_)) {
      if (SeqLt(rcv_nxt_, it->first + it->second)) {
        const std::uint32_t add = it->first + it->second - rcv_nxt_;
        rcv_nxt_ += add;
        bytes_delivered_ += add;
        goodput_.Add(sim_.Now(), static_cast<double>(add));
      }
      it = ooo_.erase(it);
    }
  } else if (SeqLt(rcv_nxt_, tcp.seq)) {
    ooo_[tcp.seq] = std::max(ooo_[tcp.seq], len);
    if (ooo_.size() > 4096) ooo_.erase(std::prev(ooo_.end()));
  }
  SendAck(pkt);
}

}  // namespace redplane::tcp
