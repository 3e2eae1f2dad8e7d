// Minimal TCP Reno endpoints for end-to-end experiments.
//
// Implements what the iperf failover experiment (paper Fig. 14) exercises:
// three-way handshake, cumulative acks, slow start, congestion avoidance,
// fast retransmit/recovery on triple duplicate acks, and RTO with
// exponential backoff.  Sequence numbers are standard 32-bit with wraparound
// comparisons.  Goodput is recorded at the receiver into a TimeSeries for
// the throughput-over-time plot.
#pragma once

#include <map>
#include <optional>

#include "common/stats.h"
#include "net/packet.h"
#include "sim/node.h"
#include "sim/simulator.h"

namespace redplane::tcp {

/// a < b in 32-bit sequence space.
inline bool SeqLt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
inline bool SeqLeq(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) <= 0;
}

struct TcpConfig {
  /// Payload bytes per segment (jumbo frames keep event counts tractable
  /// for minute-long runs).
  std::uint32_t mss = 8948;
  std::uint32_t init_cwnd_segments = 10;
  SimDuration min_rto = Milliseconds(200);
  SimDuration max_rto = Seconds(4);
  /// Receive window in segments.
  std::uint32_t rwnd_segments = 64;
};

class TcpSenderNode : public sim::Node {
 public:
  TcpSenderNode(sim::Simulator& sim, NodeId id, std::string name,
                net::Ipv4Addr ip, TcpConfig config = {});

  net::Ipv4Addr ip() const { return ip_; }

  /// Opens the connection (`flow` is the sender-side 5-tuple) and streams
  /// data indefinitely (iperf-style) until the simulation ends.
  void Start(const net::FlowKey& flow);

  void HandlePacket(net::Packet&& pkt, PortId in_port) override;

  std::uint64_t bytes_acked() const { return bytes_acked_; }
  double cwnd_segments() const { return cwnd_; }
  std::uint32_t retransmissions() const { return retransmissions_; }
  std::uint32_t timeouts() const { return timeouts_; }
  bool connected() const { return established_; }

 private:
  void SendSyn();
  void TrySendData();
  void SendSegment(std::uint32_t seq, bool retransmit);
  void OnAck(std::uint32_t ack);
  void ArmRto();
  void OnRto();
  SimDuration CurrentRto() const;

  net::Ipv4Addr ip_;
  TcpConfig config_;
  net::FlowKey flow_;
  bool started_ = false;
  bool established_ = false;

  std::uint32_t iss_ = 1000;   // initial send sequence
  std::uint32_t snd_nxt_ = 0;  // next sequence to send
  std::uint32_t snd_una_ = 0;  // oldest unacknowledged
  double cwnd_ = 0;            // congestion window, in segments
  double ssthresh_ = 1e9;
  std::uint32_t dupacks_ = 0;
  bool in_recovery_ = false;
  std::uint32_t recover_ = 0;  // recovery point for NewReno-style exit

  // RTT estimation (RFC 6298) on one timed segment at a time (Karn).
  std::optional<std::pair<std::uint32_t, SimTime>> timed_segment_;
  double srtt_ns_ = 0;
  double rttvar_ns_ = 0;
  bool have_rtt_ = false;
  std::uint32_t backoff_ = 0;

  sim::EventId rto_event_ = 0;
  std::uint64_t bytes_acked_ = 0;
  std::uint32_t retransmissions_ = 0;
  std::uint32_t timeouts_ = 0;
  std::uint32_t syn_retries_ = 0;
};

class TcpReceiverNode : public sim::Node {
 public:
  TcpReceiverNode(sim::Simulator& sim, NodeId id, std::string name,
                  net::Ipv4Addr ip, std::uint16_t listen_port,
                  SimDuration goodput_bucket = Milliseconds(100));

  net::Ipv4Addr ip() const { return ip_; }

  void HandlePacket(net::Packet&& pkt, PortId in_port) override;

  /// Delivered (in-order) bytes per time bucket.
  const TimeSeries& goodput() const { return goodput_; }
  std::uint64_t bytes_delivered() const { return bytes_delivered_; }
  /// Segments ignored because they came from an endpoint other than the
  /// connection's pinned peer.
  std::uint64_t foreign_segments() const { return foreign_segments_; }

 private:
  void SendAck(const net::Packet& data_pkt);

  net::Ipv4Addr ip_;
  std::uint16_t listen_port_;
  bool synced_ = false;
  /// Connection peer, pinned at SYN: segments from any other remote
  /// endpoint are ignored (a real socket is bound to the 4-tuple — this is
  /// what breaks connections when a NAT loses its translation state).
  net::Ipv4Addr peer_ip_;
  std::uint16_t peer_port_ = 0;
  std::uint64_t foreign_segments_ = 0;
  std::uint32_t rcv_nxt_ = 0;
  struct SeqLess {
    bool operator()(std::uint32_t a, std::uint32_t b) const {
      return SeqLt(a, b);
    }
  };
  /// Out-of-order segments: start seq -> length.
  std::map<std::uint32_t, std::uint32_t, SeqLess> ooo_;
  TimeSeries goodput_;
  std::uint64_t bytes_delivered_ = 0;
};

}  // namespace redplane::tcp
