#include "trace/workload.h"

#include <algorithm>
#include <optional>

#include "apps/epc_sgw.h"

namespace redplane::trace {

std::uint32_t SampleDcPacketSize(Rng& rng) {
  // Bimodal mix per the IMC'10 DC measurement: ~half minimum-size (acks,
  // control), a heavy mode at MTU (bulk transfer), and a spread between.
  const double u = rng.UniformDouble();
  if (u < 0.45) return 64;
  if (u < 0.55) return static_cast<std::uint32_t>(rng.UniformInt(100, 300));
  if (u < 0.70) return static_cast<std::uint32_t>(rng.UniformInt(300, 1000));
  if (u < 0.80) return static_cast<std::uint32_t>(rng.UniformInt(1000, 1400));
  return 1500;
}

net::FlowKey FlowForIndex(const FlowMixConfig& config, std::size_t i) {
  net::FlowKey flow;
  flow.src_ip = net::Ipv4Addr(
      static_cast<std::uint32_t>(config.src_base.value + (i % 251)));
  flow.dst_ip = net::Ipv4Addr(
      static_cast<std::uint32_t>(config.dst_base.value + (i % 3)));
  flow.src_port = static_cast<std::uint16_t>(20000 + (i % 40000));
  flow.dst_port = config.dst_port;
  flow.proto = config.proto;
  return flow;
}

std::vector<TracePacket> GenerateFlowMix(Rng& rng,
                                         const FlowMixConfig& config) {
  std::vector<TracePacket> out;
  out.reserve(config.num_packets);
  // The CDF table costs one std::pow per flow; uniform mixes never use it.
  std::optional<ZipfSampler> zipf;
  if (config.zipf_theta > 0) zipf.emplace(config.num_flows, config.zipf_theta);
  SimTime now = 0;
  for (std::size_t i = 0; i < config.num_packets; ++i) {
    now += static_cast<SimDuration>(
        rng.Exponential(static_cast<double>(config.mean_interarrival)));
    TracePacket pkt;
    pkt.time = now;
    const std::size_t flow_idx =
        zipf ? zipf->Sample(rng) : rng.NextBounded(config.num_flows);
    pkt.flow = FlowForIndex(config, flow_idx);
    pkt.size_bytes = config.realistic_sizes ? SampleDcPacketSize(rng) : 64;
    pkt.vlan = config.vlan;
    out.push_back(pkt);
  }
  return out;
}

std::vector<TracePacket> GenerateEpcMix(Rng& rng, const EpcMixConfig& config) {
  std::vector<TracePacket> out;
  out.reserve(config.num_packets);
  SimTime now = 0;
  std::size_t since_signaling = 0;
  for (std::size_t i = 0; i < config.num_packets; ++i) {
    now += static_cast<SimDuration>(
        rng.Exponential(static_cast<double>(config.mean_interarrival)));
    TracePacket pkt;
    pkt.time = now;
    const std::uint32_t user =
        static_cast<std::uint32_t>(rng.NextBounded(config.num_users));
    pkt.flow.src_ip = config.internet_src;
    pkt.flow.dst_ip = net::Ipv4Addr(config.user_base.value + user);
    pkt.flow.src_port = 40000;
    pkt.flow.proto = net::IpProto::kUdp;
    if (++since_signaling > config.data_per_signaling) {
      since_signaling = 0;
      pkt.signaling = true;
      pkt.flow.dst_port = apps::kSgwSignalingPort;
      pkt.size_bytes = 80;
    } else {
      pkt.flow.dst_port = apps::kSgwDataPort;
      pkt.size_bytes = SampleDcPacketSize(rng);
    }
    out.push_back(pkt);
  }
  return out;
}

std::vector<KvOpEvent> GenerateKvOps(Rng& rng, const KvOpsConfig& config) {
  std::vector<KvOpEvent> out;
  out.reserve(config.num_ops);
  SimTime now = 0;
  for (std::size_t i = 0; i < config.num_ops; ++i) {
    now += static_cast<SimDuration>(
        rng.Exponential(static_cast<double>(config.mean_interarrival)));
    KvOpEvent ev;
    ev.time = now;
    ev.request.key = rng.NextBounded(config.num_keys);
    if (rng.Bernoulli(config.update_ratio)) {
      ev.request.op = apps::KvOp::kUpdate;
      ev.request.value = rng.Next();
    } else {
      ev.request.op = apps::KvOp::kRead;
    }
    out.push_back(ev);
  }
  return out;
}

net::Packet MaterializePacket(const TracePacket& spec) {
  if (spec.signaling) {
    // Signaling installs a bearer for the user: TEID derived from the user
    // address, eNB chosen from the user address too (deterministic).
    return apps::MakeSgwSignalingPacket(
        spec.flow.src_ip, spec.flow.dst_ip,
        /*teid=*/spec.flow.dst_ip.value & 0xffff,
        /*enb_ip=*/net::Ipv4Addr(192, 168, 11, 10));
  }
  const std::uint32_t headers = 14 + 20 + 20;
  const std::uint32_t pad =
      spec.size_bytes > headers ? spec.size_bytes - headers : 0;
  net::Packet pkt =
      spec.flow.proto == net::IpProto::kTcp
          ? net::MakeTcpPacket(
                spec.flow,
                spec.tcp_syn ? net::TcpFlags::kSyn : net::TcpFlags::kAck, 0, 0,
                pad)
          : net::MakeUdpPacket(spec.flow, pad);
  pkt.vlan = spec.vlan;
  pkt.created_at = spec.time;
  return pkt;
}

std::vector<TracePacket> GenerateFlashCrowd(Rng& rng,
                                            const FlashCrowdConfig& config) {
  std::vector<TracePacket> out;
  out.reserve(config.num_flows * config.packets_per_flow);
  const auto window = static_cast<std::uint64_t>(
      config.duration > 0 ? config.duration : 1);
  for (std::size_t f = 0; f < config.num_flows; ++f) {
    net::FlowKey flow;
    flow.src_ip = config.src;
    flow.dst_ip = config.dst;
    flow.src_port = static_cast<std::uint16_t>(config.base_port + f);
    flow.dst_port = config.dst_port;
    flow.proto = config.proto;
    // The flow's first packet lands uniformly in the window's first half,
    // follow-ups shortly after — the whole crowd arrives at once instead of
    // Poisson-spreading.
    SimTime t = config.start +
                static_cast<SimTime>(rng.NextBounded(window / 2 + 1));
    for (std::size_t p = 0; p < config.packets_per_flow; ++p) {
      TracePacket pkt;
      pkt.time = t;
      pkt.flow = flow;
      pkt.size_bytes = 64;
      out.push_back(pkt);
      t += static_cast<SimDuration>(
          rng.NextBounded(window / (2 * config.packets_per_flow) + 1));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TracePacket& a, const TracePacket& b) {
              return a.time < b.time;
            });
  return out;
}

std::vector<TracePacket> GenerateSynFlood(Rng& rng,
                                          const SynFloodConfig& config) {
  std::vector<TracePacket> out;
  out.reserve(config.num_packets);
  const auto window = static_cast<std::uint64_t>(
      config.duration > 0 ? config.duration : 1);
  SimTime now = config.start;
  for (std::size_t i = 0; i < config.num_packets; ++i) {
    TracePacket pkt;
    pkt.time = now;
    pkt.flow.src_ip = net::Ipv4Addr(static_cast<std::uint32_t>(
        config.src_base.value + rng.NextBounded(config.src_spread)));
    pkt.flow.dst_ip = config.dst;
    pkt.flow.src_port =
        static_cast<std::uint16_t>(1024 + rng.NextBounded(60000));
    pkt.flow.dst_port = config.dst_port;
    pkt.flow.proto = net::IpProto::kTcp;
    pkt.tcp_syn = true;
    pkt.size_bytes = 64;
    out.push_back(pkt);
    now += static_cast<SimDuration>(
        rng.NextBounded(2 * window / config.num_packets + 1));
  }
  return out;
}

std::vector<TracePacket> GenerateLeaseChurn(Rng& rng,
                                            const LeaseChurnConfig& config) {
  std::vector<TracePacket> out;
  const SimTime end = config.start + config.duration;
  SimTime burst_at = config.start;
  while (burst_at < end) {
    for (std::size_t f = 0; f < config.num_flows; ++f) {
      net::FlowKey flow;
      flow.src_ip = config.src;
      flow.dst_ip = config.dst;
      flow.src_port = static_cast<std::uint16_t>(config.base_port + f);
      flow.dst_port = config.dst_port;
      flow.proto = net::IpProto::kUdp;
      for (std::size_t p = 0; p < config.packets_per_burst; ++p) {
        TracePacket pkt;
        pkt.time = burst_at + static_cast<SimDuration>(
                                  rng.NextBounded(Microseconds(50)));
        pkt.flow = flow;
        pkt.size_bytes = 64;
        out.push_back(pkt);
      }
    }
    burst_at += config.burst_gap > 0 ? config.burst_gap : Milliseconds(1);
  }
  std::sort(out.begin(), out.end(),
            [](const TracePacket& a, const TracePacket& b) {
              return a.time < b.time;
            });
  return out;
}

}  // namespace redplane::trace
