#include "apps/kv_store.h"

#include "net/codec.h"

namespace redplane::apps {

net::Packet MakeKvPacket(const net::FlowKey& flow, const KvRequest& req) {
  // Requests must target kKvUdpPort (the app matches on it); replies flow
  // back with kKvUdpPort as the source, so transit switches do not
  // re-interpret them as requests.
  net::Packet pkt = net::MakeUdpPacket(flow, 0);
  std::vector<std::byte> buf;
  net::ByteWriter w(buf);
  w.U8(static_cast<std::uint8_t>(req.op));
  w.U64(req.key);
  w.U64(req.value);
  pkt.payload = std::move(buf);
  return pkt;
}

std::optional<KvRequest> ParseKvPacket(const net::Packet& pkt) {
  if (!pkt.udp.has_value() || pkt.udp->dst_port != kKvUdpPort) {
    return std::nullopt;
  }
  net::ByteReader r(pkt.payload);
  KvRequest req;
  req.op = static_cast<KvOp>(r.U8());
  req.key = r.U64();
  req.value = r.U64();
  if (!r.ok()) return std::nullopt;
  return req;
}

std::optional<net::PartitionKey> KvStoreApp::KeyOf(
    const net::Packet& pkt) const {
  auto req = ParseKvPacket(pkt);
  if (!req.has_value()) return std::nullopt;
  return net::PartitionKey::OfObject(req->key);
}

core::ProcessResult KvStoreApp::Process(core::AppContext& ctx, net::Packet pkt,
                                        std::vector<std::byte>& state) {
  (void)ctx;
  core::ProcessResult result;
  auto req = ParseKvPacket(pkt);
  if (!req.has_value()) return result;

  if (req->op == KvOp::kUpdate) {
    core::SetState(state, req->value);
    result.state_modified = true;
    // Acknowledge toward the client (the written value echoed back).
    net::FlowKey reply_flow = pkt.Flow()->Reversed();
    result.output = MakeKvPacket(reply_flow, *req);
    return result;
  }

  // Read: answer with the stored value (0 if never written).
  const std::uint64_t value =
      core::StateAs<std::uint64_t>(state).value_or(0);
  KvRequest resp = *req;
  resp.value = value;
  net::FlowKey reply_flow = pkt.Flow()->Reversed();
  net::Packet out = MakeKvPacket(reply_flow, resp);
  result.output = std::move(out);
  return result;
}

}  // namespace redplane::apps
