#include "apps/counter.h"

#include "common/hash.h"
#include "net/codec.h"

namespace redplane::apps {

core::ProcessResult SyncCounterApp::Process(core::AppContext& ctx,
                                            net::Packet pkt,
                                            std::vector<std::byte>& state) {
  (void)ctx;
  core::ProcessResult result;
  std::uint64_t count = core::StateAs<std::uint64_t>(state).value_or(0);
  core::SetState(state, count + 1);
  result.state_modified = true;
  result.output = std::move(pkt);
  return result;
}

AsyncCounterApp::AsyncCounterApp(std::size_t slots)
    : counters_("async_counter", slots) {}

std::optional<net::PartitionKey> AsyncCounterApp::KeyOf(
    const net::Packet& pkt) const {
  if (!pkt.Flow().has_value()) return std::nullopt;
  // All counters share one snapshot structure; partition as one object.
  return net::PartitionKey::OfObject(0);
}

core::ProcessResult AsyncCounterApp::Process(core::AppContext& ctx,
                                             net::Packet pkt,
                                             std::vector<std::byte>& state) {
  (void)ctx;
  (void)state;
  core::ProcessResult result;
  if (auto flow = pkt.Flow()) {
    dp::PipelinePass pass;
    counters_.Update(pass, net::HashFlowKey(*flow) % counters_.slots(),
                     [](std::uint64_t v) { return v + 1; });
  }
  result.output = std::move(pkt);
  return result;
}

void AsyncCounterApp::Reset() { counters_.Reset(); }

std::vector<net::PartitionKey> AsyncCounterApp::SnapshotKeys() const {
  return {net::PartitionKey::OfObject(0)};
}

std::uint32_t AsyncCounterApp::NumSnapshotSlots() const {
  return static_cast<std::uint32_t>(counters_.slots());
}

void AsyncCounterApp::BeginSnapshot(const net::PartitionKey& key) {
  (void)key;
  dp::PipelinePass pass;
  counters_.BeginSnapshot(pass);
}

std::vector<std::byte> AsyncCounterApp::ReadSnapshotSlot(
    const net::PartitionKey& key, std::uint32_t index) {
  (void)key;
  dp::PipelinePass pass;
  std::vector<std::byte> out;
  net::ByteWriter w(out);
  w.U64(counters_.SnapshotRead(pass, index));
  return out;
}

std::uint64_t AsyncCounterApp::Count(const net::FlowKey& flow) const {
  return counters_.PeekLive(net::HashFlowKey(flow) % counters_.slots());
}

}  // namespace redplane::apps
