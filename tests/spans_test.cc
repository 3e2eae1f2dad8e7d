// Cross-layer request spans: a traced write's lifecycle reconstructs as a
// span tree whose segments tile the span — switch→store network, per-shard
// queue wait, service, chain hops, and the ack return sum *exactly* to the
// measured end-to-end write latency (the PR's acceptance pin).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "net/codec.h"
#include "obs/json.h"
#include "obs/spans.h"
#include "obs/tracer.h"
#include "tests/rig.h"

namespace redplane {
namespace {

using obs::Ev;
using obs::SpanTree;

using testing::Rig;

/// One RedPlane switch (seed 11) in front of a 3-replica store chain,
/// traced: every data packet is a write, so each one produces a replication
/// request that traverses head → mid → tail and acks back to the switch.
testing::RigOptions TracedChain(SimDuration coalesce_delay = 0) {
  return {.seed = 11,
          .switches = 1,
          .stores = 3,
          .chain = true,
          .rp = {.lease_period = Milliseconds(10),
                 .coalesce_delay = coalesce_delay},
          .audit = true};
}

/// Sends `packets` paced packets per flow and runs to quiescence.
void RunWrites(Rig& h, int flows, int packets) {
  for (int p = 0; p < packets; ++p) {
    for (int i = 0; i < flows; ++i) {
      const net::FlowKey flow{testing::kSrcIp, testing::kDstIp,
                              static_cast<std::uint16_t>(2000 + i), 80,
                              net::IpProto::kUdp};
      h.src->SendTo(0, net::MakeUdpPacket(flow, 64));
      h.Run(Microseconds(150));
    }
  }
  h.sim.Run();
}

/// Write spans: those that begin at the switch's replication send and close
/// with the ack returning (complete request lifecycles).
bool IsCompleteWriteSpan(const SpanTree& span) {
  return !span.segments.empty() &&
         span.segments.front().ev_begin == Ev::kReplicationSent &&
         span.segments.back().ev_end == Ev::kAckReleased;
}

TEST(SpansTest, SegmentsTileEachSpanExactly) {
  Rig h(TracedChain());
  RunWrites(h, /*flows=*/4, /*packets=*/3);
  ASSERT_GT(h.delivered, 0);
  const auto spans = obs::BuildSpanTrees(h.tracer);
  ASSERT_FALSE(spans.empty());
  for (const SpanTree& span : spans) {
    ASSERT_FALSE(span.segments.empty()) << "span " << span.span;
    EXPECT_EQ(span.segments.front().begin, span.begin);
    EXPECT_EQ(span.segments.back().end, span.end);
    SimTime sum = 0;
    for (std::size_t i = 0; i < span.segments.size(); ++i) {
      if (i > 0) {
        // Consecutive segments share a boundary: no gaps, no overlap.
        EXPECT_EQ(span.segments[i].begin, span.segments[i - 1].end)
            << "span " << span.span << " segment " << i;
      }
      sum += span.segments[i].DurationNs();
    }
    // Telescoping: the segment durations sum exactly to end-to-end latency.
    EXPECT_EQ(sum, span.TotalNs()) << "span " << span.span;
  }
}

TEST(SpansTest, WriteSpanDecomposesIntoProtocolSegments) {
  Rig h(TracedChain());
  RunWrites(h, /*flows=*/4, /*packets=*/3);
  const auto spans = obs::BuildSpanTrees(h.tracer);
  int write_spans = 0;
  for (const SpanTree& span : spans) {
    if (!IsCompleteWriteSpan(span)) continue;
    ++write_spans;
    std::set<std::string> kinds;
    int chain_hops = 0;
    for (const auto& seg : span.segments) {
      kinds.insert(seg.kind);
      chain_hops += seg.kind == "chain_hop" ? 1 : 0;
    }
    // The full lifecycle: switch→store network, per-shard queue wait and
    // service, the two replica hops of a 3-chain, the tail's respond, and
    // the ack's way back.
    for (const char* kind : {"switch_to_store", "queue_wait", "service",
                             "chain_hop", "respond", "ack_return"}) {
      EXPECT_TRUE(kinds.count(kind)) << "span " << span.span << " lacks "
                                     << kind;
    }
    EXPECT_EQ(chain_hops, 2) << "span " << span.span;
  }
  EXPECT_GT(write_spans, 0);
}

TEST(SpansTest, WriteSpanTotalsMatchMeasuredWriteRtt) {
  Rig h(TracedChain());
  RunWrites(h, /*flows=*/4, /*packets=*/3);
  // The tracer's own breakdown measures write RTT from the same records
  // (kReplicationSent → kAckReleased pairs); the span totals must reproduce
  // that sample set exactly — same count, same extremes.
  SampleSet span_totals_us;
  for (const SpanTree& span : obs::BuildSpanTrees(h.tracer)) {
    if (IsCompleteWriteSpan(span)) {
      span_totals_us.Add(static_cast<double>(span.TotalNs()) / 1e3);
    }
  }
  ASSERT_FALSE(span_totals_us.Empty());
  for (const auto& phase : h.tracer.LatencyBreakdown()) {
    if (phase.name != "write_replication_rtt") continue;
    EXPECT_EQ(span_totals_us.Count(), phase.samples_us.Count());
    EXPECT_DOUBLE_EQ(span_totals_us.Percentile(0),
                     phase.samples_us.Percentile(0));
    EXPECT_DOUBLE_EQ(span_totals_us.Percentile(50),
                     phase.samples_us.Percentile(50));
    EXPECT_DOUBLE_EQ(span_totals_us.Percentile(100),
                     phase.samples_us.Percentile(100));
    return;
  }
  FAIL() << "write_replication_rtt phase missing from LatencyBreakdown";
}

TEST(SpansTest, SpanIdsSurviveBatchEnvelopes) {
  // With write coalescing on, replication requests travel inside batch
  // envelopes (PR 4); each sub-message's span id must survive the envelope
  // and echo back on the (piggybacked) acks so the span trees reconstruct
  // exactly as in the unbatched case.
  Rig h(TracedChain(/*coalesce_delay=*/Microseconds(500)));
  RunWrites(h, /*flows=*/4, /*packets=*/3);
  ASSERT_GT(h.delivered, 0);
  // Batching actually engaged.
  EXPECT_GT(h.rp[0]->stats().Get("batch_envelopes"), 0);

  const auto spans = obs::BuildSpanTrees(h.tracer);
  int write_spans = 0;
  for (const SpanTree& span : spans) {
    if (!IsCompleteWriteSpan(span)) continue;
    ++write_spans;
    SimTime sum = 0;
    for (std::size_t i = 0; i < span.segments.size(); ++i) {
      if (i > 0) {
        EXPECT_EQ(span.segments[i].begin, span.segments[i - 1].end)
            << "span " << span.span << " segment " << i;
      }
      sum += span.segments[i].DurationNs();
    }
    EXPECT_EQ(sum, span.TotalNs()) << "span " << span.span;
  }
  // Every write's lifecycle still reconstructs end to end.
  EXPECT_GT(write_spans, 0);
  for (const auto& phase : h.tracer.LatencyBreakdown()) {
    if (phase.name == "write_replication_rtt") {
      EXPECT_EQ(static_cast<std::size_t>(write_spans),
                phase.samples_us.Count());
    }
  }
}

TEST(SpansTest, SummaryGroupsStoreSegmentsByShardAndExportsValidJson) {
  Rig h(TracedChain());
  RunWrites(h, /*flows=*/2, /*packets=*/2);
  const auto spans = obs::BuildSpanTrees(h.tracer);
  ASSERT_FALSE(spans.empty());

  std::set<std::string> names;
  for (const auto& stat : obs::SummarizeSegments(spans)) {
    names.insert(stat.name);
  }
  // Store-side segments split per closing shard on top of the aggregate.
  EXPECT_TRUE(names.count("queue_wait"));
  EXPECT_TRUE(names.count("queue_wait@store0"));
  EXPECT_TRUE(names.count("service@store0"));
  EXPECT_TRUE(names.count("chain_hop"));

  const std::string json = obs::SpansJson(spans);
  EXPECT_TRUE(obs::ValidateJson(json));
  auto doc = obs::ParseJson(json);
  ASSERT_TRUE(doc.has_value());
  const auto* parsed = doc->Find("spans");
  ASSERT_NE(parsed, nullptr);
  EXPECT_EQ(parsed->array.size(), spans.size());

  std::ostringstream chrome;
  obs::WriteChromeSpans(chrome, spans);
  EXPECT_TRUE(obs::ValidateJson(chrome.str()));
}

}  // namespace
}  // namespace redplane
