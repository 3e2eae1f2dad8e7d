#include "obs/tracer.h"

#include <algorithm>
#include <array>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "common/hash.h"
#include "obs/json.h"

namespace redplane::obs {

bool TraceFilter::Matches(const TraceRecord& r, const Tracer& tracer) const {
  if (flow != 0 && r.flow != flow) return false;
  if (!component.empty() && tracer.ComponentName(r.component) != component) {
    return false;
  }
  return true;
}

Tracer::Tracer(std::size_t capacity) : metrics_("tracer") {
  if (capacity == 0) capacity = 1;
  ring_.resize(capacity);
  components_.emplace_back("?");  // id 0 = unknown
  // Ring-truncation visibility (sampled alongside component metrics so a
  // trace-derived artifact can be cross-checked against eviction pressure).
  metrics_.AddCallbackGauge("evicted_records",
                            [this] { return static_cast<double>(evicted_); });
  metrics_.AddCallbackGauge("orphaned_ends", [this] {
    return static_cast<double>(CountOrphanedEnds());
  });
  metrics_.AddCallbackGauge("live_records",
                            [this] { return static_cast<double>(count_); });
}

std::uint16_t Tracer::Intern(std::string_view name) {
  for (std::size_t i = 0; i < components_.size(); ++i) {
    if (components_[i] == name) return static_cast<std::uint16_t>(i);
  }
  if (components_.size() >= 0xFFFF) return 0;
  components_.emplace_back(name);
  return static_cast<std::uint16_t>(components_.size() - 1);
}

const std::string& Tracer::ComponentName(std::uint16_t id) const {
  static const std::string kUnknown = "?";
  return id < components_.size() ? components_[id] : kUnknown;
}

std::uint64_t Tracer::Subscribe(Subscriber fn) {
  const std::uint64_t id = next_subscriber_++;
  subscribers_.emplace_back(id, std::move(fn));
  UpdateSinks();
  return id;
}

void Tracer::Unsubscribe(std::uint64_t id) {
  std::erase_if(subscribers_, [id](const auto& s) { return s.first == id; });
  UpdateSinks();
}

void Tracer::Emit(std::uint16_t component, Ev ev, std::uint64_t flow,
                  std::uint64_t seq, double arg, std::uint64_t span,
                  std::uint64_t parent_span, std::uint64_t aux,
                  std::uint8_t sinks) {
  const std::uint8_t to = sinks_ & EvSinks(ev) & sinks;
  if (to == 0) return;
  // Every field is stored straight into its destination, so a ring record
  // is written in place with no temporary copied over it.
  const auto fill = [&](TraceRecord& r, std::uint64_t order) {
    r.t = NowOrZero();
    r.order = order;
    r.ev = ev;
    r.component = component;
    r.orphan = false;
    r.flow = flow;
    r.seq = seq;
    r.arg = arg;
    r.span = span;
    r.parent_span = parent_span;
    r.aux = aux;
  };
  if ((to & kRing) == 0) {
    TraceRecord rec;
    fill(rec, 0);
    for (const auto& [id, fn] : subscribers_) fn(rec);
    return;
  }
  TraceRecord* slot;
  if (count_ < ring_.size()) {
    slot = &ring_[(head_ + count_) % ring_.size()];
    ++count_;
  } else {
    slot = &ring_[head_];
    head_ = (head_ + 1) % ring_.size();
    ++evicted_;
  }
  fill(*slot, next_order_++);
  if ((to & kSubscribers) != 0) {
    // Dispatched from a copy: a subscriber may itself emit and wrap the
    // ring over this slot.
    const TraceRecord rec = *slot;
    for (const auto& [id, fn] : subscribers_) fn(rec);
  }
}

std::vector<TraceRecord> Tracer::Records(const TraceFilter& filter) const {
  std::vector<TraceRecord> out;
  out.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i) {
    const TraceRecord& r = At(i);
    if (filter.Matches(r, *this)) out.push_back(r);
  }
  return out;
}

void Tracer::Clear() {
  head_ = 0;
  count_ = 0;
  evicted_ = 0;
  next_order_ = 0;
}

void Tracer::Reset() {
  Clear();
  components_.clear();
  components_.emplace_back("?");
  ++generation_;
}

void WriteChromeTraceRecords(std::ostream& os,
                             std::span<const TraceRecord> records,
                             std::span<const std::string> components) {
  os << "{\"traceEvents\": [";
  bool first = true;
  // Thread-name metadata: one sim "thread" per component.
  for (std::size_t i = 0; i < components.size(); ++i) {
    if (!first) os << ",";
    first = false;
    os << "\n  {\"ph\": \"M\", \"pid\": 1, \"tid\": " << i
       << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
       << JsonEscape(components[i]) << "\"}}";
  }
  char ts_buf[48];
  for (const TraceRecord& r : records) {
    if (!first) os << ",";
    first = false;
    // Chrome trace timestamps are microseconds; keep ns precision.
    std::snprintf(ts_buf, sizeof(ts_buf), "%lld.%03lld",
                  static_cast<long long>(r.t / 1000),
                  static_cast<long long>(r.t % 1000));
    os << "\n  {\"ph\": \"i\", \"s\": \"t\", \"cat\": \"redplane\", \"ts\": "
       << ts_buf << ", \"pid\": 1, \"tid\": " << r.component
       << ", \"name\": \"" << EvName(r.ev) << "\", \"args\": {\"flow\": \""
       << std::hex << r.flow << std::dec << "\", \"seq\": " << r.seq
       << ", \"arg\": " << JsonNumber(r.arg);
    if (r.span != 0) {
      os << ", \"span\": \"" << std::hex << r.span << std::dec << '"';
    }
    if (r.parent_span != 0) {
      os << ", \"parent_span\": \"" << std::hex << r.parent_span << std::dec
         << '"';
    }
    if (r.orphan) os << ", \"orphan\": true";
    os << "}}";
  }
  os << "\n]}\n";
}

void Tracer::WriteChromeTrace(std::ostream& os, const TraceFilter& filter) const {
  // Orphan ends must be computed over the *full* record set (a filter could
  // otherwise hide a begin and fake an orphan), then filtered for export.
  std::vector<TraceRecord> records = Records();
  MarkOrphanedEnds(records);
  std::vector<TraceRecord> selected;
  selected.reserve(records.size());
  for (const TraceRecord& r : records) {
    if (filter.Matches(r, *this)) selected.push_back(r);
  }
  WriteChromeTraceRecords(os, selected, components_);
}

std::string Tracer::ChromeTraceJson(const TraceFilter& filter) const {
  std::ostringstream oss;
  WriteChromeTrace(oss, filter);
  return oss.str();
}

namespace {

struct PhaseDef {
  const char* name;
  Ev begin;
  Ev end;
  bool seq_matched;  // pair on (flow, seq); otherwise on flow alone
  int alt;           // index of a mutually-exclusive phase sharing this
                     // begin event, or -1 (a lease miss ends in either a
                     // grant or a rehome, never both)
};

// Protocol phases reconstructed from begin/end event pairs.  Ordered
// roughly along the packet lifecycle; the breakdown table keeps this order.
constexpr PhaseDef kPhases[] = {
    {"lease_acquire", Ev::kLeaseMiss, Ev::kLeaseGrant, false, 1},
    {"failover_rehome", Ev::kLeaseMiss, Ev::kFailoverRehome, false, 0},
    {"write_replication_rtt", Ev::kReplicationSent, Ev::kAckReleased, true, -1},
    {"switch_to_store", Ev::kReplicationSent, Ev::kStoreRecv, true, -1},
    {"store_queue_wait", Ev::kStoreRecv, Ev::kStoreServiceStart, true, -1},
    {"store_apply", Ev::kStoreServiceStart, Ev::kStoreApplied, true, -1},
    {"store_respond", Ev::kStoreApplied, Ev::kStoreResponded, true, -1},
    {"store_to_switch", Ev::kStoreResponded, Ev::kAckReleased, true, -1},
    {"buffered_read_rtt", Ev::kBufferedRead, Ev::kAckReleased, true, -1},
    {"retx_delay", Ev::kReplicationSent, Ev::kRetransmit, true, -1},
};

constexpr std::size_t kNumPhases = sizeof(kPhases) / sizeof(kPhases[0]);

/// The phases each event kind begins or ends, in kPhases order, so a record
/// visits only the phases it can affect.
struct KindPhases {
  std::array<std::uint8_t, kNumPhases> phase{};
  std::size_t n = 0;
};

const std::array<KindPhases, kNumEvents>& PhasesByKind() {
  static const auto table = [] {
    std::array<KindPhases, kNumEvents> out{};
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      for (const Ev ev : {kPhases[p].begin, kPhases[p].end}) {
        KindPhases& k = out[static_cast<std::size_t>(ev)];
        k.phase[k.n++] = static_cast<std::uint8_t>(p);
      }
    }
    return out;
  }();
  return table;
}

using PairKey = std::pair<std::uint64_t, std::uint64_t>;  // (flow, seq)

struct PairKeyHash {
  std::size_t operator()(const PairKey& k) const {
    return static_cast<std::size_t>(HashCombine(k.first, k.second));
  }
};

/// One phase's pairing state for a key: the key's begin has been seen, and
/// `open` says whether it still waits for its end (from `t`).
struct BeginState {
  SimTime t = 0;
  bool open = false;
};

/// Replays begin/end pairing over `n` records, `rec(i)` being the i-th in
/// ascending emission order.  For every completed pair, calls
/// `on_pair(phase, t_begin, t_end)`.  For every end-kind record whose begin
/// key was *never seen* in the set (evicted or never recorded — as opposed
/// to consumed by an earlier end, which chain fan-out does legitimately),
/// calls `on_orphan(i)`.  Pairing order is fixed by the records alone, so
/// hashing the per-phase state leaves the results deterministic.
template <typename RecFn, typename PairFn, typename OrphanFn>
void ReplayPhases(std::size_t n, RecFn&& rec, PairFn&& on_pair,
                  OrphanFn&& on_orphan) {
  std::array<std::unordered_map<PairKey, BeginState, PairKeyHash>, kNumPhases>
      state;
  const auto& by_kind = PhasesByKind();
  for (std::size_t i = 0; i < n; ++i) {
    const TraceRecord& r = rec(i);
    const KindPhases& kind = by_kind[static_cast<std::size_t>(r.ev)];
    bool is_end = false;
    bool matched = false;
    bool begin_seen = false;
    for (std::size_t k = 0; k < kind.n; ++k) {
      const std::size_t p = kind.phase[k];
      const PhaseDef& def = kPhases[p];
      const PairKey key(r.flow, def.seq_matched ? r.seq : 0);
      if (r.ev == def.begin) {
        // Keep the earliest unmatched begin for this key.
        auto [it, added] = state[p].try_emplace(key, BeginState{r.t, true});
        if (!added && !it->second.open) it->second = BeginState{r.t, true};
        continue;
      }
      // A seq-0 record of an end-event kind is a control message (lease
      // acquire / renew) — those have no begin partner by design and are
      // never orphans.
      if (!def.seq_matched || r.seq != 0) is_end = true;
      const auto it = state[p].find(key);
      if (it == state[p].end()) continue;
      begin_seen = true;
      if (!it->second.open) continue;
      matched = true;
      on_pair(p, it->second.t, r.t);
      it->second.open = false;
      // A mutually-exclusive alternative phase consumed the same begin:
      // close it too so a later begin can't pair against a stale one.
      if (def.alt >= 0) {
        const auto alt = state[static_cast<std::size_t>(def.alt)].find(key);
        if (alt != state[static_cast<std::size_t>(def.alt)].end()) {
          alt->second.open = false;
        }
      }
    }
    if (is_end && !matched && !begin_seen) on_orphan(i);
  }
}

}  // namespace

std::span<const ProtocolPair> ProtocolPairs() {
  static const auto pairs = [] {
    std::array<ProtocolPair, kNumPhases> out{};
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      out[p] = ProtocolPair{kPhases[p].begin, kPhases[p].end,
                            kPhases[p].seq_matched};
    }
    return out;
  }();
  return pairs;
}

std::size_t MarkOrphanedEnds(std::vector<TraceRecord>& records) {
  std::size_t marked = 0;
  ReplayPhases(
      records.size(),
      [&records](std::size_t i) -> const TraceRecord& { return records[i]; },
      [](std::size_t, SimTime, SimTime) {},
      [&](std::size_t i) {
        records[i].orphan = true;
        ++marked;
      });
  return marked;
}

std::size_t Tracer::CountOrphanedEnds() const {
  std::size_t orphans = 0;
  ReplayPhases(
      count_, [this](std::size_t i) -> const TraceRecord& { return At(i); },
      [](std::size_t, SimTime, SimTime) {}, [&](std::size_t) { ++orphans; });
  return orphans;
}

std::vector<PhaseStats> Tracer::LatencyBreakdown() const {
  std::vector<PhaseStats> stats(kNumPhases);
  for (std::size_t p = 0; p < kNumPhases; ++p) stats[p].name = kPhases[p].name;
  ReplayPhases(
      count_, [this](std::size_t i) -> const TraceRecord& { return At(i); },
      [&](std::size_t p, SimTime begin_t, SimTime end_t) {
        stats[p].samples_us.Add(static_cast<double>(end_t - begin_t) / 1e3);
      },
      [](std::size_t) {});
  std::vector<PhaseStats> out;
  for (auto& s : stats) {
    if (!s.samples_us.Empty()) out.push_back(std::move(s));
  }
  return out;
}

void Tracer::PrintBreakdown(std::ostream& os) const {
  auto phases = LatencyBreakdown();
  os << "Per-phase latency breakdown (us):\n";
  os << "  " << std::left << std::setw(24) << "phase" << std::right
     << std::setw(10) << "count" << std::setw(12) << "p50" << std::setw(12)
     << "p99" << std::setw(12) << "max" << "\n";
  if (phases.empty()) {
    os << "  (no completed phase pairs recorded)\n";
    return;
  }
  for (const auto& ph : phases) {
    os << "  " << std::left << std::setw(24) << ph.name << std::right
       << std::setw(10) << ph.samples_us.Count() << std::setw(12)
       << FormatDouble(ph.samples_us.Percentile(50.0), 3) << std::setw(12)
       << FormatDouble(ph.samples_us.Percentile(99.0), 3) << std::setw(12)
       << FormatDouble(ph.samples_us.Max(), 3) << "\n";
  }
}

}  // namespace redplane::obs
