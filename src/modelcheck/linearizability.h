// Linearizability checking for packet histories (paper Definitions 2-4).
//
// A history is a time-ordered sequence of input events (packet received at a
// RedPlane switch) and output events (corresponding output emitted).  The
// history is linearizable (Definition 3) if some reordering S of the inputs
// (1) explains every observed output as the result of running the program on
// S in sequence, and (2) respects real time: if output O_x precedes input
// I_y in the history, x precedes y in S.
//
// Two checkers are provided:
//  * CheckCounterLinearizable — exact polynomial-time decision procedure
//    specialized for the per-flow counter program (the v-th processed packet
//    outputs value v), used on large simulated histories.  Counter outputs
//    pin their inputs to fixed positions in S, and every real-time edge
//    O_x < I_y originates at a pinned input, which reduces feasibility to a
//    greedy slot-assignment argument.
//  * BruteForceCheck — factorial-time reference for any deterministic
//    program, used in tests to cross-validate the fast checker.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.h"

namespace redplane::modelcheck {

struct HistoryEvent {
  enum class Kind : std::uint8_t { kInput, kOutput };
  Kind kind = Kind::kInput;
  /// Identifies the packet; an output pairs with the input of the same id.
  std::uint64_t packet_id = 0;
  SimTime time = 0;
  /// Output value (counter reading carried by the output packet).
  std::uint64_t value = 0;
};

/// Records one flow's history during a simulation.
class HistoryRecorder {
 public:
  void Input(std::uint64_t packet_id, SimTime time);
  void Output(std::uint64_t packet_id, SimTime time, std::uint64_t value);

  /// Events sorted by time (inputs before outputs on ties).
  std::vector<HistoryEvent> Sorted() const;

  std::size_t NumInputs() const { return inputs_; }
  std::size_t NumOutputs() const { return outputs_; }

 private:
  std::vector<HistoryEvent> events_;
  std::size_t inputs_ = 0;
  std::size_t outputs_ = 0;
};

/// Exact checker for the per-flow counter program.  Also verifies physical
/// causality (an output of value v requires >= v inputs injected before it).
/// Returns true iff linearizable; `why` (optional) explains a failure.
bool CheckCounterLinearizable(const std::vector<HistoryEvent>& history,
                              std::string* why = nullptr);

/// Reference checker: tries all orderings of inputs (<= 9 inputs).
/// `program` maps the 1-based position of an input in S to the expected
/// output value (for a counter: identity).
bool BruteForceCheck(const std::vector<HistoryEvent>& history,
                     const std::function<std::uint64_t(std::size_t)>& program);

// --- per-mode consistency oracles (DESIGN.md §14) -------------------------
//
// The weaker consistency modes trade linearizability for latency, but each
// still makes a checkable promise.  These oracles are the offline analogue
// of the online bounded_staleness / merge_convergence audit monitors: a
// campaign run collects samples from the tracer's subscriber stream and
// feeds them here, so the same evidence is judged by two independent
// implementations.

/// One locally served read in replicated-read mode: how far the durable
/// store view trailed the local state, against the app's declared bound.
struct StalenessSample {
  std::uint64_t key = 0;
  std::uint64_t staleness_ns = 0;
  /// Declared bound; 0 means no staleness contract (always legal).
  std::uint64_t bound_ns = 0;
};

/// ε-staleness oracle: every locally served read respected its declared
/// bound.  Returns true iff all samples pass; `why` explains the first
/// violation.
bool CheckBoundedStaleness(const std::vector<StalenessSample>& samples,
                           std::string* why = nullptr);

/// One merge application observed at a store replica, in arrival order.
struct MergeSample {
  /// Replica identity (samples from different replicas are independent).
  std::uint64_t component = 0;
  std::uint64_t key = 0;
  /// Monotone measure of the replica's stored state after the merge.
  double measure = 0.0;
};

/// Merge-convergence oracle: per (component, key), the measure of the
/// stored state never decreases across merges — a correct join moves only
/// up the lattice.  A decrease means a delta overwrote instead of merging.
bool CheckMergeConvergence(const std::vector<MergeSample>& samples,
                           std::string* why = nullptr);

}  // namespace redplane::modelcheck
