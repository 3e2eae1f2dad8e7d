// Stateful register arrays, the data-plane memory primitive.
//
// Tofino-class pipelines allow each packet to access each register array at
// most once, at a single index, through a stateful ALU.  The protocol and the
// lazy snapshotting algorithm (paper Algorithm 1) are shaped by exactly this
// constraint, so the model enforces it: each packet traversal carries a
// PipelinePass token and a second access to the same array within one pass
// aborts the simulation.  Registers are volatile — Reset() models the state
// loss on switch failure.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace redplane::dp {

/// Identifies one packet's traversal of a pipeline.  A fresh pass is minted
/// per packet by the switch pipeline; register arrays use it to enforce the
/// one-access-per-array rule.  Ids are unique per thread (DESIGN.md §8).
class PipelinePass {
 public:
  PipelinePass() : id_(++counter_) {}
  std::uint64_t id() const { return id_; }

 private:
  static inline thread_local std::uint64_t counter_ = 0;
  std::uint64_t id_;
};

template <typename T>
class RegisterArray {
 public:
  RegisterArray(std::string name, std::size_t size, T initial = T{})
      : name_(std::move(name)), initial_(initial), slots_(size, initial) {}

  std::size_t size() const { return slots_.size(); }
  const std::string& name() const { return name_; }

  /// Reads slot `index`; counts as this pass's single access to the array.
  T Read(const PipelinePass& pass, std::size_t index) {
    CheckAccess(pass, index);
    return slots_[index];
  }

  /// Read-modify-write of slot `index` via `fn(T&) -> R`; one ALU operation.
  /// Returns fn's result (what the stateful ALU forwards to the packet).
  template <typename Fn>
  auto ReadModifyWrite(const PipelinePass& pass, std::size_t index, Fn&& fn) {
    CheckAccess(pass, index);
    return fn(slots_[index]);
  }

  /// Writes slot `index`; counts as this pass's single access.
  void Write(const PipelinePass& pass, std::size_t index, const T& value) {
    CheckAccess(pass, index);
    slots_[index] = value;
  }

  /// Control-plane read: unconstrained, used for reporting/tests only.
  const T& Peek(std::size_t index) const {
    assert(index < slots_.size());
    return slots_[index];
  }

  /// Control-plane write (e.g. configuration); unconstrained.
  void Poke(std::size_t index, const T& value) {
    assert(index < slots_.size());
    slots_[index] = value;
  }

  /// Clears all slots to the initial value (switch failure / reboot).
  void Reset() {
    for (auto& s : slots_) s = initial_;
    last_pass_ = 0;
  }

  /// Bytes of SRAM this array occupies (for the resource model).
  std::size_t SramBytes() const { return slots_.size() * sizeof(T); }

 private:
  void CheckAccess(const PipelinePass& pass, std::size_t index) {
    if (index >= slots_.size()) {
      std::fprintf(stderr, "register array '%s': index %zu out of range %zu\n",
                   name_.c_str(), index, slots_.size());
      std::abort();
    }
    if (last_pass_ == pass.id()) {
      std::fprintf(stderr,
                   "register array '%s': second access in one pipeline pass "
                   "(hardware allows one stateful ALU op per array per "
                   "packet)\n",
                   name_.c_str());
      std::abort();
    }
    last_pass_ = pass.id();
  }

  std::string name_;
  T initial_;
  std::vector<T> slots_;
  std::uint64_t last_pass_ = 0;
};

}  // namespace redplane::dp
