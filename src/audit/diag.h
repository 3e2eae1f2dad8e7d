// Failure diagnostics: one call dumps everything needed to debug a red CI
// run without a rerun.
//
// Components register a dump callback (their lease table, flow records,
// ...) through a RAII DiagToken; DumpDiagnostics() renders every registered
// dump (each auditor registers its violations; an audited test rig
// registers its tracer's tail through DumpTracerTail).
// The gtest listener in tests/audit_diag.h calls it on test failure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/tracer.h"

namespace redplane::audit {

/// Registry of diagnostic dump callbacks, one per thread (DESIGN.md §8).
class DiagRegistry {
 public:
  static DiagRegistry& Instance();

  /// Registers `fn` under `title`; returns an id for Unregister.
  std::uint64_t Register(std::string title,
                         std::function<void(std::ostream&)> fn);
  void Unregister(std::uint64_t id);

  /// Renders every registered dump, in registration order.
  void DumpAll(std::ostream& os) const;
  std::size_t Size() const;

 private:
  DiagRegistry() = default;
  struct Entry {
    std::uint64_t id;
    std::string title;
    std::function<void(std::ostream&)> fn;
  };
  std::uint64_t next_id_ = 1;
  std::vector<Entry> entries_;
};

/// Move-only RAII registration handle.  Destroying (or moving-from) the
/// token unregisters the callback, so components can register dumps bound
/// to `this` safely.
class DiagToken {
 public:
  DiagToken() = default;
  DiagToken(std::string title, std::function<void(std::ostream&)> fn)
      : id_(DiagRegistry::Instance().Register(std::move(title), std::move(fn))) {}
  ~DiagToken() { release(); }

  DiagToken(const DiagToken&) = delete;
  DiagToken& operator=(const DiagToken&) = delete;
  DiagToken(DiagToken&& other) noexcept : id_(other.id_) { other.id_ = 0; }
  DiagToken& operator=(DiagToken&& other) noexcept {
    if (this != &other) {
      release();
      id_ = other.id_;
      other.id_ = 0;
    }
    return *this;
  }

 private:
  void release() {
    if (id_ != 0) DiagRegistry::Instance().Unregister(id_);
    id_ = 0;
  }
  std::uint64_t id_ = 0;
};

/// Renders the last `last_n` ring records of `tracer`: the body of a
/// "tracer tail" dump a tracer's owner registers.
void DumpTracerTail(std::ostream& os, const obs::Tracer& tracer,
                    std::size_t last_n);

/// Dumps every DiagRegistry dump (tracer tails, lease tables, flow records,
/// auditor violations) to `os`.
void DumpDiagnostics(std::ostream& os);

}  // namespace redplane::audit
