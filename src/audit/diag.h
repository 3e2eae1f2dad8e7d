// Failure diagnostics: one call dumps everything needed to debug a red CI
// run without a rerun.
//
// Components register a dump callback (their lease table, flow records,
// ...) through a RAII DiagToken; DumpDiagnostics() renders every registered
// dump (each auditor registers its violations) plus the tail of the global
// tracer ring.
// The gtest listener in tests/audit_diag.h calls it on test failure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace redplane::audit {

/// Process-global registry of diagnostic dump callbacks.
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

/// Dumps, to `os`: the last `last_n` events of the global tracer ring (when
/// one is installed) and every DiagRegistry dump (lease tables, flow
/// records, auditor violations).
void DumpDiagnostics(std::ostream& os, std::size_t last_n = 64);

}  // namespace redplane::audit
