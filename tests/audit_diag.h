// On-failure diagnostics for simulation tests: when a test fails, dump
// every registered diagnostic source (the tracer tail of each audited rig,
// each RedPlane switch's live lease table, each auditor's findings) to
// stderr — the flight-recorder readout that turns "EXPECT_EQ(delivered, 2)
// failed" into a debuggable protocol timeline.
//
// Include this header from a test binary and the listener installs itself
// before main() runs; it is inert unless a test fails.
#pragma once

#include <gtest/gtest.h>

#include <iostream>

#include "audit/diag.h"

namespace redplane::testing {

class DiagnosticsOnFailureListener : public ::testing::EmptyTestEventListener {
 public:
  void OnTestPartResult(const ::testing::TestPartResult& result) override {
    if (!result.failed()) return;
    if (dumped_this_test_) return;  // one dump per test is plenty
    dumped_this_test_ = true;
    std::cerr << "[audit_diag] test failure — dumping protocol diagnostics\n";
    audit::DumpDiagnostics(std::cerr);
  }
  void OnTestStart(const ::testing::TestInfo&) override {
    dumped_this_test_ = false;
  }

 private:
  bool dumped_this_test_ = false;
};

namespace internal {
inline const bool g_diag_listener_installed = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(
      new DiagnosticsOnFailureListener());  // gtest owns appended listeners
  return true;
}();
}  // namespace internal

}  // namespace redplane::testing
