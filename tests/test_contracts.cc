#include "common/contracts.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/online_optimizer.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "graph/graph_view.h"
#include "graph/validate.h"
#include "serve/validate.h"
#include "telemetry/metrics.h"

namespace kgov {
namespace {

using contracts::CheckMode;
using contracts::ScopedCheckMode;
using graph::EdgeId;
using graph::GraphView;
using graph::NodeId;
using graph::ValidateCsr;

// ---------------------------------------------------------------------
// KGOV_ASSERT / KGOV_CHECK_OK failure behavior.

TEST(ContractsDeathTest, AssertAbortsWithExpressionText) {
  EXPECT_DEATH({ KGOV_ASSERT(1 + 1 == 3) << "context"; },
               "Contract violated: 1 \\+ 1 == 3");
}

TEST(ContractsDeathTest, CheckOkAbortsWithStatusText) {
  EXPECT_DEATH(KGOV_CHECK_OK(Status::Internal("broken invariant")),
               "broken invariant");
}

TEST(ContractsTest, PassingAssertHasNoSideEffects) {
  contracts::ResetViolationCount();
  KGOV_ASSERT(2 + 2 == 4) << "never evaluated";
  KGOV_CHECK_OK(Status::OK());
  EXPECT_EQ(contracts::ViolationCount(), 0u);
}

TEST(ContractsTest, SoftModeCountsAndContinues) {
  ScopedCheckMode soft(CheckMode::kSoftCount);
  contracts::ResetViolationCount();
  KGOV_ASSERT(false) << "soft violation 1";
  KGOV_ASSERT(false) << "soft violation 2";
  KGOV_CHECK_OK(Status::Internal("soft violation 3"));
  // Reaching this line is the point: soft mode never aborts.
  EXPECT_EQ(contracts::ViolationCount(), 3u);
}

TEST(ContractsTest, ScopedCheckModeRestoresPreviousMode) {
  ASSERT_EQ(contracts::GetCheckMode(), CheckMode::kAbort);
  {
    ScopedCheckMode soft(CheckMode::kSoftCount);
    EXPECT_EQ(contracts::GetCheckMode(), CheckMode::kSoftCount);
  }
  EXPECT_EQ(contracts::GetCheckMode(), CheckMode::kAbort);
}

TEST(ContractsTest, SoftViolationsMirrorIntoTelemetry) {
  // Touching the registry installs the violation handler.
  auto& registry = telemetry::MetricRegistry::Global();
  telemetry::Counter* counter =
      registry.GetCounter("contracts.soft_violations");
  const uint64_t before = counter->Value();

  ScopedCheckMode soft(CheckMode::kSoftCount);
  KGOV_ASSERT(false) << "mirrored into telemetry";
  EXPECT_EQ(counter->Value(), before + 1);
}

TEST(ContractsTest, ViolationHandlerReceivesSite) {
  static const char* seen_expression = nullptr;
  contracts::SetViolationHandler(
      [](const char* /*file*/, int /*line*/, const char* expression,
         contracts::ViolationKind /*kind*/) { seen_expression = expression; });
  ScopedCheckMode soft(CheckMode::kSoftCount);
  KGOV_ASSERT(1 > 2);
  // Restore the telemetry mirror for the rest of the process.
  contracts::SetViolationHandler(nullptr);
  ASSERT_NE(seen_expression, nullptr);
  EXPECT_STREQ(seen_expression, "1 > 2");
  telemetry::MetricRegistry::Global();  // reinstalls via Global()'s init
}

TEST(ContractsTest, DcheckMatchesBuildMode) {
  ScopedCheckMode soft(CheckMode::kSoftCount);
  contracts::ResetViolationCount();
  KGOV_DCHECK(false);
  KGOV_DCHECK_OK(Status::Internal("debug-only"));
#ifdef NDEBUG
  // Compiled out: the expressions must not even be evaluated.
  EXPECT_EQ(contracts::ViolationCount(), 0u);
#else
  EXPECT_EQ(contracts::ViolationCount(), 2u);
#endif
}

TEST(ContractsTest, DcheckDoesNotEvaluateUnderNdebug) {
#ifdef NDEBUG
  int evaluations = 0;
  KGOV_DCHECK([&] {
    ++evaluations;
    return true;
  }());
  EXPECT_EQ(evaluations, 0);
#else
  GTEST_SKIP() << "debug build evaluates KGOV_DCHECK by design";
#endif
}

TEST(ContractsTest, StatusIgnoreErrorIsTheExplicitDropSpelling) {
  // [[nodiscard]] makes a silent drop a compile error; this is the
  // sanctioned loud one.
  Status::Internal("intentionally dropped").IgnoreError();
}

// ---------------------------------------------------------------------
// graph::ValidateCsr structural checks.

struct RawCsr {
  std::vector<size_t> offsets;
  std::vector<GraphView::Neighbor> neighbors;
  std::vector<EdgeId> edge_ids;

  GraphView View(bool with_edge_ids = true) const {
    // Deliberately-corrupt fixtures would abort inside the debug-build
    // constructor hook; soft mode turns that into a counted violation.
    ScopedCheckMode soft(CheckMode::kSoftCount);
    return GraphView(offsets.size() - 1, offsets.data(), neighbors.data(),
                     with_edge_ids ? edge_ids.data() : nullptr);
  }
};

RawCsr ValidFixture() {
  return RawCsr{{0, 2, 3, 3},
                {{1, 0.5}, {2, 0.5}, {0, 1.0}},
                {0, 1, 2}};
}

TEST(ValidateCsrTest, AcceptsEmptyView) {
  EXPECT_TRUE(ValidateCsr(GraphView{}).ok());
}

TEST(ValidateCsrTest, AcceptsValidFixture) {
  RawCsr csr = ValidFixture();
  EXPECT_TRUE(ValidateCsr(csr.View()).ok());
  EXPECT_TRUE(ValidateCsr(csr.View(/*with_edge_ids=*/false)).ok());
}

TEST(ValidateCsrTest, AcceptsRealSnapshot) {
  graph::WeightedDigraph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.4).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, 0.6).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, 1.0).ok());
  graph::CsrSnapshot snap(g);
  EXPECT_TRUE(ValidateCsr(snap.View()).ok());
}

TEST(ValidateCsrTest, RejectsNonMonotoneOffsets) {
  RawCsr csr = ValidFixture();
  csr.offsets = {0, 2, 1, 3};  // row 1 ends before it begins
  Status status = ValidateCsr(csr.View());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("not monotone"), std::string::npos);
}

TEST(ValidateCsrTest, RejectsOffsetsNotStartingAtZero) {
  RawCsr csr = ValidFixture();
  csr.offsets = {1, 2, 3, 3};  // rows cover 2 slots, NumEdges() says 3
  Status status = ValidateCsr(csr.View());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("NumEdges"), std::string::npos);
}

TEST(ValidateCsrTest, RejectsOutOfRangeTarget) {
  RawCsr csr = ValidFixture();
  csr.neighbors[1].to = 7;  // only 3 nodes
  Status status = ValidateCsr(csr.View());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("out of range"), std::string::npos);
}

TEST(ValidateCsrTest, RejectsNonFiniteWeight) {
  RawCsr csr = ValidFixture();
  csr.neighbors[2].weight = std::numeric_limits<double>::quiet_NaN();
  Status status = ValidateCsr(csr.View());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("weight invalid"), std::string::npos);
}

TEST(ValidateCsrTest, RejectsNegativeWeight) {
  RawCsr csr = ValidFixture();
  csr.neighbors[0].weight = -0.25;
  EXPECT_FALSE(ValidateCsr(csr.View()).ok());
}

TEST(ValidateCsrTest, RejectsDuplicateEdgeIds) {
  RawCsr csr = ValidFixture();
  csr.edge_ids = {0, 0, 2};  // id 0 aliases two CSR slots
  Status status = ValidateCsr(csr.View());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("not injective"), std::string::npos);
  // Without the edge-id table the same arrays are fine.
  EXPECT_TRUE(ValidateCsr(csr.View(/*with_edge_ids=*/false)).ok());
}

#ifndef NDEBUG
TEST(ValidateCsrTest, DebugConstructorHookCatchesCorruptView) {
  // The GraphView constructor validates in debug builds; a corrupt view
  // surfaces as a (soft-mode) contract violation at construction time.
  ScopedCheckMode soft(CheckMode::kSoftCount);
  contracts::ResetViolationCount();
  RawCsr csr = ValidFixture();
  csr.edge_ids = {1, 1, 2};
  GraphView view(csr.offsets.size() - 1, csr.offsets.data(),
                 csr.neighbors.data(), csr.edge_ids.data());
  (void)view;
  EXPECT_GE(contracts::ViolationCount(), 1u);
}
#endif

// ---------------------------------------------------------------------
// serve::ValidateEpochPin.

core::ServingEpoch MakeEpoch(uint64_t number) {
  graph::WeightedDigraph g(3);
  EXPECT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  EXPECT_TRUE(g.AddEdge(1, 2, 0.5).ok());
  return core::ServingEpoch{std::make_shared<graph::CsrSnapshot>(g), number};
}

TEST(ValidateEpochPinTest, AcceptsHealthyEpoch) {
  core::ServingEpoch epoch = MakeEpoch(7);
  EXPECT_TRUE(serve::ValidateEpochPin(epoch).ok());
  EXPECT_TRUE(serve::ValidateEpochPin(epoch, 7).ok());
}

TEST(ValidateEpochPinTest, RejectsNullSnapshot) {
  core::ServingEpoch epoch;
  epoch.epoch = 3;
  Status status = serve::ValidateEpochPin(epoch);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("no snapshot"), std::string::npos);
}

TEST(ValidateEpochPinTest, RejectsEpochMovingBackwards) {
  core::ServingEpoch epoch = MakeEpoch(4);
  Status status = serve::ValidateEpochPin(epoch, /*min_expected_epoch=*/5);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(ValidateEpochPinTest, AcceptsLiveOptimizerEpoch) {
  graph::WeightedDigraph g(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  core::OnlineKgOptimizer optimizer(g, core::OnlineOptimizerOptions{});
  EXPECT_TRUE(serve::ValidateEpochPin(optimizer.CurrentEpoch()).ok());
}

}  // namespace
}  // namespace kgov
