//===- tests/pass/PassManagerTest.cpp ---------------------------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestUtils.h"
#include "pass/PassManager.h"
#include "support/Trace.h"
#include "transforms/Passes.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>

using namespace sc;
using namespace sc::test;

namespace {

/// Records the sequence of instrumentation callbacks.
struct RecordingInstrumentation : public PassInstrumentation {
  std::vector<std::string> Events;
  std::set<std::pair<std::string, std::string>> SkipSet; // (pass, func)

  bool shouldRunPass(const std::string &Name, size_t, const Function &F,
                     PassDecision *Reason = nullptr) override {
    if (SkipSet.count({Name, F.name()})) {
      if (Reason)
        *Reason = PassDecision::SkippedDormant;
      return false;
    }
    if (Reason)
      *Reason = PassDecision::RanAlways;
    return true;
  }
  void afterPass(const std::string &Name, size_t, const Function &F,
                 bool Changed, double) override {
    Events.push_back("after:" + Name + ":" + F.name() +
                     (Changed ? ":changed" : ":dormant"));
  }
  void onSkippedPass(const std::string &Name, size_t,
                     const Function &F) override {
    Events.push_back("skip:" + Name + ":" + F.name());
  }
  void afterModulePass(const std::string &Name, size_t, const Module &,
                       bool Changed, double) override {
    Events.push_back("mafter:" + Name +
                     (Changed ? ":changed" : ":dormant"));
  }
};

} // namespace

TEST(PassPipeline, SignatureStableAndOrderSensitive) {
  PassPipeline A;
  A.addFunctionPass(createDCEPass());
  A.addFunctionPass(createCSEPass());

  PassPipeline B;
  B.addFunctionPass(createDCEPass());
  B.addFunctionPass(createCSEPass());

  PassPipeline C;
  C.addFunctionPass(createCSEPass());
  C.addFunctionPass(createDCEPass());

  EXPECT_EQ(A.signature(), B.signature());
  EXPECT_NE(A.signature(), C.signature());
}

TEST(PassPipeline, StandardPipelinesDiffer) {
  EXPECT_NE(buildPipeline(OptLevel::O1).signature(),
            buildPipeline(OptLevel::O2).signature());
  EXPECT_EQ(buildPipeline(OptLevel::O0).size(), 0u);
  EXPECT_GT(buildPipeline(OptLevel::O2).size(),
            buildPipeline(OptLevel::O1).size());
}

TEST(PassPipeline, RunsFunctionPassesPerFunction) {
  auto M = lowerToIR(R"(
    fn a() -> int { return 1 + 2; }
    fn b() -> int { return 3; }
  )");
  PassPipeline P;
  P.addFunctionPass(createConstantFoldPass());
  AnalysisManager AM(*M);
  RecordingInstrumentation RI;
  PipelineStats Stats = P.run(*M, AM, &RI);
  EXPECT_EQ(Stats.FunctionPassRuns, 2u);
  EXPECT_EQ(Stats.FunctionPassSkips, 0u);
  ASSERT_EQ(RI.Events.size(), 2u);
  EXPECT_EQ(RI.Events[0], "after:constfold:a:changed");
  EXPECT_EQ(RI.Events[1], "after:constfold:b:dormant");
}

TEST(PassPipeline, SkippingViaInstrumentation) {
  auto M = lowerToIR(R"(
    fn a() -> int { return 1 + 2; }
    fn b() -> int { return 3 + 4; }
  )");
  PassPipeline P;
  P.addFunctionPass(createConstantFoldPass());
  AnalysisManager AM(*M);
  RecordingInstrumentation RI;
  RI.SkipSet.insert({"constfold", "a"});
  PipelineStats Stats = P.run(*M, AM, &RI);
  EXPECT_EQ(Stats.FunctionPassRuns, 1u);
  EXPECT_EQ(Stats.FunctionPassSkips, 1u);
  ASSERT_EQ(RI.Events.size(), 2u);
  EXPECT_EQ(RI.Events[0], "skip:constfold:a");
  EXPECT_EQ(RI.Events[1], "after:constfold:b:changed");

  // The skipped function kept its foldable expression.
  Function *A = M->getFunction("a");
  EXPECT_GT(A->instructionCount(), 1u);
  EXPECT_EQ(M->getFunction("b")->instructionCount(), 1u);
}

TEST(PassPipeline, ModulePassCallbacks) {
  auto M = lowerToIR(R"(
    global unused = 3;
    fn a() -> int { return 1; }
  )");
  PassPipeline P;
  P.addModulePass(createGlobalOptPass());
  AnalysisManager AM(*M);
  RecordingInstrumentation RI;
  PipelineStats Stats = P.run(*M, AM, &RI);
  EXPECT_EQ(Stats.ModulePassRuns, 1u);
  ASSERT_EQ(RI.Events.size(), 1u);
  EXPECT_EQ(RI.Events[0], "mafter:globalopt:changed");
}

// Pass timing is the trace's: each executed pass is one `pass` span,
// and a skipped one is an instant, never a span.
TEST(PassPipeline, OneSpanPerExecutedPass) {
  auto M = lowerToIR(R"(
    fn a() -> int { return 1 + 2; }
    fn b() -> int { return 3 + 4; }
  )");
  PassPipeline P;
  P.addFunctionPass(createConstantFoldPass());
  P.addFunctionPass(createDCEPass());
  AnalysisManager AM(*M);
  RecordingInstrumentation RI;
  RI.SkipSet.insert({"constfold", "a"});
  TraceRecorder Trace;
  PipelineStats Stats = P.run(*M, AM, &RI, /*VerifyEach=*/false,
                              /*Pool=*/nullptr, &Trace);
  ASSERT_EQ(Stats.FunctionPassRuns, 3u);
  std::multiset<std::string> Spans;
  for (const TraceEvent &E : Trace.snapshot())
    if (std::string_view(E.Category) == "pass" &&
        E.K == TraceEvent::Kind::Span)
      Spans.insert(E.Name);
  EXPECT_EQ(Spans, (std::multiset<std::string>{"constfold", "dce", "dce"}));
}

TEST(PassPipeline, O2PipelineEndToEnd) {
  auto M = lowerToIR(R"(
    fn helper(x: int) -> int { return x * 2; }
    fn main() -> int {
      var s = 0;
      for (var i = 0; i < 4; i = i + 1) { s = s + helper(i); }
      return s;
    }
  )");
  PassPipeline P = buildPipeline(OptLevel::O2);
  AnalysisManager AM(*M);
  PipelineStats Stats = P.run(*M, AM, nullptr, /*VerifyEach=*/true);
  EXPECT_GT(Stats.FunctionPassChanges, 0u);
  ExecResult R = interpretIR({M.get()}, "main", {});
  EXPECT_EQ(R.ReturnValue.value_or(-1), 12);
}

TEST(AnalysisManager, CachesAndInvalidates) {
  auto M = lowerToIR(R"(
    fn a() -> int { var s = 0; while (s < 3) { s = s + 1; } return s; }
  )");
  AnalysisManager AM(*M);
  Function *F = M->getFunction("a");
  AM.domTree(*F);
  AM.domTree(*F);
  EXPECT_EQ(AM.domTreeComputations(), 1u) << "second request hits cache";
  AM.loopInfo(*F);
  EXPECT_EQ(AM.loopInfoComputations(), 1u);

  AM.invalidate(*F);
  AM.domTree(*F);
  EXPECT_EQ(AM.domTreeComputations(), 2u);
}
