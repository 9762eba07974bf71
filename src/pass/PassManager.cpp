//===- pass/PassManager.cpp - Pipeline execution -------------------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pass/PassManager.h"

#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "support/Hashing.h"
#include "support/TaskPool.h"
#include "support/Trace.h"

#include <cstdio>
#include <cstdlib>

using namespace sc;

FunctionPass::~FunctionPass() = default;
ModulePass::~ModulePass() = default;
PassInstrumentation::~PassInstrumentation() = default;

const char *sc::passDecisionName(PassDecision D) {
  switch (D) {
  case PassDecision::RanAlways:
    return "ran:always";
  case PassDecision::RanColdState:
    return "ran:cold-state";
  case PassDecision::RanSignatureChange:
    return "ran:signature-change";
  case PassDecision::RanNewFunction:
    return "ran:new-function";
  case PassDecision::RanStaleRecord:
    return "ran:stale-record";
  case PassDecision::RanFingerprint:
    return "ran:fingerprint-change";
  case PassDecision::RanRefresh:
    return "ran:dormancy-refresh";
  case PassDecision::RanActive:
    return "ran:active";
  case PassDecision::SkippedDormant:
    return "skipped:dormant";
  case PassDecision::SkippedReused:
    return "skipped:function-reused";
  }
  return "unknown";
}

bool PassInstrumentation::shouldRunPass(const std::string &, size_t,
                                        const Function &, PassDecision *Reason) {
  if (Reason)
    *Reason = PassDecision::RanAlways;
  return true;
}

void PassInstrumentation::afterPass(const std::string &, size_t,
                                    const Function &, bool, double) {}

void PassInstrumentation::onSkippedPass(const std::string &, size_t,
                                        const Function &) {}

bool PassInstrumentation::shouldRunModulePass(const std::string &, size_t,
                                              const Module &,
                                              PassDecision *Reason) {
  if (Reason)
    *Reason = PassDecision::RanAlways;
  return true;
}

void PassInstrumentation::afterModulePass(const std::string &, size_t,
                                          const Module &, bool, double) {}

void PassPipeline::addFunctionPass(std::unique_ptr<FunctionPass> P) {
  Entry E;
  E.FP = std::move(P);
  Entries.push_back(std::move(E));
}

void PassPipeline::addModulePass(std::unique_ptr<ModulePass> P) {
  Entry E;
  E.MP = std::move(P);
  Entries.push_back(std::move(E));
}

std::string PassPipeline::passName(size_t I) const {
  return Entries[I].FP ? Entries[I].FP->name() : Entries[I].MP->name();
}

uint64_t PassPipeline::signature() const {
  HashBuilder H;
  H.addU64(Entries.size());
  for (size_t I = 0; I != Entries.size(); ++I) {
    H.addString(passName(I));
    H.addBool(isFunctionPass(I));
  }
  return H.digest();
}

namespace {

/// Aborts with diagnostics when a pass breaks the IR (VerifyEach mode).
void verifyOrDie(const Function &F, const std::string &PassName) {
  std::vector<std::string> Errors;
  if (verifyFunction(F, Errors))
    return;
  std::fprintf(stderr, "IR verification failed after pass '%s':\n",
               PassName.c_str());
  for (const std::string &E : Errors)
    std::fprintf(stderr, "  %s\n", E.c_str());
  std::fprintf(stderr, "%s", printFunction(F).c_str());
  std::abort();
}

} // namespace

PipelineStats PassPipeline::run(Module &M, AnalysisManager &AM,
                                PassInstrumentation *PI, bool VerifyEach,
                                TaskPool *Pool, TraceRecorder *Trace) const {
  PipelineStats Stats;

  // Sampled once: tracing toggles between builds, not mid-pipeline.
  const bool Tracing = Trace && Trace->enabled();

  // Partition the pipeline into segments: one segment per module pass,
  // and maximal runs of function passes in which only the FIRST pass
  // may require module analyses (purity). A purity-requiring pass
  // starts a new segment so its snapshot is taken at exactly the point
  // the position-barriered engine took it — that is what keeps chained
  // execution byte-identical to the historical engine.
  struct Segment {
    size_t Begin = 0;
    size_t End = 0; // exclusive
    bool IsModule = false;
  };
  std::vector<Segment> Segments;
  for (size_t I = 0; I != Entries.size();) {
    if (Entries[I].MP) {
      Segments.push_back({I, I + 1, true});
      ++I;
      continue;
    }
    size_t B = I++;
    while (I != Entries.size() && Entries[I].FP &&
           !Entries[I].FP->requiresPurity())
      ++I;
    Segments.push_back({B, I, false});
  }

  for (const Segment &Seg : Segments) {
    if (Seg.IsModule) {
      const size_t Index = Seg.Begin;
      const Entry &E = Entries[Index];
      const std::string Name = passName(Index);
      PassDecision Reason = PassDecision::RanAlways;
      if (PI && !PI->shouldRunModulePass(Name, Index, M, &Reason)) {
        ++Stats.ModulePassSkips;
        if (Tracing)
          Trace->instant("pass.skip", Name,
                         std::string("{\"module\":true,\"reason\":\"") +
                             passDecisionName(Reason) + "\"}");
        continue;
      }
      TraceSpan PassSpan(Trace, "pass", Name);
      const bool Changed = E.MP->run(M, AM);
      if (Tracing)
        PassSpan.args(std::string("{\"module\":true,\"changed\":") +
                      (Changed ? "true" : "false") + ",\"reason\":\"" +
                      passDecisionName(Reason) + "\"}");
      const uint64_t Dur = PassSpan.end();
      if (Changed)
        AM.invalidateAll();
      ++Stats.ModulePassRuns;
      Stats.TotalPassMicros += static_cast<double>(Dur) / 1000.0;
      if (PI)
        PI->afterModulePass(Name, Index, M, Changed,
                            static_cast<double>(Dur) / 1000.0);
      if (VerifyEach && Changed)
        for (size_t FI = 0; FI != M.numFunctions(); ++FI)
          verifyOrDie(*M.function(FI), Name);
      continue;
    }

    // Function-pass segment: one task per function runs the whole
    // chain Entries[Begin..End) over that function, in pipeline order.
    // The same chain code runs sequentially when no pool is given, so
    // -j1 and -jN produce the same output bytes and the same dormancy
    // records.
    //
    // Snapshot the module analyses the segment's head depends on, then
    // freeze them for the whole segment: every function sees the purity
    // facts computed from the IR as it stood when the segment started,
    // independent of how sibling chains interleave. (Only a segment
    // head can query purity — any later purity-requiring pass would
    // have started its own segment — so this observes exactly what the
    // position-barriered engine observed.)
    const size_t SegLen = Seg.End - Seg.Begin;
    if (Entries[Seg.Begin].FP->requiresPurity())
      AM.purity();
    AM.freezeModuleAnalyses();

    // Resolve names up front, once per segment rather than per chain.
    std::vector<std::string> Names(SegLen);
    for (size_t P = 0; P != SegLen; ++P)
      Names[P] = passName(Seg.Begin + P);

    // Per-slot, per-position accumulators: each participating thread
    // gets a private counter set, merged after the barrier. Integer
    // sums are commutative, so totals are identical for any
    // item->slot split.
    struct PosStats {
      uint64_t Runs = 0;
      uint64_t Skips = 0;
      uint64_t Changes = 0;
      uint64_t Nanos = 0;
    };
    const unsigned NumSlots = Pool ? Pool->maxSlots() : 1;
    std::vector<std::vector<PosStats>> Slots(
        NumSlots, std::vector<PosStats>(SegLen));

    auto Chain = [&](size_t FI, unsigned Slot) {
      Function &F = *M.function(FI);
      std::vector<PosStats> &SS = Slots[Slot];
      for (size_t P = 0; P != SegLen; ++P) {
        const size_t Index = Seg.Begin + P;
        const Entry &E = Entries[Index];
        const std::string &Name = Names[P];
        PassDecision Reason = PassDecision::RanAlways;
        if (PI && !PI->shouldRunPass(Name, Index, F, &Reason)) {
          ++SS[P].Skips;
          PI->onSkippedPass(Name, Index, F);
          if (Tracing)
            Trace->instant("pass.skip", Name,
                           "{\"fn\":\"" + jsonEscape(F.name()) +
                               "\",\"reason\":\"" + passDecisionName(Reason) +
                               "\"}");
          continue;
        }
        TraceSpan PassSpan(Trace, "pass", Name);
        const bool Changed = E.FP->run(F, AM);
        if (Tracing)
          PassSpan.args("{\"fn\":\"" + jsonEscape(F.name()) +
                        "\",\"changed\":" + (Changed ? "true" : "false") +
                        ",\"reason\":\"" + passDecisionName(Reason) + "\"}");
        const uint64_t Dur = PassSpan.end();
        if (Changed) {
          AM.invalidate(F);
          ++SS[P].Changes;
        }
        SS[P].Nanos += Dur;
        ++SS[P].Runs;
        if (PI)
          PI->afterPass(Name, Index, F, Changed,
                        static_cast<double>(Dur) / 1000.0);
        if (VerifyEach && Changed)
          verifyOrDie(F, Name);
      }
    };

    if (Pool && M.numFunctions() > 1)
      Pool->parallelFor(M.numFunctions(), Chain);
    else
      for (size_t FI = 0; FI != M.numFunctions(); ++FI)
        Chain(FI, 0);

    AM.unfreezeModuleAnalyses();

    for (const std::vector<PosStats> &SS : Slots)
      for (size_t P = 0; P != SegLen; ++P) {
        Stats.FunctionPassRuns += SS[P].Runs;
        Stats.FunctionPassSkips += SS[P].Skips;
        Stats.FunctionPassChanges += SS[P].Changes;
        Stats.TotalPassMicros += static_cast<double>(SS[P].Nanos) / 1000.0;
      }
  }
  return Stats;
}
