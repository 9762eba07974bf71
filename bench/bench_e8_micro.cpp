//===- bench/bench_e8_micro.cpp - E8: per-pass and state micro-costs ------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// E8 measures the micro-costs behind the end-to-end numbers with
/// google-benchmark: individual pass runtimes on a representative
/// module, the cost of fingerprinting, state (de)serialization, and a
/// whole-TU compile at each optimization level.
///
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "driver/IRGen.h"
#include "ir/StructuralHash.h"
#include "lang/Parser.h"
#include "state/BuildStateDB.h"
#include "support/Trace.h"
#include "transforms/Passes.h"
#include "workload/Workload.h"

#include <benchmark/benchmark.h>

using namespace sc;

namespace {

/// A representative module: several functions with loops, arrays,
/// calls, and globals (rendered from the workload generator so the mix
/// matches the E1-E7 projects).
std::string representativeSource() {
  ProjectProfile Profile = profileByName("small_cli");
  ProjectModel Model = ProjectModel::generate(Profile, 7);
  std::string Src;
  // Concatenate a few files' worth of functions, dropping imports so
  // the result is a standalone TU (calls stay module-local because we
  // include every earlier file).
  for (unsigned I = 0; I != 4 && I + 1 < Model.numFiles(); ++I) {
    std::string Text = Model.renderFile(I);
    size_t Pos = 0;
    std::string Filtered;
    while (Pos < Text.size()) {
      size_t End = Text.find('\n', Pos);
      if (End == std::string::npos)
        End = Text.size();
      std::string Line = Text.substr(Pos, End - Pos);
      if (Line.rfind("import ", 0) != 0)
        Filtered += Line + "\n";
      Pos = End + 1;
    }
    Src += Filtered;
  }
  return Src;
}

std::unique_ptr<Module> lowerRepresentative() {
  static const std::string Src = representativeSource();
  DiagnosticEngine Diags;
  Parser P(Src, Diags);
  auto AST = P.parseModule();
  ModuleInterface Iface = analyzeModule(*AST, {}, Diags);
  if (Diags.hasErrors()) {
    std::fprintf(stderr, "%s", Diags.render().c_str());
    std::abort();
  }
  return generateIR(*AST, "bench.mc", Iface);
}

void BM_Frontend(benchmark::State &State) {
  const std::string Src = representativeSource();
  for (auto _ : State) {
    DiagnosticEngine Diags;
    Parser P(Src, Diags);
    auto AST = P.parseModule();
    ModuleInterface Iface = analyzeModule(*AST, {}, Diags);
    auto M = generateIR(*AST, "bench.mc", Iface);
    benchmark::DoNotOptimize(M);
  }
}
BENCHMARK(BM_Frontend);

void BM_SinglePass(benchmark::State &State, const char *PassName) {
  for (auto _ : State) {
    State.PauseTiming();
    auto M = lowerRepresentative();
    AnalysisManager AM(*M);
    // Pre-run mem2reg so mid-pipeline passes see realistic IR.
    auto Mem2Reg = createMem2RegPass();
    for (size_t I = 0; I != M->numFunctions(); ++I)
      Mem2Reg->run(*M->function(I), AM);
    AM.invalidateAll();
    std::unique_ptr<FunctionPass> P;
    std::string Name(PassName);
    if (Name == "mem2reg") {
      // Use fresh IR (not pre-promoted) for mem2reg itself.
      M = lowerRepresentative();
      P = createMem2RegPass();
    } else if (Name == "instsimplify")
      P = createInstSimplifyPass();
    else if (Name == "sccp")
      P = createSCCPPass();
    else if (Name == "cse")
      P = createCSEPass();
    else if (Name == "simplifycfg")
      P = createSimplifyCFGPass();
    else if (Name == "licm")
      P = createLICMPass();
    else if (Name == "loopunroll")
      P = createLoopUnrollPass();
    else if (Name == "dce")
      P = createDCEPass();
    AnalysisManager AM2(*M);
    State.ResumeTiming();

    for (size_t I = 0; I != M->numFunctions(); ++I) {
      bool Changed = P->run(*M->function(I), AM2);
      if (Changed)
        AM2.invalidate(*M->function(I));
      benchmark::DoNotOptimize(Changed);
    }
  }
}
BENCHMARK_CAPTURE(BM_SinglePass, mem2reg, "mem2reg");
BENCHMARK_CAPTURE(BM_SinglePass, instsimplify, "instsimplify");
BENCHMARK_CAPTURE(BM_SinglePass, sccp, "sccp");
BENCHMARK_CAPTURE(BM_SinglePass, cse, "cse");
BENCHMARK_CAPTURE(BM_SinglePass, simplifycfg, "simplifycfg");
BENCHMARK_CAPTURE(BM_SinglePass, licm, "licm");
BENCHMARK_CAPTURE(BM_SinglePass, loopunroll, "loopunroll");
BENCHMARK_CAPTURE(BM_SinglePass, dce, "dce");

void BM_Fingerprint(benchmark::State &State) {
  auto M = lowerRepresentative();
  for (auto _ : State)
    for (size_t I = 0; I != M->numFunctions(); ++I)
      benchmark::DoNotOptimize(structuralHash(*M->function(I)));
}
BENCHMARK(BM_Fingerprint);

void BM_StateSerialize(benchmark::State &State) {
  BuildStateDB DB;
  for (int F = 0; F != 40; ++F) {
    TUState TU;
    TU.PipelineSignature = 1;
    TU.ModuleDormancy.assign(25, 0);
    for (int G = 0; G != 8; ++G) {
      FunctionRecord Rec;
      Rec.Fingerprint = F * 100 + G;
      Rec.Dormancy.assign(25, G % 2);
      TU.Functions["fn" + std::to_string(G)] = Rec;
    }
    DB.update("file" + std::to_string(F) + ".mc", TU);
  }
  for (auto _ : State)
    benchmark::DoNotOptimize(DB.serialize());
}
BENCHMARK(BM_StateSerialize);

void BM_StateDeserialize(benchmark::State &State) {
  BuildStateDB DB;
  for (int F = 0; F != 40; ++F) {
    TUState TU;
    TU.PipelineSignature = 1;
    TU.ModuleDormancy.assign(25, 0);
    for (int G = 0; G != 8; ++G) {
      FunctionRecord Rec;
      Rec.Dormancy.assign(25, 1);
      TU.Functions["fn" + std::to_string(G)] = Rec;
    }
    DB.update("file" + std::to_string(F) + ".mc", TU);
  }
  std::string Bytes = DB.serialize();
  for (auto _ : State) {
    BuildStateDB R;
    benchmark::DoNotOptimize(R.deserialize(Bytes));
  }
}
BENCHMARK(BM_StateDeserialize);

void BM_CompileTU(benchmark::State &State, OptLevel Opt, bool Stateful) {
  static const std::string Src = representativeSource();
  BuildStateDB DB;
  CompilerOptions Options;
  Options.Opt = Opt;
  if (Stateful)
    Options.Stateful.SkipMode = StatefulConfig::Mode::HeuristicSkip;
  Compiler C(Options, Stateful ? &DB : nullptr);
  // Warm the state so the stateful case measures the skipping path.
  if (Stateful)
    C.compile("bench.mc", Src, {});
  for (auto _ : State) {
    CompileResult R = C.compile("bench.mc", Src, {});
    benchmark::DoNotOptimize(R.Success);
  }
}
BENCHMARK_CAPTURE(BM_CompileTU, O0, OptLevel::O0, false);
BENCHMARK_CAPTURE(BM_CompileTU, O1, OptLevel::O1, false);
BENCHMARK_CAPTURE(BM_CompileTU, O2_stateless, OptLevel::O2, false);
BENCHMARK_CAPTURE(BM_CompileTU, O2_stateful_warm, OptLevel::O2, true);

void BM_CompileTU_TraceDisabled(benchmark::State &State) {
  // The zero-overhead guarantee behind `scbuild --trace-out`: a
  // compiled-in but DISABLED recorder must not perturb an untraced
  // compile. Compare against BM_CompileTU/O2_stateless — the delta is
  // the total cost of the telemetry call sites (one pointer+flag test
  // each), expected to be within run-to-run noise.
  static const std::string Src = representativeSource();
  TraceRecorder Trace(/*StartEnabled=*/false);
  CompilerOptions Options;
  Options.Opt = OptLevel::O2;
  Options.Trace = &Trace;
  Compiler C(Options);
  for (auto _ : State) {
    CompileResult R = C.compile("bench.mc", Src, {});
    benchmark::DoNotOptimize(R.Success);
  }
  if (Trace.numEvents() != 0 || Trace.droppedEvents() != 0) {
    std::fprintf(stderr,
                 "E8: disabled TraceRecorder recorded events — the "
                 "zero-overhead gate is broken\n");
    std::abort();
  }
}
BENCHMARK(BM_CompileTU_TraceDisabled);

void BM_TraceSpanRecord(benchmark::State &State, bool Enabled) {
  // Per-event recording cost: enabled measures the lock-free ring
  // append (steady-state: the ring wraps and overwrites), disabled
  // measures the early-out every instrumented call site pays.
  TraceRecorder R(Enabled, 1u << 12);
  for (auto _ : State) {
    const uint64_t T0 = nowNanos();
    R.span("bench", "s", T0, T0 + 1);
  }
  if (!Enabled && R.numEvents() != 0)
    std::abort();
}
BENCHMARK_CAPTURE(BM_TraceSpanRecord, enabled, true);
BENCHMARK_CAPTURE(BM_TraceSpanRecord, disabled, false);

} // namespace

BENCHMARK_MAIN();
