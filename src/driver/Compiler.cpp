//===- driver/Compiler.cpp - Compilation facade --------------------------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"

#include "analysis/CallGraph.h"
#include "codegen/ISel.h"
#include "codegen/ObjectFile.h"
#include "codegen/Peephole.h"
#include "codegen/RegAlloc.h"
#include "driver/IRGen.h"
#include "ir/StructuralHash.h"
#include "ir/Verifier.h"
#include "lang/Parser.h"
#include "support/Hashing.h"
#include "support/Metrics.h"
#include "support/TaskPool.h"
#include "support/Trace.h"
#include "transforms/MemoryUtils.h"

#include <algorithm>
#include <cassert>
#include <set>

using namespace sc;

Compiler::Compiler(CompilerOptions Options, BuildStateDB *DB)
    : Options(Options), DB(DB), Pipeline(buildPipeline(Options.Opt)) {
  assert((DB || Options.Stateful.SkipMode ==
                    StatefulConfig::Mode::Stateless) &&
         "stateful modes require a BuildStateDB");
}

bool FingerprintMemo::lookup(uint64_t Key,
                             std::map<std::string, uint64_t> &Out) const {
  const Shard &S = shardFor(Key);
  std::lock_guard<std::mutex> Lock(S.Mu);
  auto It = S.Entries.find(Key);
  if (It == S.Entries.end())
    return false;
  Out = It->second;
  return true;
}

void FingerprintMemo::insert(uint64_t Key,
                             std::map<std::string, uint64_t> Fingerprints) {
  Shard &S = shardFor(Key);
  std::lock_guard<std::mutex> Lock(S.Mu);
  S.Entries[Key] = std::move(Fingerprints);
}

size_t FingerprintMemo::size() const {
  size_t N = 0;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.Mu);
    N += S.Entries.size();
  }
  return N;
}

namespace {

/// Inline-closure code keys for every function of \p M (the
/// ReuseFunctionCode extension; see FunctionRecord::CodeKey). The key
/// must change whenever ANY input an optimization of this function
/// could observe changes:
///  * its own pre-optimization body (fingerprint);
///  * the body of every module-local function reachable through calls
///    (the inliner may splice them in, purity derives from them);
///  * the module's global-variable usage summary (globalopt folds
///    loads of never-written globals based on module-wide knowledge);
///  * the pipeline signature (different passes, different output).
std::map<std::string, uint64_t>
computeCodeKeys(const Module &M,
                const std::map<std::string, uint64_t> &Fingerprints,
                uint64_t PipelineSignature) {
  // Global usage summary.
  std::map<const GlobalVariable *, std::pair<bool, bool>> Usage;
  for (size_t I = 0; I != M.numFunctions(); ++I)
    M.function(I)->forEachInstruction([&](Instruction *Inst) {
      if (auto *Load = dyn_cast<LoadInst>(Inst)) {
        MemLocation Loc = decomposePointer(Load->pointer());
        if (auto *G = dyn_cast_if_present<GlobalVariable>(Loc.Base))
          Usage[G].first = true;
      } else if (auto *Store = dyn_cast<StoreInst>(Inst)) {
        MemLocation Loc = decomposePointer(Store->pointer());
        if (auto *G = dyn_cast_if_present<GlobalVariable>(Loc.Base))
          Usage[G].second = true;
      }
    });
  HashBuilder GH;
  for (size_t I = 0; I != M.numGlobals(); ++I) {
    const GlobalVariable *G = M.global(I);
    GH.addString(G->name());
    GH.addU64(G->size());
    GH.addI64(G->initValue());
    auto It = Usage.find(G);
    GH.addBool(It != Usage.end() && It->second.first);
    GH.addBool(It != Usage.end() && It->second.second);
  }
  uint64_t GlobalSummary = GH.digest();

  CallGraph CG = CallGraph::compute(M);
  std::map<std::string, uint64_t> Keys;
  for (size_t I = 0; I != M.numFunctions(); ++I) {
    Function *F = M.function(I);
    // Transitive closure over module-local callees.
    std::set<const Function *> Closure;
    std::vector<const Function *> Work{F};
    bool CallsExtern = CG.hasExternalCallee(F);
    while (!Work.empty()) {
      const Function *Cur = Work.back();
      Work.pop_back();
      if (!Closure.insert(Cur).second)
        continue;
      CallsExtern |= CG.hasExternalCallee(Cur);
      for (Function *Callee : CG.callees(Cur))
        Work.push_back(Callee);
    }
    HashBuilder H;
    H.addU64(PipelineSignature);
    H.addU64(GlobalSummary);
    H.addBool(CallsExtern);
    // Closure fingerprints in name order for stability.
    std::vector<std::string> Names;
    for (const Function *C : Closure)
      Names.push_back(C->name());
    std::sort(Names.begin(), Names.end());
    for (const std::string &Name : Names) {
      H.addString(Name);
      auto It = Fingerprints.find(Name);
      H.addU64(It != Fingerprints.end() ? It->second : 0);
    }
    Keys[F->name()] = H.digest();
  }
  return Keys;
}

} // namespace

uint64_t Compiler::pipelineSignature() const {
  HashBuilder H;
  H.addU64(Pipeline.signature());
  H.addU32(static_cast<uint32_t>(Options.Opt));
  H.addU32(Options.CompilerVersion);
  return H.digest();
}

CompileResult Compiler::compile(const std::string &TUKey,
                                const std::string &Source,
                                const ModuleInterface &Imports) {
  CompileResult Result;

  // One span covering the whole TU job: in a parallel build these
  // spans land on different trace threads, making -j scheduling
  // visible. Each phase is a nested scope that also fills its
  // Result.Timings field; every one is end()ed before a `return`.
  const bool Tracing = Options.Trace && Options.Trace->enabled();
  TraceSpan TUSpan(Options.Trace, "compile", "compile:" + TUKey);
  auto PhaseName = [&](const char *Phase) {
    return Tracing ? Phase + (":" + TUKey) : std::string();
  };

  //===--- Frontend: parse, sema, IR generation -----------------------------===//

  TraceSpan Frontend(Options.Trace, "compile.phase", PhaseName("frontend"),
                     &Result.Timings.FrontendUs);
  DiagnosticEngine Diags;
  Parser P(Source, Diags);
  std::unique_ptr<ModuleAST> AST = P.parseModule();
  ModuleInterface Exported = analyzeModule(*AST, Imports, Diags);
  if (Diags.hasErrors()) {
    Frontend.end();
    Result.DiagText = Diags.render(TUKey);
    return Result;
  }

  // Callables: imports + own exports (sema validated no collisions).
  ModuleInterface Callables = Imports;
  Callables.insert(Callables.end(), Exported.begin(), Exported.end());
  std::unique_ptr<Module> M = generateIR(*AST, TUKey, Callables);
  Frontend.end();

  {
    std::vector<std::string> Errors;
    if (!verifyModule(*M, Errors)) {
      Result.DiagText = "internal error: IR verification failed after "
                        "generation:\n";
      for (const std::string &E : Errors)
        Result.DiagText += "  " + E + "\n";
      return Result;
    }
  }

  Result.IRInstsBeforeOpt = 0;
  for (size_t I = 0; I != M->numFunctions(); ++I)
    Result.IRInstsBeforeOpt += M->function(I)->instructionCount();

  //===--- State: fingerprints and previous records -------------------------===//

  TraceSpan State(Options.Trace, "compile.phase", PhaseName("state"),
                  &Result.Timings.StateUs);
  uint64_t MemoKey = 0;
  bool MemoHit = false;
  if (Options.FPMemo) {
    // The fingerprints are a pure function of the generated IR, which
    // is a pure function of (TUKey, source, visible import
    // signatures) — fold exactly those into the memo key.
    HashBuilder MK;
    MK.addString(TUKey);
    MK.addString(Source);
    MK.addU64(Imports.size());
    for (const FunctionSignature &Sig : Imports) {
      MK.addString(Sig.Name);
      MK.addU32(static_cast<uint32_t>(Sig.ReturnType));
      MK.addU64(Sig.ParamTypes.size());
      for (TypeName T : Sig.ParamTypes)
        MK.addU32(static_cast<uint32_t>(T));
    }
    MemoKey = MK.digest();
    MemoHit = Options.FPMemo->lookup(MemoKey, Result.Fingerprints);
  }
  if (!MemoHit) {
    // Hash functions in parallel when a pool is available: disjoint
    // output slots, name-keyed map built afterwards in index order.
    const size_t NumFns = M->numFunctions();
    std::vector<uint64_t> Hashes(NumFns);
    auto HashOne = [&](size_t I, unsigned) {
      Hashes[I] = structuralHash(*M->function(I));
    };
    if (Options.Workers && NumFns > 1)
      Options.Workers->parallelFor(NumFns, HashOne);
    else
      for (size_t I = 0; I != NumFns; ++I)
        HashOne(I, 0);
    for (size_t I = 0; I != NumFns; ++I)
      Result.Fingerprints[M->function(I)->name()] = Hashes[I];
    if (Options.FPMemo)
      Options.FPMemo->insert(MemoKey, Result.Fingerprints);
  }

  std::unique_ptr<StatefulInstrumentation> Instr;
  std::map<std::string, uint64_t> CodeKeys;
  std::set<std::string> ReusedFunctions;
  const TUState *Prev = nullptr;
  if (Options.Stateful.SkipMode != StatefulConfig::Mode::Stateless) {
    Prev = DB->lookup(TUKey);
    Instr = std::make_unique<StatefulInstrumentation>(
        Options.Stateful, Prev, pipelineSignature(), Pipeline.size(),
        Result.Fingerprints);

    if (Options.Stateful.ReuseFunctionCode) {
      CodeKeys = computeCodeKeys(*M, Result.Fingerprints,
                                 pipelineSignature());
      if (Prev && Prev->PipelineSignature == pipelineSignature())
        for (const auto &[Name, Key] : CodeKeys) {
          auto It = Prev->Functions.find(Name);
          if (It != Prev->Functions.end() && It->second.CodeKey == Key &&
              !It->second.CachedCode.empty())
            ReusedFunctions.insert(Name);
        }
      Instr->setReusedFunctions(ReusedFunctions);
    }
  }
  State.end();
  if (Options.Metrics) {
    Options.Metrics->counter(MemoHit ? "compiler.fingerprint_memo_hits"
                                     : "compiler.fingerprint_memo_misses")
        .add(1);
  }

  //===--- Middle end: the optimization pipeline ----------------------------===//

  TraceSpan Middle(Options.Trace, "compile.phase", PhaseName("middle"),
                   &Result.Timings.MiddleUs);
  AnalysisManager AM(*M);
  Result.PassStats = Pipeline.run(*M, AM, Instr.get(), Options.VerifyEach,
                                  Options.Workers, Options.Trace);
  Middle.end();

  Result.IRInstsAfterOpt = 0;
  for (size_t I = 0; I != M->numFunctions(); ++I)
    Result.IRInstsAfterOpt += M->function(I)->instructionCount();

  //===--- Backend: isel, register allocation, peephole ----------------------===//
  // Functions whose inline-closure key matched splice their cached
  // compiled code instead of going through codegen.

  TraceSpan Backend(Options.Trace, "compile.phase", PhaseName("backend"),
                    &Result.Timings.BackendUs);
  MModule Object;
  Object.Name = M->name();
  for (size_t I = 0; I != M->numGlobals(); ++I) {
    const GlobalVariable *G = M->global(I);
    Object.Globals.push_back({G->name(), G->size(), G->initValue()});
  }
  for (size_t I = 0; I != M->numFunctions(); ++I) {
    Function *F = M->function(I);
    if (ReusedFunctions.count(F->name())) {
      std::optional<MFunction> Cached =
          readFunctionBlob(Prev->Functions.at(F->name()).CachedCode);
      if (Cached) {
        Object.Functions.push_back(std::move(*Cached));
        continue;
      }
      // Corrupt blob (damaged state file): fall through and compile
      // normally. The function's passes were skipped, so the result
      // is valid but unoptimized — never wrong.
    }
    MFunction MF = selectInstructions(*F);
    allocateRegisters(MF);
    runPeephole(MF);
    Object.Functions.push_back(std::move(MF));
  }
  Backend.end();

  //===--- State: persist dormancy records and the code cache ----------------===//

  TraceSpan StateSave(Options.Trace, "compile.phase", PhaseName("state"),
                      &Result.Timings.StateUs);
  if (Instr) {
    Result.SkipStats = Instr->stats();
    if (Options.RecordDecisions) {
      Result.Decisions = Instr->takeDecisions();
      Result.Decisions.PassNames.reserve(Pipeline.size());
      for (size_t I = 0; I != Pipeline.size(); ++I)
        Result.Decisions.PassNames.push_back(Pipeline.passName(I));
    }
    TUState NewState = Instr->takeNewState();
    if (Options.Stateful.ReuseFunctionCode) {
      for (const MFunction &MF : Object.Functions) {
        FunctionRecord &Rec = NewState.Functions[MF.Name];
        if (Rec.Dormancy.empty()) {
          // O0 pipelines produce no pass events; still fingerprint.
          auto FPIt = Result.Fingerprints.find(MF.Name);
          Rec.Fingerprint =
              FPIt != Result.Fingerprints.end() ? FPIt->second : 0;
        }
        auto KeyIt = CodeKeys.find(MF.Name);
        Rec.CodeKey = KeyIt != CodeKeys.end() ? KeyIt->second : 0;
        if (ReusedFunctions.count(MF.Name))
          // The spliced code came from the previous blob; keep it.
          Rec.CachedCode = Prev->Functions.at(MF.Name).CachedCode;
        else
          Rec.CachedCode = writeFunctionBlob(MF);
      }
    }
    DB->update(TUKey, std::move(NewState));
  }
  StateSave.end();
  if (Tracing)
    TUSpan.args("{\"passes_run\":" +
                std::to_string(Result.PassStats.FunctionPassRuns +
                               Result.PassStats.ModulePassRuns) +
                ",\"passes_skipped\":" +
                std::to_string(Result.PassStats.FunctionPassSkips +
                               Result.PassStats.ModulePassSkips) +
                ",\"functions_reused\":" +
                std::to_string(Result.SkipStats.FunctionsReused) + "}");

  Result.Object = std::move(Object);
  Result.Interface = std::move(Exported);
  Result.Success = true;
  return Result;
}

std::optional<std::pair<ModuleInterface, std::vector<std::string>>>
Compiler::scanInterface(const std::string &Source) {
  DiagnosticEngine Diags;
  Parser P(Source, Diags);
  std::unique_ptr<ModuleAST> AST = P.parseModule();
  if (Diags.hasErrors())
    return std::nullopt;
  ModuleInterface Interface;
  for (const auto &F : AST->Functions) {
    FunctionSignature Sig;
    Sig.Name = F->name();
    Sig.ReturnType = F->returnType();
    for (const ParamDecl &Param : F->params())
      Sig.ParamTypes.push_back(Param.Type);
    Interface.push_back(std::move(Sig));
  }
  std::vector<std::string> ImportPaths;
  for (const ImportDecl &I : AST->Imports)
    ImportPaths.push_back(I.Path);
  return std::make_pair(std::move(Interface), std::move(ImportPaths));
}
