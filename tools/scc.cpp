//===- tools/scc.cpp - Stateful-compiler command-line driver ---------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// `scc` — compile, inspect, and run MiniC translation units.
///
///   scc file.mc [options]
///
/// The flags are the table in main(); `scc --help` prints it.
///
/// Imports are resolved relative to the directory of the importing
/// file (like #include "..."), so `scc sub/main.mc` from anywhere finds
/// `sub/util.mc` via `import "util.mc"`.
///
//===----------------------------------------------------------------------===//

#include "build_sys/BuildFlags.h"
#include "codegen/AsmPrinter.h"
#include "codegen/ObjectFile.h"
#include "driver/Compiler.h"
#include "driver/IRGen.h"
#include "ir/IRPrinter.h"
#include "lang/Parser.h"
#include "support/CommandLine.h"
#include "support/FileSystem.h"
#include "vm/VM.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

using namespace sc;

namespace {

/// Resolves \p Import as written in the file at \p FromPath: absolute
/// imports are taken verbatim; relative ones are joined to the
/// importer's directory and lexically normalized ("."/".." segments),
/// the #include "..." rule. Keeping it lexical (no realpath) means the
/// same source resolves identically on every filesystem.
std::string resolveImportPath(const std::string &FromPath,
                              const std::string &Import) {
  std::string Joined;
  if (!Import.empty() && Import[0] == '/') {
    Joined = Import;
  } else {
    size_t Slash = FromPath.find_last_of('/');
    Joined = Slash == std::string::npos
                 ? Import
                 : FromPath.substr(0, Slash + 1) + Import;
  }
  // Normalize: collapse "." and fold ".." into its parent where one
  // exists (leading ".."s are kept — they climb above the start dir).
  std::vector<std::string> Parts;
  bool Absolute = !Joined.empty() && Joined[0] == '/';
  size_t Pos = 0;
  while (Pos <= Joined.size()) {
    size_t Next = Joined.find('/', Pos);
    if (Next == std::string::npos)
      Next = Joined.size();
    std::string Part = Joined.substr(Pos, Next - Pos);
    Pos = Next + 1;
    if (Part.empty() || Part == ".")
      continue;
    if (Part == ".." && !Parts.empty() && Parts.back() != "..") {
      Parts.pop_back();
      continue;
    }
    Parts.push_back(std::move(Part));
  }
  std::string Out = Absolute ? "/" : "";
  for (size_t I = 0; I != Parts.size(); ++I)
    Out += (I ? "/" : "") + Parts[I];
  return Out;
}

/// Resolves the direct imports' interfaces (one level is enough: sema
/// only needs signatures, which the import's own file declares).
/// \p FromPath is the importing file — import strings are resolved
/// relative to its directory.
bool resolveImports(RealFileSystem &FS, const std::string &FromPath,
                    const std::string &Source, ModuleInterface &Out) {
  auto Scanned = Compiler::scanInterface(Source);
  if (!Scanned)
    return true; // Syntax errors surface in the real compile below.
  for (const std::string &Dep : Scanned->second) {
    const std::string DepPath = resolveImportPath(FromPath, Dep);
    std::optional<std::string> DepSource = FS.readFile(DepPath);
    if (!DepSource) {
      std::fprintf(stderr, "scc: error: cannot read import '%s' (from '%s')\n",
                   DepPath.c_str(), FromPath.c_str());
      return false;
    }
    auto DepScanned = Compiler::scanInterface(*DepSource);
    if (!DepScanned) {
      std::fprintf(stderr, "scc: error: syntax errors in import '%s'\n",
                   DepPath.c_str());
      return false;
    }
    Out.insert(Out.end(), DepScanned->first.begin(),
               DepScanned->first.end());
  }
  return true;
}

} // namespace

int main(int argc, char **argv) {
  std::string OutputPath, StatePath = ".scc-state.db";
  CompilerOptions Options;
  bool Stateful = false, EmitIR = false, EmitAsm = false, Run = false,
       Stats = false, Quiet = false;

  using Flag = CommandLineFlag;
  std::vector<Flag> Flags = optLevelFlags(Options.Opt);
  Flags.insert(
      Flags.end(),
      {{"-o out.o", Flag::Value, "write the object file (default: <file>.o)",
        &OutputPath},
       {"--stateful", Flag::Switch, "enable dormant-pass skipping",
        &Stateful},
       {"--reuse", Flag::Switch, "also enable function-level code reuse",
        [&] { Stateful = Options.Stateful.ReuseFunctionCode = true; }},
       {"--state-db path", Flag::Value,
        "persistent state location (default: .scc-state.db)", &StatePath},
       {"--emit-ir", Flag::Switch, "print the optimized IR", &EmitIR},
       {"--emit-asm", Flag::Switch, "print the generated VISA assembly",
        &EmitAsm},
       {"--run", Flag::Switch, "link this object alone and execute main()",
        &Run},
       {"--stats", Flag::Switch, "print compile statistics", &Stats},
       {"--quiet", Flag::Switch,
        "suppress the pass-skip summary (never warnings)", &Quiet},
       {"--verify-each", Flag::Switch,
        "run the IR verifier after every changing pass",
        &Options.VerifyEach}});
  const CommandLine CL("scc", "scc <file.mc> [options]", std::move(Flags));
  std::vector<std::string> Inputs;
  if (int Exit = CL.parse(argc, argv, &Inputs); Exit >= 0)
    return Exit;
  if (Inputs.size() > 1)
    return CL.error("multiple input files");
  if (Inputs.empty()) {
    std::fputs(CL.help().c_str(), stderr);
    return 1;
  }
  const std::string &InputPath = Inputs[0];
  if (OutputPath.empty())
    OutputPath = InputPath + ".o";

  RealFileSystem FS(".");
  std::optional<std::string> Source = FS.readFile(InputPath);
  if (!Source)
    return CL.error("cannot read '%s'", InputPath.c_str());

  ModuleInterface Imports;
  if (!resolveImports(FS, InputPath, *Source, Imports))
    return 1;

  BuildStateDB DB;
  if (Stateful) {
    Options.Stateful.SkipMode = StatefulConfig::Mode::HeuristicSkip;
    DB.loadFromFile(FS, StatePath); // Missing/corrupt: cold build.
  }

  Compiler TheCompiler(Options, Stateful ? &DB : nullptr);
  CompileResult Result =
      TheCompiler.compile(InputPath, *Source, Imports);
  if (!Result.Success) {
    std::fprintf(stderr, "%s", Result.DiagText.c_str());
    return 1;
  }

  if (!FS.writeFile(OutputPath, writeObject(Result.Object)))
    return CL.error("cannot write '%s'", OutputPath.c_str());
  if (Stateful && !DB.saveToFile(FS, StatePath))
    // Non-fatal: the object was written, only the next run is colder.
    std::fprintf(stderr,
                 "scc: warning: cannot save compiler state to '%s' (%s)\n",
                 StatePath.c_str(), FS.lastError().c_str());

  // The same pass-skip summary scbuild prints, so a lone `scc
  // --stateful` run is as observable as a full build. --quiet
  // suppresses this (and --stats), never warnings or diagnostics.
  if (Stateful && !Quiet)
    std::printf("scc: passes run %llu, skipped %llu; "
                "functions reused %llu; state db %.1f KB\n",
                static_cast<unsigned long long>(Result.SkipStats.PassesRun),
                static_cast<unsigned long long>(
                    Result.SkipStats.PassesSkipped),
                static_cast<unsigned long long>(
                    Result.SkipStats.FunctionsReused),
                DB.sizeBytes() / 1024.0);

  if (EmitIR) {
    // Re-lower to show the optimized IR: the driver does not keep the
    // module, so compile a display copy through the same pipeline.
    DiagnosticEngine Diags;
    Parser P(*Source, Diags);
    auto AST = P.parseModule();
    ModuleInterface Own = analyzeModule(*AST, Imports, Diags);
    ModuleInterface All = Imports;
    All.insert(All.end(), Own.begin(), Own.end());
    auto M = generateIR(*AST, InputPath, All);
    PassPipeline Pipeline = buildPipeline(Options.Opt);
    AnalysisManager AM(*M);
    Pipeline.run(*M, AM);
    std::printf("%s", printModule(*M).c_str());
  }
  if (EmitAsm)
    std::printf("%s", printAssembly(Result.Object).c_str());

  if (Stats && !Quiet) {
    std::printf("scc: %s: fe %.0fus | mid %.0fus | be %.0fus | "
                "IR %zu -> %zu insts",
                InputPath.c_str(), Result.Timings.FrontendUs,
                Result.Timings.MiddleUs, Result.Timings.BackendUs,
                Result.IRInstsBeforeOpt, Result.IRInstsAfterOpt);
    if (Stateful)
      std::printf(" | passes run %llu skipped %llu | reused fns %llu",
                  static_cast<unsigned long long>(
                      Result.SkipStats.PassesRun),
                  static_cast<unsigned long long>(
                      Result.SkipStats.PassesSkipped),
                  static_cast<unsigned long long>(
                      Result.SkipStats.FunctionsReused));
    std::printf("\n");
  }

  if (Run) {
    // Compile the transitive imports so the program links, like a
    // one-shot `gcc a.c b.c` driver invocation.
    std::vector<MModule> Extra;
    std::vector<std::string> Done{InputPath};
    auto Scanned = Compiler::scanInterface(*Source);
    std::vector<std::string> Queue;
    if (Scanned)
      for (const std::string &Dep : Scanned->second)
        Queue.push_back(resolveImportPath(InputPath, Dep));
    while (!Queue.empty()) {
      std::string Dep = Queue.back();
      Queue.pop_back();
      if (std::find(Done.begin(), Done.end(), Dep) != Done.end())
        continue;
      Done.push_back(Dep);
      std::optional<std::string> DepSource = FS.readFile(Dep);
      if (!DepSource)
        return CL.error("cannot read import '%s'", Dep.c_str());
      ModuleInterface DepImports;
      if (!resolveImports(FS, Dep, *DepSource, DepImports))
        return 1;
      auto DepScan = Compiler::scanInterface(*DepSource);
      if (DepScan)
        for (const std::string &Next : DepScan->second)
          Queue.push_back(resolveImportPath(Dep, Next));
      Compiler DepCompiler(Options, Stateful ? &DB : nullptr);
      CompileResult DepResult =
          DepCompiler.compile(Dep, *DepSource, DepImports);
      if (!DepResult.Success) {
        std::fprintf(stderr, "%s", DepResult.DiagText.c_str());
        return 1;
      }
      Extra.push_back(std::move(DepResult.Object));
    }

    std::vector<const MModule *> LinkSet{&Result.Object};
    for (const MModule &Obj : Extra)
      LinkSet.push_back(&Obj);
    LinkResult Linked = linkObjects(LinkSet);
    if (!Linked.succeeded()) {
      for (const std::string &E : Linked.Errors)
        std::fprintf(stderr, "scc: link error: %s\n", E.c_str());
      return 1;
    }
    VM Machine(*Linked.Program);
    ExecResult R = Machine.run();
    if (R.Trapped) {
      std::fprintf(stderr, "scc: trap: %s\n", R.TrapReason.c_str());
      return 1;
    }
    for (int64_t V : R.Output)
      std::printf("%lld\n", static_cast<long long>(V));
    return static_cast<int>(R.ReturnValue.value_or(0) & 0xff);
  }
  return 0;
}
