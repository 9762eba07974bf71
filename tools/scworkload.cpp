//===- tools/scworkload.cpp - Scenario replay tool -------------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// `scworkload` — replay a declarative workload scenario (see
/// docs/WORKLOADS.md) against a workspace, building after every phase
/// iteration and failing on any dependency-verifier finding or
/// non-incremental divergence (the incremental manifest must match a
/// scratch build of the same tree).
///
///   scworkload run SPEC [options]      replay SPEC into a workspace
///   scworkload check SPEC              parse + echo the normalized spec
///
/// Options (run):
///   --dir DIR         workspace directory (default "."); the scenario's
///                     generated project is rendered here and out/ holds
///                     the build artifacts
///   -j N              build concurrency (default 1 — replays are
///                     deterministic at any -j; crank it to stress)
///   -O0|-O1|-O2       optimization level (default -O2)
///   --stateless       baseline compiler (default: stateful)
///   --no-verify-deps  skip the dependency cross-check
///   --no-scratch      skip the scratch-build comparison
///   --via-daemon      route builds through the scbuildd serving the
///                     workspace (verification and scratch comparison
///                     stay in-process)
///   --report-json=FILE  write the replay report (schema
///                       "scworkload-replay" v1)
///   --edit-log=FILE   write the flat edit log (determinism debugging)
///   --quiet           suppress per-phase progress lines
///
/// Exit codes: 0 clean replay; 1 usage/parse error; 2 replay failed
/// (verifier finding, scratch divergence, or build failure).
///
//===----------------------------------------------------------------------===//

#include "build_sys/Daemon.h"
#include "build_sys/DaemonClient.h"
#include "support/FileSystem.h"
#include "support/StringUtils.h"
#include "workload/Scenario.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace sc;

namespace {

bool readHostFile(const std::string &Path, std::string &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  std::fclose(F);
  return true;
}

bool writeHostFile(const std::string &Path, const std::string &Text,
                   const char *What) {
  if (std::FILE *F = std::fopen(Path.c_str(), "wb")) {
    std::fwrite(Text.data(), 1, Text.size(), F);
    std::fclose(F);
    return true;
  }
  std::fprintf(stderr, "scworkload: warning: could not write %s '%s'\n", What,
               Path.c_str());
  return false;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: scworkload run SPEC [--dir DIR] [-j N] [-O0|-O1|-O2]\n"
      "                  [--stateless] [--no-verify-deps] [--no-scratch]\n"
      "                  [--via-daemon] [--report-json=FILE] "
      "[--edit-log=FILE] [--quiet]\n"
      "       scworkload check SPEC\n");
  return 1;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 3)
    return usage();
  const std::string Command = argv[1];
  const std::string SpecPath = argv[2];
  if (Command != "run" && Command != "check")
    return usage();

  std::string Dir = ".";
  std::string ReportOut, EditLogOut;
  ScenarioRunOptions Opts;
  bool ViaDaemon = false, Quiet = false;

  bool ArgError = false;
  auto FlagValue = [&](const std::string &Arg, const char *Flag, int &I,
                       std::string &Out) {
    std::string Prefix = std::string(Flag) + "=";
    if (Arg.compare(0, Prefix.size(), Prefix) == 0) {
      Out = Arg.substr(Prefix.size());
      return true;
    }
    if (Arg != Flag)
      return false;
    if (I + 1 < argc) {
      Out = argv[++I];
      return true;
    }
    std::fprintf(stderr, "scworkload: error: option '%s' requires a value\n",
                 Flag);
    ArgError = true;
    return true;
  };

  for (int I = 3; I < argc; ++I) {
    std::string Arg = argv[I];
    if (FlagValue(Arg, "--dir", I, Dir) ||
        FlagValue(Arg, "--report-json", I, ReportOut) ||
        FlagValue(Arg, "--edit-log", I, EditLogOut))
      continue;
    if (Arg == "-j") {
      if (I + 1 >= argc || !parseDecimal(argv[++I], Opts.Jobs)) {
        std::fprintf(stderr,
                     "scworkload: error: option '-j' requires a positive "
                     "integer\n");
        return 1;
      }
      Opts.Jobs = Opts.Jobs ? Opts.Jobs : 1;
    } else if (Arg == "-O0")
      Opts.OptLevel = 0;
    else if (Arg == "-O1")
      Opts.OptLevel = 1;
    else if (Arg == "-O2")
      Opts.OptLevel = 2;
    else if (Arg == "--stateless")
      Opts.Stateful = false;
    else if (Arg == "--no-verify-deps")
      Opts.VerifyDeps = false;
    else if (Arg == "--no-scratch")
      Opts.ScratchCompare = false;
    else if (Arg == "--via-daemon")
      ViaDaemon = true;
    else if (Arg == "--quiet")
      Quiet = true;
    else {
      std::fprintf(stderr, "scworkload: error: unknown option '%s'\n",
                   Arg.c_str());
      return 1;
    }
  }
  if (ArgError)
    return 1;

  std::string Text;
  if (!readHostFile(SpecPath, Text)) {
    std::fprintf(stderr, "scworkload: error: cannot read spec '%s'\n",
                 SpecPath.c_str());
    return 1;
  }
  Scenario S;
  std::string Error;
  if (!ScenarioParser::parse(Text, S, Error)) {
    std::fprintf(stderr, "scworkload: error: %s: %s\n", SpecPath.c_str(),
                 Error.c_str());
    return 1;
  }

  if (Command == "check") {
    // Echo the normalized form — what renderScenario round-trips.
    std::fputs(renderScenario(S).c_str(), stdout);
    return 0;
  }

  RealFileSystem FS(Dir);

  if (ViaDaemon) {
    const std::string Sock = daemonSocketPath(Dir, Opts.OutDir);
    Opts.ExternalBuild = [Sock]() {
      BuildStats R;
      DaemonClient Client = DaemonClient::connect(Sock);
      if (!Client.connected()) {
        R.ErrorText = "no daemon is serving '" + Sock + "'";
        return R;
      }
      DaemonRequest Req;
      Req.Verb = "build";
      Req.Quiet = true;
      std::string Err, Captured;
      auto Capture = [&](const std::string &T) { Captured += T; };
      int Code = Client.roundTrip(Req, Capture, Capture, nullptr, &Err);
      R.Success = Code == 0;
      if (!R.Success)
        R.ErrorText = !Err.empty() ? Err : Captured;
      return R;
    };
  }

  ScenarioRunner Runner(S, FS, Opts);
  bool OK = Runner.run();

  if (!Quiet) {
    for (const ScenarioPhaseOutcome &O : Runner.outcomes()) {
      std::string Tag = O.Phase;
      if (O.Iteration)
        Tag += "#" + std::to_string(O.Iteration);
      if (!O.BuildOk) {
        std::fprintf(stderr, "scworkload: %s: BUILD FAILED: %s\n", Tag.c_str(),
                     O.BuildError.c_str());
        continue;
      }
      std::fprintf(stderr,
                   "scworkload: %s: changed %zu, compiled %u/%u, deps %u/%u, "
                   "scratch %s%s\n",
                   Tag.c_str(), O.ChangedFiles.size(), O.FilesCompiled,
                   O.FilesTotal, O.DepsMissing, O.DepsRedundant,
                   O.ScratchMatch ? "ok" : "DIVERGED",
                   O.Findings.empty() ? "" : " [FINDINGS]");
    }
  }
  // Findings always print — they are the verdict.
  for (const ScenarioPhaseOutcome &O : Runner.outcomes())
    for (const std::string &F : O.Findings)
      std::fprintf(stderr, "scworkload: %s\n", F.c_str());

  if (!ReportOut.empty())
    writeHostFile(ReportOut, Runner.reportJson(), "report");
  if (!EditLogOut.empty()) {
    std::string Log;
    for (const std::string &L : Runner.editLog())
      Log += L + "\n";
    writeHostFile(EditLogOut, Log, "edit log");
  }

  if (!OK) {
    std::fprintf(stderr, "scworkload: replay FAILED for scenario '%s'\n",
                 S.Name.c_str());
    return 2;
  }
  if (!Quiet)
    std::fprintf(stderr, "scworkload: replay ok: scenario '%s' (%zu builds)\n",
                 S.Name.c_str(), Runner.outcomes().size());
  return 0;
}
