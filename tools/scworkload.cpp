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
/// The flags are the table in main(); `scworkload --help` prints it.
///
/// Exit codes: 0 clean replay; 1 usage/parse error; 2 replay failed
/// (verifier finding, scratch divergence, or build failure).
///
//===----------------------------------------------------------------------===//

#include "build_sys/BuildFlags.h"
#include "build_sys/Daemon.h"
#include "build_sys/DaemonClient.h"
#include "support/CommandLine.h"
#include "support/FileSystem.h"
#include "workload/Scenario.h"

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

using namespace sc;

int main(int argc, char **argv) {
  std::string Dir = ".";
  std::string ReportOut, EditLogOut;
  ScenarioRunOptions Opts;
  OptLevel Opt = OptLevel::O2;
  bool ViaDaemon = false, Quiet = false;

  using Flag = CommandLineFlag;
  std::vector<Flag> Flags = optLevelFlags(Opt);
  Flags.insert(
      Flags.end(),
      {{"--dir DIR", Flag::Value,
        "workspace directory (default \".\"); out/ holds the artifacts",
        &Dir},
       {"-j N", Flag::Jobs,
        "build concurrency (default 1; replays are deterministic at any -j)",
        &Opts.Jobs},
       {"--stateless", Flag::Switch, "baseline compiler (default: stateful)",
        [&] { Opts.Stateful = false; }},
       {"--no-verify-deps", Flag::Switch, "skip the dependency cross-check",
        [&] { Opts.VerifyDeps = false; }},
       {"--no-scratch", Flag::Switch, "skip the scratch-build comparison",
        [&] { Opts.ScratchCompare = false; }},
       {"--via-daemon", Flag::Switch,
        "build through the workspace's scbuildd (started with --exact or "
        "--stateless, and this -O)",
        &ViaDaemon},
       {"--report-json=FILE", Flag::Value,
        "write the replay report (schema \"scworkload-replay\" v1)",
        &ReportOut},
       {"--edit-log=FILE", Flag::Value,
        "write the flat edit log (determinism debugging)", &EditLogOut},
       {"--quiet", Flag::Switch, "suppress per-phase progress lines",
        &Quiet}});
  const CommandLine CL("scworkload",
                       "scworkload run SPEC [options]\n"
                       "       scworkload check SPEC",
                       std::move(Flags));
  std::vector<std::string> Positionals;
  if (int Exit = CL.parse(argc, argv, &Positionals); Exit >= 0)
    return Exit;
  if (Positionals.size() != 2 ||
      (Positionals[0] != "run" && Positionals[0] != "check")) {
    std::fputs(CL.help().c_str(), stderr);
    return 1;
  }
  const std::string &Command = Positionals[0], &SpecPath = Positionals[1];
  Opts.OptLevel = static_cast<unsigned>(Opt);

  std::optional<std::string> Text = readHostFile(SpecPath);
  if (!Text)
    return CL.error("cannot read spec '%s'", SpecPath.c_str());
  Scenario S;
  std::string Error;
  if (!ScenarioParser::parse(*Text, S, Error))
    return CL.error("%s: %s", SpecPath.c_str(), Error.c_str());

  if (Command == "check") {
    // Echo the normalized form — what renderScenario round-trips.
    std::fputs(renderScenario(S).c_str(), stdout);
    return 0;
  }

  RealFileSystem FS(Dir);

  if (ViaDaemon) {
    const std::string Sock = daemonSocketPath(Dir, Opts.OutDir);
    // The daemon refuses a request for another configuration, so ask
    // for the one the replay's scratch oracle builds with.
    DaemonRequest Req = makeBuildRequest(scenarioBuildOptions(Opts));
    Req.Quiet = true;
    Opts.ExternalBuild = [Sock, Req]() {
      BuildStats R;
      DaemonClient Client = DaemonClient::connect(Sock);
      if (!Client.connected()) {
        R.ErrorText = "no daemon is serving '" + Sock + "'";
        return R;
      }
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
    writeHostFile(ReportOut, Runner.reportJson(), "scworkload", "report");
  if (!EditLogOut.empty()) {
    std::string Log;
    for (const std::string &L : Runner.editLog())
      Log += L + "\n";
    writeHostFile(EditLogOut, Log, "scworkload", "edit log");
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
