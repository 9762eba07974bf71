//===- tools/scbuild.cpp - Incremental build tool --------------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// `scbuild` — build a directory of .mc files incrementally and
/// optionally run the linked program. The on-disk artifacts (objects,
/// manifest, compiler state) live in <dir>/out and persist between
/// invocations, so repeated `scbuild` calls behave like make/ninja
/// driving the stateful compiler.
///
///   scbuild [dir] [options]
///   scbuild analyze [dir] [--build=ID] [--against=ID] [--top=N] [--json]
///                   critical-path analysis over the build history ledger
///                   (<dir>/out/history.jsonl): slowest TUs and passes,
///                   lock/pool attribution, and an A-vs-B regression diff
///   scbuild daemon-top [dir] [--watch]
///                   one-shot (or looping, with --watch) status view of the
///                   serving daemon, built on its status + metrics verbs
///
/// Options:
///   -O0|-O1|-O2     optimization level (default -O2)
///   -j <N>          total build concurrency, shared by TU-level jobs
///                   and intra-TU function-pass tasks (default: all
///                   hardware threads; 0 is clamped to 1)
///   --stateless     baseline compiler (default: stateful)
///   --exact         ExactSkip policy instead of the paper's heuristic
///   --reuse         enable function-level code reuse
///   --clean         drop artifacts and state before building
///   --run [args...] execute main() after a successful build; the
///                   remaining arguments are passed as integers
///   --quiet         suppress the build summary (warnings still print)
///   --daemon[=auto-start]
///                   build through a resident scbuildd daemon when one
///                   serves <dir>/out (warm caches across builds); with
///                   =auto-start, launch one if none is running. Falls
///                   back to an in-process build when no daemon listens.
///                   Output is byte-identical either way.
///   --daemon-status print the serving daemon's status and exit
///   --daemon-shutdown
///                   stop the serving daemon and exit
///   --remote-cache=PATH
///                   use the sccached daemon listening on Unix socket
///                   PATH as a shared remote object cache: objects
///                   another machine already compiled are fetched and
///                   verified instead of recompiled, and new objects
///                   are published for the rest of the fleet. A dead or
///                   absent daemon degrades to a plain local build with
///                   one warning — never a failed build.
///   --verify-deps   after a successful build, cross-check the files
///                   each TU actually read against the import graph's
///                   tracked edges (build_sys/DepVerifier.h). Findings
///                   print as stable `dep-missing:` / `dep-redundant:`
///                   reason lines and the exit code is 6. Observational
///                   only — never changes what gets built.
///   --trace-out=FILE   write a Chrome trace-event JSON of the build
///                      (load in chrome://tracing or Perfetto)
///   --report-json=FILE write the versioned JSON build report
///   --history-limit=N  retain at most N records in out/history.jsonl
///                      (default 512; 0 disables the ledger entirely)
///   --profile-sample-hz=N
///                      sample every thread's current span stack N times a
///                      second and merge the weighted aggregates into the
///                      trace and history record (0 = off, the default; the
///                      off path costs one relaxed load per span)
///   --explain TU[:pass] replay why each pass ran or slept for TU in
///                       the last recorded build (no build happens;
///                       with --daemon, answered by the daemon)
///
//===----------------------------------------------------------------------===//

#include "build_sys/Analyze.h"
#include "build_sys/BuildFacts.h"
#include "build_sys/BuildReport.h"
#include "build_sys/BuildSystem.h"
#include "build_sys/Daemon.h"
#include "build_sys/DaemonClient.h"
#include "build_sys/Explain.h"
#include "support/FaultyFileSystem.h"
#include "support/FileSystem.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"
#include "support/Trace.h"
#include "vm/VM.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace sc;

namespace {

/// Launches `scbuildd` (found next to this executable) detached, with
/// its stdio under <dir>/out/.daemon.log, then waits for the socket to
/// appear. Returns a connected client (disconnected on failure).
DaemonClient autoStartDaemon(const std::string &Dir, const std::string &Sock,
                             const BuildOptions &Options) {
  // Find scbuildd next to /proc/self/exe; fall back to PATH lookup.
  std::string Daemon = "scbuildd";
  char Self[4096];
  ssize_t N = ::readlink("/proc/self/exe", Self, sizeof(Self) - 1);
  if (N > 0) {
    Self[N] = '\0';
    std::string Exe(Self);
    size_t Slash = Exe.find_last_of('/');
    if (Slash != std::string::npos)
      Daemon = Exe.substr(0, Slash + 1) + "scbuildd";
  }

  std::vector<std::string> Args = {Daemon, Dir};
  Args.push_back(Options.Compiler.Opt == OptLevel::O0   ? "-O0"
                 : Options.Compiler.Opt == OptLevel::O1 ? "-O1"
                                                        : "-O2");
  if (Options.Compiler.Stateful.SkipMode == StatefulConfig::Mode::Stateless)
    Args.push_back("--stateless");
  else if (Options.Compiler.Stateful.SkipMode ==
           StatefulConfig::Mode::ExactSkip)
    Args.push_back("--exact");
  if (Options.Compiler.Stateful.ReuseFunctionCode)
    Args.push_back("--reuse");
  Args.push_back("-j");
  Args.push_back(std::to_string(Options.Jobs));

  const std::string LogDir = Dir + "/" + Options.OutDir;
  ::mkdir(LogDir.c_str(), 0755); // Best effort; scbuildd creates it too.
  const std::string LogPath = LogDir + "/.daemon.log";

  pid_t Pid = ::fork();
  if (Pid == 0) {
    ::setsid(); // Detach: outlive this scbuild and its terminal.
    int Log = ::open(LogPath.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (Log >= 0) {
      ::dup2(Log, 1);
      ::dup2(Log, 2);
      ::close(Log);
    }
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    ::execv(Argv[0], Argv.data());
    ::execvp("scbuildd", Argv.data());
    _exit(127);
  }
  if (Pid < 0)
    return DaemonClient::connect(Sock); // One last direct try.
  // The daemon runs in its own session; we never wait() on it — it is
  // reparented when this scbuild exits.
  for (int Tries = 0; Tries != 60; ++Tries) {
    DaemonClient C = DaemonClient::connect(Sock);
    if (C.connected())
      return C;
    ::usleep(50 * 1000);
  }
  return DaemonClient::connect(Sock);
}

} // namespace

int main(int argc, char **argv) {
  std::string Dir = ".";
  BuildOptions Options;
  Options.Compiler.Stateful.SkipMode =
      StatefulConfig::Mode::HeuristicSkip;
  // Default to every hardware thread; hardware_concurrency() may
  // return 0 on exotic platforms.
  Options.Jobs = std::max(1u, std::thread::hardware_concurrency());
  bool Clean = false, Run = false, Quiet = false;
  bool Daemon = false, DaemonAutoStart = false;
  bool DaemonStatus = false, DaemonShutdown = false;
  std::string TraceOut, ReportOut, ExplainQ, RemoteCache;
  std::string Command; // "analyze" | "daemon-top" | "" (build).
  std::string BuildIdText, AgainstIdText, TopText;
  std::string HistoryLimitText, SampleHzText, LockTimeoutText;
  bool AnalyzeJson = false, Watch = false;
  std::vector<int64_t> RunArgs;
  std::vector<std::string> FaultSpecs; // Hidden --inject-fault op:N.

  // Accepts --flag=VALUE or --flag VALUE. A matching flag with no
  // value is consumed too (ArgError set), so it reports "requires a
  // value" instead of falling through to "unknown option".
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
    std::fprintf(stderr, "scbuild: error: option '%s' requires a value\n",
                 Flag);
    ArgError = true;
    return true;
  };

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Run) {
      RunArgs.push_back(std::strtoll(Arg.c_str(), nullptr, 10));
      continue;
    }
    if (FlagValue(Arg, "--trace-out", I, TraceOut) ||
        FlagValue(Arg, "--report-json", I, ReportOut) ||
        FlagValue(Arg, "--explain", I, ExplainQ) ||
        FlagValue(Arg, "--remote-cache", I, RemoteCache) ||
        FlagValue(Arg, "--build", I, BuildIdText) ||
        FlagValue(Arg, "--against", I, AgainstIdText) ||
        FlagValue(Arg, "--top", I, TopText) ||
        FlagValue(Arg, "--history-limit", I, HistoryLimitText) ||
        FlagValue(Arg, "--profile-sample-hz", I, SampleHzText) ||
        // Hidden: shorten the advisory-lock wait (tests/repros).
        FlagValue(Arg, "--lock-timeout-ms", I, LockTimeoutText))
      continue;
    if (Arg == "-O0")
      Options.Compiler.Opt = OptLevel::O0;
    else if (Arg == "-O1")
      Options.Compiler.Opt = OptLevel::O1;
    else if (Arg == "-O2")
      Options.Compiler.Opt = OptLevel::O2;
    else if (Arg == "-j") {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "scbuild: error: option '-j' requires a value\n");
        return 1;
      }
      unsigned Jobs = 0;
      if (!parseDecimal(argv[++I], Jobs)) {
        std::fprintf(stderr,
                     "scbuild: error: option '-j' requires a positive "
                     "integer (got '%s')\n",
                     argv[I]);
        return 1;
      }
      // 0 would mean "no threads at all"; the nearest meaningful
      // request is a serial build.
      Options.Jobs = std::max(1u, Jobs);
    }
    else if (Arg == "--stateless")
      Options.Compiler.Stateful.SkipMode = StatefulConfig::Mode::Stateless;
    else if (Arg == "--exact")
      Options.Compiler.Stateful.SkipMode = StatefulConfig::Mode::ExactSkip;
    else if (Arg == "--reuse")
      Options.Compiler.Stateful.ReuseFunctionCode = true;
    else if (Arg == "--verify-deps")
      Options.VerifyDeps = true;
    else if (Arg == "--clean")
      Clean = true;
    else if (Arg == "--run")
      Run = true;
    else if (Arg == "--quiet")
      Quiet = true;
    else if (Arg == "--json")
      AnalyzeJson = true;
    else if (Arg == "--watch")
      Watch = true;
    else if (Arg == "--daemon")
      Daemon = true;
    else if (Arg == "--daemon=auto-start") {
      Daemon = true;
      DaemonAutoStart = true;
    } else if (Arg == "--daemon-status")
      DaemonStatus = true;
    else if (Arg == "--daemon-shutdown")
      DaemonShutdown = true;
    else if (Arg == "--inject-fault") {
      // Hidden: deterministic fault injection for repros/benchmarks —
      // torn:N | enospc:N | enospc*:N (sticky) | read:N | crash:N,
      // firing on the Nth matching filesystem operation.
      if (I + 1 >= argc) {
        std::fprintf(
            stderr,
            "scbuild: error: option '--inject-fault' requires a value\n");
        return 1;
      }
      FaultSpecs.push_back(argv[++I]);
    } else if (Arg == "--help" || Arg == "-h") {
      std::fprintf(stderr,
                   "usage: scbuild [dir] [-O0|-O1|-O2] [-j N] "
                   "[--stateless] [--exact] [--reuse]\n               "
                   "[--clean] [--quiet] [--verify-deps] "
                   "[--daemon[=auto-start]] "
                   "[--daemon-status] [--daemon-shutdown]\n               "
                   "[--trace-out=FILE] [--report-json=FILE] "
                   "[--remote-cache=SOCKET]\n               "
                   "[--history-limit=N] [--profile-sample-hz=N]\n"
                   "               [--explain TU[:pass]] [--run [args...]]\n"
                   "       scbuild analyze [dir] [--build=ID] [--against=ID] "
                   "[--top=N] [--json]\n"
                   "       scbuild daemon-top [dir] [--watch]\n");
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "scbuild: error: unknown option '%s'\n",
                   Arg.c_str());
      return 1;
    } else if (Command.empty() &&
               (Arg == "analyze" || Arg == "daemon-top")) {
      Command = Arg;
    } else {
      Dir = Arg;
    }
  }
  if (ArgError)
    return 1;

  auto ParseFlag = [](const std::string &Text, const char *Flag, auto &Out) {
    if (Text.empty() || parseDecimal(Text, Out))
      return true;
    std::fprintf(stderr,
                 "scbuild: error: option '%s' requires a non-negative "
                 "integer (got '%s')\n",
                 Flag, Text.c_str());
    return false;
  };
  uint64_t AnalyzeBuildId = 0, AnalyzeAgainstId = 0;
  unsigned AnalyzeTop = 5;
  if (!ParseFlag(BuildIdText, "--build", AnalyzeBuildId) ||
      !ParseFlag(AgainstIdText, "--against", AnalyzeAgainstId) ||
      !ParseFlag(TopText, "--top", AnalyzeTop) ||
      !ParseFlag(HistoryLimitText, "--history-limit", Options.HistoryLimit) ||
      !ParseFlag(SampleHzText, "--profile-sample-hz",
                 Options.ProfileSampleHz) ||
      !ParseFlag(LockTimeoutText, "--lock-timeout-ms", Options.LockTimeoutMs))
    return 1;

  //===--- analyze: offline report over the history ledger ----------------===//

  if (Command == "analyze") {
    RealFileSystem AnalyzeFS(Dir);
    AnalyzeOptions AOpt;
    AOpt.BuildId = AnalyzeBuildId;
    AOpt.AgainstId = AnalyzeAgainstId;
    AOpt.TopN = std::max(1u, AnalyzeTop);
    AOpt.Json = AnalyzeJson;
    AnalyzeResult AR =
        analyzeHistory(AnalyzeFS, Options.OutDir + "/history.jsonl", AOpt);
    if (!AR.OK) {
      std::fprintf(stderr, "scbuild: error: %s\n", AR.Error.c_str());
      return 1;
    }
    std::fputs(AR.Text.c_str(), stdout);
    return 0;
  }

  const bool Stateful =
      Options.Compiler.Stateful.SkipMode != StatefulConfig::Mode::Stateless;

  //===--- Daemon paths ---------------------------------------------------===//

  auto PrintOut = [](const std::string &T) {
    std::fwrite(T.data(), 1, T.size(), stdout);
  };
  auto PrintErr = [](const std::string &T) {
    std::fwrite(T.data(), 1, T.size(), stderr);
  };
  const std::string SockPath = daemonSocketPath(Dir, Options.OutDir);

  //===--- daemon-top: live service view over status + metrics verbs ------===//

  if (Command == "daemon-top") {
    for (;;) {
      std::string Status, MetricsText, Err;
      DaemonClient StatusConn = DaemonClient::connect(SockPath);
      if (!StatusConn.connected()) {
        std::fprintf(stderr, "scbuild: no daemon is serving '%s'\n",
                     SockPath.c_str());
        return 1;
      }
      DaemonRequest Req;
      Req.Verb = "status";
      if (StatusConn.roundTrip(
              Req, [&](const std::string &T) { Status += T; }, PrintErr,
              nullptr, &Err) < 0) {
        std::fprintf(stderr, "scbuild: error: daemon request failed: %s\n",
                     Err.c_str());
        return 1;
      }
      // One request per connection, so the metrics verb reconnects.
      DaemonClient MetricsConn = DaemonClient::connect(SockPath);
      Req.Verb = "metrics";
      if (!MetricsConn.connected() ||
          MetricsConn.roundTrip(
              Req, [&](const std::string &T) { MetricsText += T; }, PrintErr,
              nullptr, &Err) < 0) {
        std::fprintf(stderr, "scbuild: error: daemon request failed: %s\n",
                     Err.c_str());
        return 1;
      }
      const auto Samples = MetricsTextExporter::parse(MetricsText);
      auto Sample = [&](const std::string &Name) -> double {
        for (const auto &P : Samples)
          if (P.first == Name)
            return P.second;
        return 0.0;
      };
      auto FactSample = [&](auto Member) {
        const BuildFact F = buildFactOf(Member);
        return Sample(MetricsTextExporter::exportedName(
            F.metric(), F.Kind == FactKind::Counter));
      };
      auto Pct = [](double Part, double Whole) -> double {
        return Whole > 0.0 ? 100.0 * Part / Whole : 0.0;
      };
      const double Requests = Sample("scbuild_daemon_requests_served_total");
      const double Coalesced = Sample("scbuild_daemon_coalesced_total");
      const double Busy = Sample("scbuild_daemon_busy_rejections_total");
      const double Timeouts = Sample("scbuild_daemon_request_timeouts_total");
      const double Disc = Sample("scbuild_daemon_disconnects_total");
      const double RHits = FactSample(&BuildStats::RemoteHits);
      const double RMisses = FactSample(&BuildStats::RemoteMisses);
      const double Scans = FactSample(&BuildStats::InterfaceScans);
      const double ScanHits = FactSample(&BuildStats::ScanCacheHits);

      std::string Top;
      if (Watch)
        Top += "\x1b[H\x1b[2J"; // Home + clear, terminal-top style.
      Top += "scbuild daemon-top — " + SockPath + "\n";
      Top += Status;
      char Line[256];
      std::snprintf(Line, sizeof(Line),
                    "daemon-top: queue depth %.0f (high water %.0f), active "
                    "connections %.0f\n",
                    Sample("scbuild_daemon_queue_depth"),
                    Sample("scbuild_daemon_queue_high_water"),
                    Sample("scbuild_daemon_connections_active"));
      Top += Line;
      std::snprintf(Line, sizeof(Line),
                    "daemon-top: rates: coalesced %.1f%%, busy %.0f, "
                    "timeouts %.0f, disconnects %.0f (of %.0f requests)\n",
                    Pct(Coalesced, Requests), Busy, Timeouts, Disc, Requests);
      Top += Line;
      if (RHits + RMisses > 0) {
        std::snprintf(Line, sizeof(Line),
                      "daemon-top: remote cache: %.0f hits / %.0f misses "
                      "(%.1f%% hit ratio)\n",
                      RHits, RMisses, Pct(RHits, RHits + RMisses));
        Top += Line;
      }
      if (Scans + ScanHits > 0) {
        std::snprintf(Line, sizeof(Line),
                      "daemon-top: scan cache: %.0f hits / %.0f scans "
                      "(%.1f%% warm)\n",
                      ScanHits, Scans + ScanHits,
                      Pct(ScanHits, Scans + ScanHits));
        Top += Line;
      }
      PrintOut(Top);
      if (!Watch)
        return 0;
      ::usleep(1000 * 1000);
    }
  }

  if (DaemonStatus || DaemonShutdown) {
    DaemonClient Client = DaemonClient::connect(SockPath);
    if (!Client.connected()) {
      if (DaemonShutdown) {
        std::fprintf(stderr, "scbuild: no daemon is serving '%s' "
                             "(nothing to stop)\n",
                     SockPath.c_str());
        return 0;
      }
      std::fprintf(stderr, "scbuild: no daemon is serving '%s'\n",
                   SockPath.c_str());
      return 1;
    }
    DaemonRequest Req;
    Req.Verb = DaemonShutdown ? "shutdown" : "status";
    std::string Err;
    int Code = Client.roundTrip(Req, PrintOut, PrintErr, nullptr, &Err);
    if (Code < 0) {
      std::fprintf(stderr, "scbuild: error: daemon request failed: %s\n",
                   Err.c_str());
      return 1;
    }
    return Code;
  }

  if (Daemon) {
    // Per-process telemetry sinks cannot cross the socket; the daemon
    // has its own (scbuildd --trace-stream).
    if (!TraceOut.empty() || !ReportOut.empty() || !FaultSpecs.empty()) {
      std::fprintf(stderr,
                   "scbuild: error: --trace-out/--report-json/--inject-fault "
                   "cannot be combined with --daemon (the daemon process owns "
                   "those sinks; see scbuildd --trace-stream)\n");
      return 1;
    }
    // The verifier runs inside the building process and reports
    // through BuildStats, which does not cross the socket.
    if (Options.VerifyDeps) {
      std::fprintf(stderr,
                   "scbuild: error: --verify-deps cannot be combined with "
                   "--daemon (the verifier runs in the building process; "
                   "use an in-process build)\n");
      return 1;
    }
    // Likewise the remote-cache connection: the resident driver lives
    // in the daemon process, so the tier is configured there.
    if (!RemoteCache.empty()) {
      std::fprintf(stderr,
                   "scbuild: error: --remote-cache cannot be combined with "
                   "--daemon (configure the tier on the daemon: scbuildd "
                   "--remote-cache=SOCKET)\n");
      return 1;
    }
    DaemonClient Client = DaemonClient::connect(SockPath);
    if (!Client.connected() && DaemonAutoStart)
      Client = autoStartDaemon(Dir, SockPath, Options);
    if (Client.connected()) {
      DaemonRequest Req;
      if (!ExplainQ.empty()) {
        Req.Verb = "explain";
        Req.Query = ExplainQ;
      } else {
        Req.Verb = "build";
        Req.Clean = Clean;
        Req.Quiet = Quiet;
        Req.Run = Run;
        Req.RunArgs = RunArgs;
        Req.Opt = static_cast<int>(Options.Compiler.Opt);
        Req.Mode = static_cast<int>(Options.Compiler.Stateful.SkipMode);
        Req.Reuse = Options.Compiler.Stateful.ReuseFunctionCode;
        Req.Jobs = Options.Jobs;
      }
      // First attempt rides the connection we already have; on a busy
      // rejection or transport failure, requestWithRetry reconnects
      // with doubling backoff + jitter before we give up and fall back
      // in-process.
      std::string Err;
      DaemonFrame Exit;
      int Code = Client.roundTrip(Req, PrintOut, PrintErr, &Exit, &Err);
      if (Code < 0) {
        DaemonClient::RetryPolicy Policy;
        Policy.Attempts = 3;
        if (Code == DaemonClient::BusyRejected && Exit.RetryAfterMs)
          Policy.InitialBackoffMs = Exit.RetryAfterMs;
        Code = DaemonClient::requestWithRetry(SockPath, Req, PrintOut,
                                              PrintErr, Policy, &Exit, &Err);
      }
      if (Code >= 0)
        return Code;
      if (Code == DaemonClient::BusyRejected)
        std::fprintf(stderr,
                     "scbuild: warning: daemon busy (queue depth %u) after "
                     "retries; building in-process\n",
                     Exit.QueueDepth);
      else
        std::fprintf(stderr,
                     "scbuild: warning: daemon request failed (%s); "
                     "building in-process\n",
                     Err.c_str());
    }
    // No daemon (or it died mid-request, or it stayed overloaded):
    // transparent in-process fallback — same flags, same output, just
    // cold caches.
  }

  //===--- In-process build ----------------------------------------------===//

  RealFileSystem DiskFS(Dir);

  // --explain replays the recorded decision log; no build happens.
  if (!ExplainQ.empty()) {
    bool OK = false;
    std::string Text = explainQuery(DiskFS, Options.OutDir, ExplainQ, &OK);
    std::fprintf(OK ? stdout : stderr, "%s", Text.c_str());
    return OK ? 0 : 1;
  }

  // Telemetry sinks. Decision recording is on for every stateful
  // scbuild (it feeds --explain). The trace recorder also feeds the
  // history ledger's per-TU/per-pass aggregates, so it exists whenever
  // the ledger is on (the default) — a disabled ledger AND no
  // --trace-out skips even the pointer-registered ring work.
  Options.Compiler.RecordDecisions = Stateful;
  Options.RemoteCache = RemoteCache;
  std::unique_ptr<TraceRecorder> Trace;
  if (!TraceOut.empty() || Options.HistoryLimit) {
    Trace = std::make_unique<TraceRecorder>();
    Trace->setThreadName("build-main");
    Options.Compiler.Trace = Trace.get();
  }
  MetricsRegistry Metrics;
  Options.Compiler.Metrics = &Metrics;

  VirtualFileSystem *FS = &DiskFS;
  std::unique_ptr<FaultyFileSystem> Faulty;
  if (!FaultSpecs.empty()) {
    Faulty = std::make_unique<FaultyFileSystem>(DiskFS);
    for (const std::string &Spec : FaultSpecs)
      if (!Faulty->armSpec(Spec)) {
        std::fprintf(stderr,
                     "scbuild: error: bad --inject-fault spec '%s' "
                     "(want torn:N|enospc:N|enospc*:N|read:N|crash:N)\n",
                     Spec.c_str());
        return 1;
      }
    FS = Faulty.get();
  }

  BuildDriver Driver(*FS, Options);
  BuildStats Stats;
  try {
    if (Clean)
      Driver.clean();
    Stats = Driver.build();
  } catch (const CrashPoint &C) {
    // Simulated process death from --inject-fault crash:N. Exit
    // without any cleanup beyond unwinding, like the real thing.
    std::fprintf(stderr, "scbuild: simulated crash in %s\n", C.Op.c_str());
    return 3;
  }

  // Telemetry outputs are written for failed builds too — a failing
  // build is exactly when a timeline is most wanted. These are
  // user-facing host paths, independent of the project filesystem.
  auto WriteHostFile = [](const std::string &Path, const std::string &Text,
                          const char *What) {
    if (std::FILE *F = std::fopen(Path.c_str(), "wb")) {
      std::fwrite(Text.data(), 1, Text.size(), F);
      std::fclose(F);
      return true;
    }
    std::fprintf(stderr, "scbuild: warning: could not write %s '%s'\n", What,
                 Path.c_str());
    return false;
  };
  if (Trace && !TraceOut.empty())
    WriteHostFile(TraceOut, Trace->toChromeJson(), "trace");
  if (!ReportOut.empty())
    WriteHostFile(ReportOut, buildReportJson(Stats, &Metrics), "report");

  // One renderer shared with the daemon, so `scbuild` and `scbuild
  // --daemon` produce byte-identical output per stream.
  RenderedOutcome R = renderBuildOutcome(Stats, Stateful, Quiet);
  if (Stats.Success && Run) {
    VM Machine(*Driver.program());
    renderRunOutcome(R, Machine.run("main", RunArgs));
  }
  PrintErr(R.Err);
  PrintOut(R.Out);

  // Dependency-verifier verdict. Printed here (not in the shared
  // renderer) so `scbuild --daemon` output stays byte-identical; a
  // finding is its own failure mode with its own exit code.
  if (Options.VerifyDeps && Stats.Success) {
    for (const std::string &F : Stats.DepFindings)
      std::fprintf(stderr, "scbuild: %s\n", F.c_str());
    if (!Stats.DepFindings.empty()) {
      std::fprintf(stderr,
                   "scbuild: error: dependency verification failed: %u "
                   "missing, %u redundant (%u TUs checked)\n",
                   Stats.DepsMissing, Stats.DepsRedundant,
                   Stats.DepsTUsChecked);
      return 6;
    }
    if (!Quiet)
      std::fprintf(stderr, "scbuild: deps verified: %u TUs, 0 findings\n",
                   Stats.DepsTUsChecked);
  }
  return R.Code;
}
