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
/// The flags are the table in main(); `scbuild --help` prints it.
/// `--daemon` builds through the scbuildd serving <dir>/out and falls
/// back to an in-process build when none listens; the output is
/// byte-identical either way. `--remote-cache` degrades to a local
/// build with one warning when its daemon is dead or absent, never to
/// a failed build. `--verify-deps` findings print as `dep-missing:` /
/// `dep-redundant:` lines and exit 6.
///
//===----------------------------------------------------------------------===//

#include "build_sys/Analyze.h"
#include "build_sys/BuildFlags.h"
#include "build_sys/BuildFacts.h"
#include "build_sys/BuildReport.h"
#include "build_sys/BuildSystem.h"
#include "build_sys/Daemon.h"
#include "build_sys/DaemonClient.h"
#include "build_sys/Explain.h"
#include "support/CommandLine.h"
#include "support/FaultyFileSystem.h"
#include "support/FileSystem.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"
#include "support/Trace.h"
#include "vm/VM.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace sc;

namespace {

/// How long an auto-started daemon may sit without a request before it
/// exits and releases out/.lock: 3 h, Bazel's --max_idle_secs default.
constexpr unsigned AutoStartIdleTimeoutMs = 3 * 60 * 60 * 1000;

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
  for (std::string &A : buildConfigArgs(Options))
    Args.push_back(std::move(A));
  Args.push_back("--idle-timeout-ms=" +
                 std::to_string(AutoStartIdleTimeoutMs));

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
  BuildOptions Options;
  bool Clean = false, Quiet = false;
  bool Daemon = false, DaemonAutoStart = false;
  bool DaemonStatus = false, DaemonShutdown = false;
  std::string TraceOut, ReportOut, ExplainQ;
  uint64_t AnalyzeBuildId = 0, AnalyzeAgainstId = 0;
  unsigned AnalyzeTop = 5;
  bool AnalyzeJson = false, Watch = false;
  std::optional<std::vector<std::string>> RunText;
  std::vector<std::string> FaultSpecs;

  using Flag = CommandLineFlag;
  std::vector<Flag> Flags = buildConfigFlags(Options);
  Flags.insert(
      Flags.end(),
      {{"--clean", Flag::Switch, "drop artifacts and state before building",
        &Clean},
       {"--quiet", Flag::Switch, "suppress the build summary (not warnings)",
        &Quiet},
       {"--verify-deps", Flag::Switch,
        "cross-check each TU's reads against the import graph",
        &Options.VerifyDeps},
       {"--daemon", Flag::Switch,
        "build through the resident scbuildd (=auto-start: launch one)",
        &Daemon},
       {"--daemon=auto-start", Flag::Switch,
        "build through the resident scbuildd (=auto-start: launch one)",
        [&] { Daemon = DaemonAutoStart = true; }},
       {"--daemon-status", Flag::Switch,
        "print the serving daemon's status and exit", &DaemonStatus},
       {"--daemon-shutdown", Flag::Switch,
        "stop the serving daemon and exit", &DaemonShutdown},
       {"--trace-out=FILE", Flag::Value,
        "write a Chrome trace-event JSON of the build", &TraceOut},
       {"--report-json=FILE", Flag::Value,
        "write the versioned JSON build report", &ReportOut},
       {"--remote-cache=SOCKET", Flag::Value,
        "use the sccached daemon on SOCKET as a shared object cache",
        &Options.RemoteCache},
       {"--history-limit=N", Flag::Number,
        "keep at most N records in out/history.jsonl (default 512; 0 = off)",
        &Options.HistoryLimit},
       {"--explain TU[:pass]", Flag::Value,
        "replay why each pass ran or slept for TU in the last build",
        &ExplainQ},
       {"--build=ID", Flag::Number,
        "analyze: the build to report (default: the newest)",
        &AnalyzeBuildId},
       {"--against=ID", Flag::Number, "analyze: diff against this build",
        &AnalyzeAgainstId},
       {"--top=N", Flag::Number, "analyze: rows per table (default 5)",
        &AnalyzeTop},
       {"--json", Flag::Switch, "analyze: print JSON", &AnalyzeJson},
       {"--watch", Flag::Switch, "daemon-top: redraw every second", &Watch},
       // Hidden: shorten the advisory-lock wait (tests/repros).
       {"--lock-timeout-ms=N", Flag::Number, "", &Options.LockTimeoutMs},
       // Hidden: deterministic fault injection for repros/benchmarks —
       // torn:N | enospc:N | enospc*:N (sticky) | read:N | crash:N,
       // firing on the Nth matching filesystem operation.
       {"--inject-fault SPEC", Flag::Value, "", &FaultSpecs},
       {"--run [args...]", Flag::Rest,
        "execute main() after a successful build, with integer arguments",
        &RunText}});
  const CommandLine CL("scbuild",
                       "scbuild [dir] [options]\n"
                       "       scbuild analyze|daemon-top [dir] [options]",
                       std::move(Flags));
  std::vector<std::string> Positionals;
  if (int Exit = CL.parse(argc, argv, &Positionals); Exit >= 0)
    return Exit;
  std::string Dir = ".";
  std::string Command; // "analyze" | "daemon-top" | "" (build).
  for (const std::string &P : Positionals) {
    if (Command.empty() && (P == "analyze" || P == "daemon-top"))
      Command = P;
    else
      Dir = P;
  }
  const bool Run = RunText.has_value();
  std::vector<int64_t> RunArgs;
  for (const std::string &A : RunText.value_or(std::vector<std::string>()))
    if (!parseDecimal(A, RunArgs.emplace_back()))
      return CL.error("--run argument '%s' is not an integer", A.c_str());

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
    if (!AR.OK)
      return CL.error("%s", AR.Error.c_str());
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
              nullptr, &Err) < 0)
        return CL.error("daemon request failed: %s", Err.c_str());
      // One request per connection, so the metrics verb reconnects.
      DaemonClient MetricsConn = DaemonClient::connect(SockPath);
      Req.Verb = "metrics";
      if (!MetricsConn.connected() ||
          MetricsConn.roundTrip(
              Req, [&](const std::string &T) { MetricsText += T; }, PrintErr,
              nullptr, &Err) < 0)
        return CL.error("daemon request failed: %s", Err.c_str());
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
    return Code < 0 ? CL.error("daemon request failed: %s", Err.c_str())
                    : Code;
  }

  if (Daemon) {
    // Per-process telemetry sinks cannot cross the socket; the daemon
    // has its own (scbuildd --trace-stream).
    if (!TraceOut.empty() || !ReportOut.empty() || !FaultSpecs.empty())
      return CL.error("--trace-out/--report-json/--inject-fault cannot be "
                      "combined with --daemon (the daemon process owns those "
                      "sinks; see scbuildd --trace-stream)");
    // The verifier runs inside the building process and reports
    // through BuildStats, which does not cross the socket.
    if (Options.VerifyDeps)
      return CL.error("--verify-deps cannot be combined with --daemon (the "
                      "verifier runs in the building process; use an "
                      "in-process build)");
    // Likewise the remote-cache connection: the resident driver lives
    // in the daemon process, so the tier is configured there.
    if (!Options.RemoteCache.empty())
      return CL.error("--remote-cache cannot be combined with --daemon "
                      "(configure the tier on the daemon: scbuildd "
                      "--remote-cache=SOCKET)");
    DaemonClient Client = DaemonClient::connect(SockPath);
    if (!Client.connected() && DaemonAutoStart)
      Client = autoStartDaemon(Dir, SockPath, Options);
    if (Client.connected()) {
      DaemonRequest Req = makeBuildRequest(Options);
      if (!ExplainQ.empty()) {
        Req.Verb = "explain";
        Req.Query = ExplainQ;
      } else {
        Req.Clean = Clean;
        Req.Quiet = Quiet;
        Req.Run = Run;
        Req.RunArgs = RunArgs;
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
      if (!Faulty->armSpec(Spec))
        return CL.error("bad --inject-fault spec '%s' "
                        "(want torn:N|enospc:N|enospc*:N|read:N|crash:N)",
                        Spec.c_str());
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
  // build is exactly when a timeline is most wanted.
  if (Trace && !TraceOut.empty())
    writeHostFile(TraceOut, Trace->toChromeJson(), "scbuild", "trace");
  if (!ReportOut.empty())
    writeHostFile(ReportOut, buildReportJson(Stats, &Metrics), "scbuild",
                  "report");

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
