//===- tools/scbuildd.cpp - Resident build daemon --------------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// `scbuildd` — park one BuildDriver behind `<dir>/out/.daemon.sock`
/// and serve `scbuild --daemon` clients until told to stop. The scan
/// cache, parsed-object cache, and compiler state stay warm between
/// requests, so the second build of an unchanged tree re-scans and
/// re-parses nothing.
///
///   scbuildd [dir] [options]
///
/// Options:
///   -O0|-O1|-O2           optimization level (default -O2)
///   -j <N>                build concurrency (default: all hardware threads)
///   --stateless           baseline compiler (default: stateful)
///   --exact               ExactSkip policy
///   --reuse               function-level code reuse
///   --idle-timeout-ms=N   exit after N ms without a request (0 = never)
///   --max-queue=N         admission control: reject build requests with a
///                         structured `busy` frame once N builds are already
///                         queued (default 16)
///   --request-timeout-ms=N
///                         cancel build requests still queued after N ms
///                         with a clean error frame (0 = wait forever)
///   --report-json=FILE    on exit, write the versioned JSON build report of
///                         the last build, including the daemon.* service
///                         counters from the metrics registry
///   --metrics-out=FILE    every second (and on exit) rewrite FILE atomically
///                         with the metrics registry in Prometheus text
///                         exposition format — a scrape file for collectors
///                         that cannot speak the socket protocol; the same
///                         text is served live by the `metrics` verb
///   --remote-cache=SOCKET use the sccached daemon on Unix socket SOCKET
///                         as a shared remote object-cache tier (see
///                         scbuild --remote-cache; same degrade-to-local
///                         failure semantics)
///   --trace-stream=FILE   stream Chrome trace events to FILE as they
///                         happen (flushed after every request; the file
///                         is loadable in Perfetto even mid-run)
///   --quiet               suppress lifecycle messages
///
/// Configuration is fixed at startup: a `scbuild --daemon` request with
/// different -O/--stateless/--exact/--reuse flags is rejected (restart
/// the daemon with the flags you want). -j may differ per request —
/// concurrency never changes build outputs.
///
//===----------------------------------------------------------------------===//

#include "build_sys/BuildReport.h"
#include "build_sys/Daemon.h"
#include "support/FileSystem.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include <unistd.h>

using namespace sc;

namespace {
bool parseUnsigned(const char *Text, unsigned &Out) {
  if (!*Text)
    return false;
  unsigned long V = 0;
  for (const char *P = Text; *P; ++P) {
    if (*P < '0' || *P > '9')
      return false;
    V = V * 10 + static_cast<unsigned long>(*P - '0');
    if (V > 0xffffffffUL)
      return false;
  }
  Out = static_cast<unsigned>(V);
  return true;
}
} // namespace

int main(int argc, char **argv) {
  std::string Dir = ".";
  DaemonConfig Config;
  Config.Build.Compiler.Stateful.SkipMode = StatefulConfig::Mode::HeuristicSkip;
  Config.Build.Jobs = std::max(1u, std::thread::hardware_concurrency());
  std::string TraceStream;

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
    std::fprintf(stderr, "scbuildd: error: option '%s' requires a value\n",
                 Flag);
    ArgError = true;
    return true;
  };

  std::string IdleText, MaxQueueText, ReqTimeoutText, HoldText, ReportOut;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (FlagValue(Arg, "--trace-stream", I, TraceStream) ||
        FlagValue(Arg, "--idle-timeout-ms", I, IdleText) ||
        FlagValue(Arg, "--max-queue", I, MaxQueueText) ||
        FlagValue(Arg, "--request-timeout-ms", I, ReqTimeoutText) ||
        // Hidden: injects a fixed per-build service-time floor so tests
        // and the smoke script can form queues deterministically.
        FlagValue(Arg, "--hold-ms", I, HoldText) ||
        FlagValue(Arg, "--report-json", I, ReportOut) ||
        FlagValue(Arg, "--metrics-out", I, Config.MetricsOut) ||
        FlagValue(Arg, "--remote-cache", I, Config.Build.RemoteCache))
      continue;
    if (Arg == "-O0")
      Config.Build.Compiler.Opt = OptLevel::O0;
    else if (Arg == "-O1")
      Config.Build.Compiler.Opt = OptLevel::O1;
    else if (Arg == "-O2")
      Config.Build.Compiler.Opt = OptLevel::O2;
    else if (Arg == "-j") {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "scbuildd: error: option '-j' requires a value\n");
        return 1;
      }
      unsigned Jobs = 0;
      if (!parseUnsigned(argv[++I], Jobs)) {
        std::fprintf(stderr,
                     "scbuildd: error: option '-j' requires a positive "
                     "integer (got '%s')\n",
                     argv[I]);
        return 1;
      }
      Config.Build.Jobs = std::max(1u, Jobs);
    } else if (Arg == "--stateless")
      Config.Build.Compiler.Stateful.SkipMode = StatefulConfig::Mode::Stateless;
    else if (Arg == "--exact")
      Config.Build.Compiler.Stateful.SkipMode = StatefulConfig::Mode::ExactSkip;
    else if (Arg == "--reuse")
      Config.Build.Compiler.Stateful.ReuseFunctionCode = true;
    else if (Arg == "--quiet")
      Config.Quiet = true;
    else if (Arg == "--help" || Arg == "-h") {
      std::fprintf(stderr,
                   "usage: scbuildd [dir] [-O0|-O1|-O2] [-j N] [--stateless] "
                   "[--exact] [--reuse]\n                "
                   "[--idle-timeout-ms=N] [--max-queue=N] "
                   "[--request-timeout-ms=N]\n                "
                   "[--trace-stream=FILE] [--report-json=FILE] "
                   "[--metrics-out=FILE]\n                "
                   "[--remote-cache=SOCKET] [--quiet]\n");
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "scbuildd: error: unknown option '%s'\n",
                   Arg.c_str());
      return 1;
    } else {
      Dir = Arg;
    }
  }
  if (ArgError)
    return 1;
  auto ParseMsFlag = [](const std::string &Text, const char *Flag,
                        unsigned &Out) {
    if (Text.empty())
      return true;
    if (parseUnsigned(Text.c_str(), Out))
      return true;
    std::fprintf(stderr,
                 "scbuildd: error: option '%s' requires a "
                 "non-negative integer (got '%s')\n",
                 Flag, Text.c_str());
    return false;
  };
  if (!ParseMsFlag(IdleText, "--idle-timeout-ms", Config.IdleTimeoutMs) ||
      !ParseMsFlag(MaxQueueText, "--max-queue", Config.MaxQueue) ||
      !ParseMsFlag(ReqTimeoutText, "--request-timeout-ms",
                   Config.RequestTimeoutMs) ||
      !ParseMsFlag(HoldText, "--hold-ms", Config.HoldMs))
    return 1;

  RealFileSystem FS(Dir);

  // Decision recording feeds `scbuild --daemon --explain`.
  Config.Build.Compiler.RecordDecisions =
      Config.Build.Compiler.Stateful.SkipMode != StatefulConfig::Mode::Stateless;
  MetricsRegistry Metrics;
  Config.Build.Compiler.Metrics = &Metrics;

  // The recorder always exists: its span aggregates feed each build's
  // history-ledger record. A sink is attached only under
  // --trace-stream; without one the daemon clears the rings after each
  // build instead of streaming them.
  std::unique_ptr<TraceRecorder> Trace = std::make_unique<TraceRecorder>();
  Trace->setThreadName("daemon-main");
  std::unique_ptr<FileTraceSink> Sink;
  if (!TraceStream.empty()) {
    Sink = std::make_unique<FileTraceSink>(TraceStream);
    if (!Sink->ok()) {
      std::fprintf(stderr, "scbuildd: error: could not open trace stream '%s'\n",
                   TraceStream.c_str());
      return 1;
    }
    Trace->setSink(Sink.get());
  }
  Config.Build.Compiler.Trace = Trace.get();

  BuildDaemon Daemon(FS, Config);
  std::string Err;
  if (!Daemon.start(&Err)) {
    std::fprintf(stderr, "scbuildd: error: %s\n", Err.c_str());
    return 1;
  }

  // SIGTERM/SIGINT take the exact same drain as the `shutdown` verb
  // (finish in-flight, cancel queued with clean frames, join threads,
  // flush traces, unlink the socket, release the lock).
  Service::stopOnSignals(Daemon);
  int Code = Daemon.serve();

  if (Trace)
    Trace->flush();
  if (Sink)
    Sink->close(); // Seal the stream into strictly valid JSON.
  if (!ReportOut.empty()) {
    // The report carries the last build's stats plus the full metrics
    // registry dump — including the daemon.* service counters.
    const std::string Json = buildReportJson(Daemon.lastBuildStats(), &Metrics);
    if (std::FILE *F = std::fopen(ReportOut.c_str(), "wb")) {
      std::fwrite(Json.data(), 1, Json.size(), F);
      std::fclose(F);
    } else {
      std::fprintf(stderr, "scbuildd: warning: could not write report '%s'\n",
                   ReportOut.c_str());
    }
  }
  return Code;
}
