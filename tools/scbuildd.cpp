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
/// The flags are the table in main(); `scbuildd --help` prints it.
///
/// Configuration is fixed at startup: a `scbuild --daemon` request with
/// different -O/--stateless/--exact/--reuse flags is rejected (restart
/// the daemon with the flags you want). -j may differ per request —
/// concurrency never changes build outputs.
///
//===----------------------------------------------------------------------===//

#include "build_sys/BuildFlags.h"
#include "build_sys/BuildReport.h"
#include "build_sys/Daemon.h"
#include "support/FileSystem.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

using namespace sc;

int main(int argc, char **argv) {
  DaemonConfig Config;
  std::string TraceStream, ReportOut;

  using Flag = CommandLineFlag;
  std::vector<Flag> Flags = buildConfigFlags(Config.Build);
  Flags.insert(
      Flags.end(),
      {{"--idle-timeout-ms=N", Flag::Number,
        "exit after N ms without a request (0 = never)",
        &Config.IdleTimeoutMs},
       {"--max-queue=N", Flag::Number,
        "answer build requests with a `busy` frame once N are queued "
        "(default 16)",
        &Config.MaxQueue},
       {"--request-timeout-ms=N", Flag::Number,
        "cancel build requests still queued after N ms (0 = wait forever)",
        &Config.RequestTimeoutMs},
       // Hidden: a fixed per-build service-time floor, so tests and the
       // smoke script can form queues deterministically.
       {"--hold-ms=N", Flag::Number, "", &Config.HoldMs},
       {"--trace-stream=FILE", Flag::Value,
        "stream Chrome trace events to FILE, flushed after every request",
        &TraceStream},
       {"--report-json=FILE", Flag::Value,
        "on exit, write the last build's JSON report with the daemon.* "
        "counters",
        &ReportOut},
       {"--metrics-out=FILE", Flag::Value,
        "rewrite FILE every second (and on exit) with the metrics "
        "(Prometheus text)",
        &Config.MetricsOut},
       {"--remote-cache=SOCKET", Flag::Value,
        "use the sccached daemon on SOCKET as a remote object-cache tier",
        &Config.Build.RemoteCache},
       {"--quiet", Flag::Switch, "suppress lifecycle messages",
        &Config.Quiet}});
  const CommandLine CL("scbuildd", "scbuildd [dir] [options]",
                       std::move(Flags));
  std::vector<std::string> Positionals;
  if (int Exit = CL.parse(argc, argv, &Positionals); Exit >= 0)
    return Exit;
  const std::string Dir = Positionals.empty() ? "." : Positionals.back();

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
    if (!Sink->ok())
      return CL.error("could not open trace stream '%s'",
                      TraceStream.c_str());
    Trace->setSink(Sink.get());
  }
  Config.Build.Compiler.Trace = Trace.get();

  BuildDaemon Daemon(FS, Config);
  std::string Err;
  if (!Daemon.start(&Err))
    return CL.error("%s", Err.c_str());

  // SIGTERM/SIGINT take the exact same drain as the `shutdown` verb
  // (finish in-flight, cancel queued with clean frames, join threads,
  // flush traces, unlink the socket, release the lock).
  Service::stopOnSignals(Daemon);
  int Code = Daemon.serve();

  if (Trace)
    Trace->flush();
  if (Sink)
    Sink->close(); // Seal the stream into strictly valid JSON.
  // The report carries the last build's stats plus the full metrics
  // registry dump, the daemon.* service counters included.
  if (!ReportOut.empty())
    writeHostFile(ReportOut, buildReportJson(Daemon.lastBuildStats(), &Metrics),
                  "scbuildd", "report");
  return Code;
}
