//===- tools/sccached.cpp - Shared object-cache daemon ---------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// `sccached` — a content-addressed object-cache daemon shared by a
/// fleet of builders. One warm builder publishes every object it
/// compiles; every other machine's `scbuild --remote-cache=SOCKET`
/// then fetches verified objects instead of recompiling unchanged TUs.
/// Entries persist under the cache directory across daemon restarts.
///
///   sccached --socket=PATH [options]          serve
///   sccached --socket=PATH --stats [--json]   print a serving daemon's stats
///   sccached --socket=PATH --metrics          ... or its metrics
///   sccached --socket=PATH --shutdown         stop a serving daemon
///
/// The flags are the table in main(); `sccached --help` prints it.
///
//===----------------------------------------------------------------------===//

#include "cache_sys/CacheDaemon.h"
#include "cache_sys/RemoteCacheClient.h"
#include "support/CommandLine.h"
#include "support/FileSystem.h"

#include <cstdint>
#include <cstdio>
#include <string>

using namespace sc;

int main(int argc, char **argv) {
  std::string Socket, CacheDir, MetricsOut;
  uint64_t MaxBytes = 0;
  unsigned IdleMs = 0;
  bool Quiet = false, Stats = false, Shutdown = false;
  bool Json = false, Metrics = false;

  using Flag = CommandLineFlag;
  const CommandLine CL(
      "sccached", "sccached --socket=PATH [options]",
      {{"--socket=PATH", Flag::Value, "the daemon's Unix socket (required)",
        &Socket},
       {"--cache-dir=DIR", Flag::Value,
        "entry storage (default: <socket dir>/sccache)", &CacheDir},
       {"--max-bytes=N", Flag::Number,
        "LRU budget over stored payload bytes (default 0 = unlimited)",
        &MaxBytes},
       {"--idle-timeout-ms=N", Flag::Number,
        "exit after N ms without a request (0 = never)", &IdleMs},
       {"--metrics-out=FILE", Flag::Value,
        "rewrite FILE every second with the cache.* metrics (Prometheus "
        "text)",
        &MetricsOut},
       {"--quiet", Flag::Switch, "suppress lifecycle messages", &Quiet},
       {"--stats", Flag::Switch, "print a serving daemon's stats", &Stats},
       {"--json", Flag::Switch,
        "with --stats: JSON, carrying the registry under \"metrics\"",
        &Json},
       {"--metrics", Flag::Switch,
        "print a serving daemon's metrics (Prometheus text)", &Metrics},
       {"--shutdown", Flag::Switch, "stop a serving daemon", &Shutdown}});
  if (int Exit = CL.parse(argc, argv); Exit >= 0)
    return Exit;
  if (Socket.empty())
    return CL.error("--socket=PATH is required");

  //===--- Client modes ---------------------------------------------------===//

  if (Stats || Metrics || Shutdown) {
    std::string Err;
    std::unique_ptr<RemoteCacheClient> Client =
        RemoteCacheClient::connect(Socket, &Err);
    if (!Client) {
      if (Shutdown) {
        std::fprintf(stderr,
                     "sccached: no daemon is serving '%s' (nothing to stop)\n",
                     Socket.c_str());
        return 0;
      }
      std::fprintf(stderr, "sccached: no daemon is serving '%s'\n",
                   Socket.c_str());
      return 1;
    }
    if (Shutdown)
      return Client->shutdownServer() ? 0 : CL.error("shutdown request failed");
    if (Metrics) {
      std::string Text, MetricsJson;
      if (Client->metrics(Text, MetricsJson) !=
          RemoteCacheClient::Result::Hit)
        return CL.error("metrics request failed");
      std::fputs(Text.c_str(), stdout);
      return 0;
    }
    CacheStats CS;
    if (Client->stats(CS) != RemoteCacheClient::Result::Hit)
      return CL.error("stats request failed");
    if (Json) {
      // The same "metrics" key (and registry shape) as scbuildd
      // --report-json, so live and offline fleet views line up.
      std::string Text, MetricsJson;
      if (Client->metrics(Text, MetricsJson) !=
          RemoteCacheClient::Result::Hit)
        return CL.error("metrics request failed");
      std::string Doc = "{\"schema\":\"sccached-stats\",\"schema_version\":1";
      for (const CacheStatField &F : CacheStatFields)
        Doc += ",\"" + std::string(F.name()) +
               "\":" + std::to_string(CS.*F.Member);
      std::printf("%s,\"metrics\":%s}\n", Doc.c_str(), MetricsJson.c_str());
      return 0;
    }
    std::printf("sccached: %s\n", describeCacheStats(CS).c_str());
    return 0;
  }

  //===--- Serve ----------------------------------------------------------===//

  // The cache root lives on the real filesystem next to the socket by
  // default. RealFileSystem paths are relative to its root, so root
  // the VFS at the cache directory and store under "cache".
  if (CacheDir.empty()) {
    size_t Slash = Socket.find_last_of('/');
    CacheDir = (Slash == std::string::npos ? std::string(".")
                                           : Socket.substr(0, Slash)) +
               "/sccache";
  }
  RealFileSystem FS(CacheDir);

  CacheDaemonConfig Config;
  Config.SocketPath = Socket;
  Config.CacheRoot = "cache";
  Config.MaxBytes = MaxBytes;
  Config.IdleTimeoutMs = IdleMs;
  Config.MetricsOut = MetricsOut;
  Config.Quiet = Quiet;

  CacheDaemon Daemon(FS, Config);
  std::string Err;
  if (!Daemon.start(&Err))
    return CL.error("%s", Err.c_str());

  Service::stopOnSignals(Daemon);
  return Daemon.serve();
}
