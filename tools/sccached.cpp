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
///   sccached --socket=PATH --stats            print a serving daemon's stats
///   sccached --socket=PATH --stats --json     the same as JSON, carrying the
///                                             registry under the "metrics"
///                                             key (the shape scbuildd
///                                             --report-json uses)
///   sccached --socket=PATH --metrics          print the daemon's metrics in
///                                             Prometheus text exposition
///   sccached --socket=PATH --shutdown         stop a serving daemon
///
/// Options (serve mode):
///   --cache-dir=DIR      entry storage (default: `<socket dir>/sccache`)
///   --max-bytes=N        LRU budget over stored payload bytes
///                        (default 0 = unlimited); at the budget the
///                        least-recently-used entries are evicted
///   --idle-timeout-ms=N  exit after N ms without a request (0 = never)
///   --metrics-out=FILE   every second (and on exit) rewrite FILE atomically
///                        with the cache.* metrics in Prometheus text
///                        exposition format
///   --quiet              suppress lifecycle messages
///
//===----------------------------------------------------------------------===//

#include "cache_sys/CacheDaemon.h"
#include "cache_sys/RemoteCacheClient.h"
#include "support/FileSystem.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace sc;

namespace {
bool parseU64(const char *Text, uint64_t &Out) {
  if (!*Text)
    return false;
  uint64_t V = 0;
  for (const char *P = Text; *P; ++P) {
    if (*P < '0' || *P > '9')
      return false;
    uint64_t Next = V * 10 + static_cast<uint64_t>(*P - '0');
    if (Next < V)
      return false; // Overflow.
    V = Next;
  }
  Out = V;
  return true;
}
} // namespace

int main(int argc, char **argv) {
  std::string Socket, CacheDir, MetricsOut;
  uint64_t MaxBytes = 0, IdleMs = 0;
  bool Quiet = false, Stats = false, Shutdown = false;
  bool Json = false, Metrics = false;

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
    std::fprintf(stderr, "sccached: error: option '%s' requires a value\n",
                 Flag);
    ArgError = true;
    return true;
  };

  std::string MaxBytesText, IdleText;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (FlagValue(Arg, "--socket", I, Socket) ||
        FlagValue(Arg, "--cache-dir", I, CacheDir) ||
        FlagValue(Arg, "--max-bytes", I, MaxBytesText) ||
        FlagValue(Arg, "--metrics-out", I, MetricsOut) ||
        FlagValue(Arg, "--idle-timeout-ms", I, IdleText))
      continue;
    if (Arg == "--quiet")
      Quiet = true;
    else if (Arg == "--stats")
      Stats = true;
    else if (Arg == "--json")
      Json = true;
    else if (Arg == "--metrics")
      Metrics = true;
    else if (Arg == "--shutdown")
      Shutdown = true;
    else if (Arg == "--help" || Arg == "-h") {
      std::fprintf(stderr,
                   "usage: sccached --socket=PATH [--cache-dir=DIR] "
                   "[--max-bytes=N]\n                [--idle-timeout-ms=N] "
                   "[--metrics-out=FILE] [--quiet]\n"
                   "                [--stats [--json]] [--metrics] "
                   "[--shutdown]\n");
      return 0;
    } else {
      std::fprintf(stderr, "sccached: error: unknown option '%s'\n",
                   Arg.c_str());
      return 1;
    }
  }
  if (ArgError)
    return 1;
  if (Socket.empty()) {
    std::fprintf(stderr, "sccached: error: --socket=PATH is required\n");
    return 1;
  }
  if (!MaxBytesText.empty() && !parseU64(MaxBytesText.c_str(), MaxBytes)) {
    std::fprintf(stderr,
                 "sccached: error: option '--max-bytes' requires a "
                 "non-negative integer (got '%s')\n",
                 MaxBytesText.c_str());
    return 1;
  }
  if (!IdleText.empty() && !parseU64(IdleText.c_str(), IdleMs)) {
    std::fprintf(stderr,
                 "sccached: error: option '--idle-timeout-ms' requires a "
                 "non-negative integer (got '%s')\n",
                 IdleText.c_str());
    return 1;
  }

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
    if (Shutdown) {
      if (!Client->shutdownServer()) {
        std::fprintf(stderr, "sccached: error: shutdown request failed\n");
        return 1;
      }
      return 0;
    }
    if (Metrics) {
      std::string Text, MetricsJson;
      if (Client->metrics(Text, MetricsJson) !=
          RemoteCacheClient::Result::Hit) {
        std::fprintf(stderr, "sccached: error: metrics request failed\n");
        return 1;
      }
      std::fputs(Text.c_str(), stdout);
      return 0;
    }
    CacheStats CS;
    if (Client->stats(CS) != RemoteCacheClient::Result::Hit) {
      std::fprintf(stderr, "sccached: error: stats request failed\n");
      return 1;
    }
    if (Json) {
      // The same "metrics" key (and registry shape) as scbuildd
      // --report-json, so live and offline fleet views line up.
      std::string Text, MetricsJson;
      if (Client->metrics(Text, MetricsJson) !=
          RemoteCacheClient::Result::Hit) {
        std::fprintf(stderr, "sccached: error: metrics request failed\n");
        return 1;
      }
      std::printf("{\n  \"schema\": \"sccached-stats\",\n"
                  "  \"schema_version\": 1,\n"
                  "  \"entries\": %llu,\n  \"bytes_stored\": %llu,\n"
                  "  \"max_bytes\": %llu,\n  \"gets\": %llu,\n"
                  "  \"hits\": %llu,\n  \"misses\": %llu,\n"
                  "  \"puts\": %llu,\n  \"touches\": %llu,\n"
                  "  \"evictions\": %llu,\n  \"corrupt_dropped\": %llu,\n"
                  "  \"metrics\": %s\n}\n",
                  static_cast<unsigned long long>(CS.Entries),
                  static_cast<unsigned long long>(CS.BytesStored),
                  static_cast<unsigned long long>(CS.MaxBytes),
                  static_cast<unsigned long long>(CS.Gets),
                  static_cast<unsigned long long>(CS.Hits),
                  static_cast<unsigned long long>(CS.Misses),
                  static_cast<unsigned long long>(CS.Puts),
                  static_cast<unsigned long long>(CS.Touches),
                  static_cast<unsigned long long>(CS.Evictions),
                  static_cast<unsigned long long>(CS.CorruptDropped),
                  MetricsJson.c_str());
      return 0;
    }
    std::printf("sccached: entries %llu, bytes %llu (budget %llu)\n"
                "sccached: gets %llu (hits %llu, misses %llu), puts %llu, "
                "touches %llu\n"
                "sccached: evictions %llu, corrupt dropped %llu\n",
                static_cast<unsigned long long>(CS.Entries),
                static_cast<unsigned long long>(CS.BytesStored),
                static_cast<unsigned long long>(CS.MaxBytes),
                static_cast<unsigned long long>(CS.Gets),
                static_cast<unsigned long long>(CS.Hits),
                static_cast<unsigned long long>(CS.Misses),
                static_cast<unsigned long long>(CS.Puts),
                static_cast<unsigned long long>(CS.Touches),
                static_cast<unsigned long long>(CS.Evictions),
                static_cast<unsigned long long>(CS.CorruptDropped));
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
  Config.IdleTimeoutMs = static_cast<unsigned>(IdleMs);
  Config.MetricsOut = MetricsOut;
  Config.Quiet = Quiet;

  CacheDaemon Daemon(FS, Config);
  std::string Err;
  if (!Daemon.start(&Err)) {
    std::fprintf(stderr, "sccached: error: %s\n", Err.c_str());
    return 1;
  }

  Service::stopOnSignals(Daemon);
  return Daemon.serve();
}
