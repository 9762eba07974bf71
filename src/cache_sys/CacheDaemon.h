//===- cache_sys/CacheDaemon.h - Shared object-cache daemon -----*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The server side of `sccached`: a Service answering the CacheProtocol
/// get/put/touch/stats/metrics/shutdown verbs over a CacheStore.
/// Unlike the build daemon, this is a plain concurrent key-value
/// service: connections are persistent (one per build), and the store's
/// internal lock is the only serialization point. A connection parked
/// between requests does not hold the idle clock. The accept loop, connection cap, I/O
/// deadlines and drain are support/Service's (docs/BUILD_SYSTEM.md).
///
//===----------------------------------------------------------------------===//

#ifndef SC_CACHE_SYS_CACHEDAEMON_H
#define SC_CACHE_SYS_CACHEDAEMON_H

#include "cache_sys/CacheStore.h"
#include "support/Metrics.h"
#include "support/Service.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

namespace sc {

struct CacheDaemonConfig {
  std::string SocketPath;      ///< Host path to bind.
  std::string CacheRoot = "cache"; ///< Entry root inside the store FS.
  uint64_t MaxBytes = 0;       ///< LRU budget; 0 = unlimited.
  unsigned IdleTimeoutMs = 0;  ///< Exit after this much quiet; 0 = never.
  /// When non-empty: host path receiving the Prometheus text rendering
  /// of the cache.* metrics (Service::MetricsIntervalMs).
  std::string MetricsOut;
  bool Quiet = false;          ///< Suppress stderr chatter.
};

class CacheDaemon : public Service {
public:
  /// \p FS backs the store (RealFileSystem in production; tests may
  /// pass an in-memory one).
  CacheDaemon(VirtualFileSystem &FS, CacheDaemonConfig Config);
  ~CacheDaemon() override;

  /// Binds the socket and indexes the cache root. False (with \p Err)
  /// when another live sccached owns the socket.
  bool start(std::string *Err);

  /// Accept loop; returns the process exit code. Blocks until
  /// requestStop(), a client `shutdown`, or idle timeout.
  int serve();

  const CacheStore &store() const { return *Store; }

  /// The daemon's cache.* metrics registry (tests; refreshed from the
  /// store by publishMetrics before every render).
  const MetricsRegistry &metricsRegistry() const { return Metrics; }

private:
  /// One connection's request loop (runs on its own thread).
  void serveConnection(UnixSocket &Conn) override;
  /// Answers one request; false when the connection must close.
  bool serveRequest(UnixSocket &Conn, const std::string &Header);
  /// Answers one batched get or touch (CacheProtocol.h).
  bool serveLookup(UnixSocket &Conn, const CacheRequest &Req);
  /// Mirrors the store's lifetime totals into the registry as cache.*
  /// counters/gauges (delta-published so counters stay monotonic).
  void publishMetrics();
  /// Prometheus text of the registry, refreshed at render time.
  std::string metricsText() override;

  VirtualFileSystem &FS;
  CacheDaemonConfig Config;
  std::unique_ptr<CacheStore> Store;

  /// cache.* metrics, rendered by the `metrics` verb and --metrics-out.
  /// MetricsMu serializes delta publication (connection threads race);
  /// LastPublished holds the totals already folded into the counters.
  MetricsRegistry Metrics;
  std::mutex MetricsMu;
  CacheStats LastPublished;
};

} // namespace sc

#endif // SC_CACHE_SYS_CACHEDAEMON_H
