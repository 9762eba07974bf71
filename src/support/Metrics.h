//===- support/Metrics.h - Typed counter/gauge registry ---------*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small typed metrics registry: named monotonic counters and
/// last/max gauges, created on first use and safe to update from any
/// thread. The build driver dumps the registry into the JSON build
/// report (see build_sys/BuildReport.h and docs/OBSERVABILITY.md);
/// benches and tests read individual metrics back by name.
///
/// Like TraceRecorder, every producer holds a `MetricsRegistry *` that
/// defaults to null, so unobserved builds pay one pointer test per
/// would-be update. Metric objects live as long as the registry and
/// are never removed, so call sites may cache `Counter *` / `Gauge *`
/// across updates.
///
//===----------------------------------------------------------------------===//

#ifndef SC_SUPPORT_METRICS_H
#define SC_SUPPORT_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sc {

/// Monotonic event counter.
class Counter {
public:
  void add(uint64_t Delta = 1) { V.fetch_add(Delta, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// Point-in-time measurement; set() overwrites, max() keeps the peak.
class Gauge {
public:
  void set(double X) { V.store(X, std::memory_order_relaxed); }

  /// Raises the gauge to \p X if it exceeds the current value.
  void max(double X) {
    double Cur = V.load(std::memory_order_relaxed);
    while (X > Cur &&
           !V.compare_exchange_weak(Cur, X, std::memory_order_relaxed))
      ;
  }

  double value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<double> V{0.0};
};

/// Thread-safe name -> metric registry. Creation takes a lock; updates
/// on the returned objects are lock-free.
class MetricsRegistry {
public:
  /// Returns the counter named \p Name, creating it on first use.
  Counter &counter(const std::string &Name);

  /// Returns the gauge named \p Name, creating it on first use.
  Gauge &gauge(const std::string &Name);

  /// Snapshot of all metrics, sorted by name.
  std::vector<std::pair<std::string, uint64_t>> counters() const;
  std::vector<std::pair<std::string, double>> gauges() const;

  /// The registry as one JSON object, written by support/FlatJson.h:
  ///   {"counters":{...},"gauges":{...}}
  /// Keys are sorted so output is deterministic, and a gauge reads as
  /// in the Prometheus text and the ledger.
  std::string toJson() const;

private:
  mutable std::mutex Mu;
  // Node-based maps: references stay valid as the maps grow.
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
};

/// Renders a MetricsRegistry in the Prometheus text exposition format
/// (version 0.0.4), the lingua franca of fleet scrapers. Both daemons
/// serve it over their `metrics` verbs and dump it with
/// `--metrics-out`; `scbuild daemon-top` parses it back. The exporter
/// is stateless — all functions are pure so live (socket) and offline
/// (--report-json) views render identically from the same registry.
///
/// Name mapping (documented in docs/OBSERVABILITY.md): every internal
/// dotted name gains the `scbuild_` prefix, dots become underscores,
/// counters gain the conventional `_total` suffix:
///   build.remote_hits  -> scbuild_build_remote_hits_total   (counter)
///   daemon.queue_depth -> scbuild_daemon_queue_depth        (gauge)
class MetricsTextExporter {
public:
  /// The exported (Prometheus) name for internal metric \p Name.
  /// Characters outside [a-zA-Z0-9_] become '_'.
  static std::string exportedName(const std::string &Name, bool IsCounter);

  /// The whole registry as Prometheus text exposition: one `# TYPE`
  /// line per metric, counters first, each group sorted by name, and a
  /// trailing newline. Deterministic for a given snapshot.
  static std::string render(const MetricsRegistry &R);

  /// Parses text produced by render() (or any simple Prometheus
  /// exposition) back into name -> value samples, skipping comment
  /// lines and anything it cannot parse. Used by `scbuild daemon-top`.
  static std::vector<std::pair<std::string, double>>
  parse(const std::string &Text);
};

} // namespace sc

#endif // SC_SUPPORT_METRICS_H
