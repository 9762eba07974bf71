//===- support/Service.h - Unix-socket daemon skeleton ----------*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one service skeleton both daemons (`scbuildd`, `sccached`) run
/// on. A daemon derives from Service and supplies how one connection is
/// served; Service owns the listener, the accept loop, reaped and
/// capped connection threads, the I/O deadline, the idle clock, the
/// `--metrics-out` file and the drain. docs/BUILD_SYSTEM.md ("The
/// service model") describes the model and its bounds.
///
//===----------------------------------------------------------------------===//

#ifndef SC_SUPPORT_SERVICE_H
#define SC_SUPPORT_SERVICE_H

#include "support/Socket.h"

#include <atomic>
#include <cstdint>
#include <list>
#include <string>
#include <thread>

namespace sc {

class MetricsRegistry;

class Service {
public:
  /// Live connection threads at most; further accepts are refused.
  static constexpr unsigned MaxConnections = 64;
  /// Total deadline for one frame, in either direction.
  static constexpr unsigned IoTimeoutMs = 10000;
  /// Period of the `--metrics-out` rewrite.
  static constexpr unsigned MetricsIntervalMs = 1000;

  Service(const Service &) = delete;
  Service &operator=(const Service &) = delete;

  /// Asks the accept loop to drain and return. Async-signal-safe.
  void requestStop() { Stop.store(true); }

  /// Host path of the bound socket (valid after a successful start).
  const std::string &socketPath() const { return SockPath; }

  /// Connection threads alive right now.
  uint32_t activeConnections() const { return Active.load(); }

  /// Routes SIGINT and SIGTERM to \p S.requestStop() and ignores
  /// SIGPIPE: a signal takes the same drain as the `shutdown` verb.
  static void stopOnSignals(Service &S);

protected:
  struct Settings {
    const char *Name;         ///< Log prefix: "scbuildd", "sccached".
    const char *MetricPrefix; ///< Counter namespace: "daemon", "cache".
    MetricsRegistry *Metrics = nullptr;
    unsigned IdleTimeoutMs = 0; ///< 0 = never idle out.
    std::string MetricsOut;     ///< Empty = no metrics file.
    bool Quiet = false;
  };

  explicit Service(Settings S) : Cfg(std::move(S)) {}
  /// Derived destructors call shutdown() first: connection threads run
  /// the derived class's code.
  virtual ~Service();

  /// Serves one accepted connection, on its own thread.
  virtual void serveConnection(UnixSocket &Conn) = 0;
  /// Prometheus text for the metrics file.
  virtual std::string metricsText() = 0;
  /// Runs once the listener is closed, before connection threads are
  /// joined: the daemon finishes or cancels its in-flight work here.
  virtual void drain() {}

  /// Binds \p Path. False (with \p Err) when a live daemon answers on
  /// it; a dead daemon's socket file is removed first.
  bool listen(const std::string &Path, std::string *Err);

  /// The accept loop, then the drain. Returns the exit code.
  int run();

  /// Drains without the loop (idempotent): stop, close and unlink the
  /// listener, drain(), join every connection thread.
  void shutdown();

  bool stopping() const { return Stop.load(); }

  /// Waits for the peer's next frame: up to \p WaitMs (0 = until the
  /// drain) for its first byte, then IoTimeoutMs for the whole frame.
  /// False when the peer left, stalled, or the daemon is stopping.
  bool nextFrame(UnixSocket &Conn, std::string &Payload, unsigned WaitMs);

  /// Sends one frame under the I/O deadline.
  static bool send(UnixSocket &Conn, const std::string &Payload) {
    return Conn.sendFrame(Payload, IoTimeoutMs);
  }

  /// Lifecycle chatter on stderr unless Settings::Quiet.
  void chat(const char *Fmt, ...);

  /// Marks one request in flight for as long as it lives. The idle
  /// clock runs only while none is open.
  class RequestScope {
  public:
    explicit RequestScope(Service &S) : S(S) { S.InFlight.fetch_add(1); }
    ~RequestScope() {
      S.ActivityTick.fetch_add(1);
      S.InFlight.fetch_sub(1);
    }

  private:
    Service &S;
  };

private:
  struct Connection {
    std::thread T;
    std::atomic<bool> Finished{false};
  };

  void spawn(UnixSocket Conn);
  void refuse();
  void reapConnections(bool JoinAll);
  void dumpMetricsFile();

  Settings Cfg;
  std::string SockPath;
  UnixSocket Listener;
  std::atomic<bool> Stop{false};
  std::atomic<uint32_t> Active{0};
  std::atomic<uint32_t> InFlight{0};
  std::atomic<uint64_t> ActivityTick{0};
  /// Touched by the accept loop only (and the drain after it).
  std::list<Connection> Connections;
};

} // namespace sc

#endif // SC_SUPPORT_SERVICE_H
