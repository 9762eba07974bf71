//===- build_sys/Daemon.h - Multi-client build service ----------*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resident build service: one long-lived BuildDriver parked behind
/// a Unix-domain socket (`<OutDir>/.daemon.sock`), serving build
/// requests from many concurrent `scbuild --daemon` clients. Because
/// the driver never dies between requests, the interface-scan cache,
/// the parsed-object cache, and the in-memory compiler state stay warm
/// — a no-op rebuild through the daemon re-scans nothing and re-parses
/// nothing (BuildStats::InterfaceScans == 0, ObjectsParsed == 0).
///
/// It runs on support/Service (the accept loop, connection cap, I/O
/// deadlines, idle clock and drain order are described once in
/// docs/BUILD_SYSTEM.md). What is specific to builds:
///
///  * One request per connection. `status` / `metrics` / `explain` /
///    `shutdown` are answered directly; `build` requests go through
///    the admission queue, and the whole connection counts as a
///    request in flight for the idle clock, queue wait included.
///  * Builds are serialized on ONE builder thread against the resident
///    driver (each build is internally parallel via Jobs); pending
///    requests wait in a bounded FIFO queue.
///  * Admission control: when the queue already holds MaxQueue pending
///    builds, the request is answered immediately with a structured
///    `busy` frame carrying the queue depth and a suggested
///    retry-after — never a hung socket.
///  * Coalescing: a build request identical to one already *pending*
///    (same Clean flag and compiler config; the build has not started,
///    so both will observe the same workspace state) joins it as an
///    extra waiter instead of queueing a second build. One compile
///    wave fans its BuildOutcome out to every waiter; each join counts
///    as `daemon.coalesced`.
///  * Per-request deadlines: a request still queued when
///    RequestTimeoutMs elapses is cancelled with a clean frame pair
///    (`err` + `exit` code 4) instead of building stale work.
///  * Disconnect resilience: a client that dies mid-build neither
///    aborts nor wedges the build — the build completes (its artifacts
///    and state persist) and the failed fan-out is counted.
///  * Drain: the in-flight build finishes and fans out, queued builds
///    are cancelled deterministically (`exit` code 5), and the trace
///    sink is flushed.
///
/// Wire protocol (shared with DaemonClient): one request per
/// connection. Each message is a 4-byte little-endian length followed
/// by a JSON object (see UnixSocket framing), written and read by the
/// field-list codec in support/FlatJson.h. The client sends one
/// DaemonRequest; the daemon answers with a stream of DaemonFrames —
/// any number of `out` / `err` text frames (the client copies them to
/// its stdout/stderr verbatim, which is what makes daemon output
/// byte-identical to in-process output) terminated by exactly one
/// `exit` frame carrying the exit code and the build's warm-cache
/// counters — or, under overload, by a single `busy` frame.
///
/// Locking: the daemon acquires the advisory build lock `<OutDir>/.lock`
/// once at start() with tag "daemon" and holds it until it exits; the
/// resident driver runs with BuildOptions::ExternalLock. A plain
/// `scbuild` pointed at the same tree recognizes the daemon-tagged lock
/// and degrades read-only with a diagnostic naming the daemon instead
/// of timing out.
///
//===----------------------------------------------------------------------===//

#ifndef SC_BUILD_SYS_DAEMON_H
#define SC_BUILD_SYS_DAEMON_H

#include "build_sys/BuildSystem.h"
#include "support/FileLock.h"
#include "support/Service.h"

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace sc {

class RealFileSystem;

//===----------------------------------------------------------------------===//
// Wire messages
//===----------------------------------------------------------------------===//

/// One client request. Every key is always written; a decoder reads an
/// absent key as its default and skips unknown keys, so the protocol
/// can grow without breaking older daemons.
struct DaemonRequest {
  /// "build" | "status" | "metrics" | "explain" | "shutdown". The
  /// `metrics` verb answers with one `out` frame holding the registry
  /// rendered in Prometheus text exposition format (MetricsTextExporter).
  std::string Verb = "build";

  // -- build --
  bool Clean = false;
  bool Quiet = false;
  bool Run = false;
  std::vector<int64_t> RunArgs;

  /// Requested compiler configuration, for the config-compatibility
  /// check: the resident driver was created with one configuration and
  /// its caches are only valid for it. Opt is the OptLevel as an int
  /// (default O2), Mode the StatefulConfig::Mode as an int (default
  /// HeuristicSkip — the scbuild default).
  int Opt = 2;
  int Mode = 2;
  bool Reuse = false;

  /// Requested -j. A mismatch is tolerated (concurrency does not change
  /// outputs — the build is byte-identical at any Jobs value).
  unsigned Jobs = 0;

  // -- explain --
  std::string Query;
};

/// One daemon response frame.
struct DaemonFrame {
  /// "out" (copy Text to stdout), "err" (copy Text to stderr), "busy"
  /// (admission rejected: QueueDepth + RetryAfterMs; terminal), or
  /// "exit" (final frame: Code + counters; Text unused).
  std::string Type = "exit";
  std::string Text;
  int Code = 0;

  // Well-known exit codes beyond the build's own 0/1:
  //   2 = protocol error (malformed request / unknown verb)
  //   4 = request timed out in the queue (RequestTimeoutMs)
  //   5 = cancelled by daemon shutdown drain

  // -- busy frames (admission control) --
  /// Builds already pending when the request was rejected.
  uint32_t QueueDepth = 0;
  /// Suggested client backoff before retrying, in milliseconds.
  uint32_t RetryAfterMs = 0;

  // Build facts of the build this frame terminates (exit frames of
  // build requests only; zero otherwise); see forEachFrameFact().
  bool HasStats = false;
  unsigned Compiled = 0;
  unsigned Total = 0;
  uint64_t InterfaceScans = 0;
  uint64_t ScanCacheHits = 0;
  uint64_t ObjectsParsed = 0;

  /// True when this request shared a compile wave with earlier
  /// identical pending requests instead of building on its own.
  bool Coalesced = false;

  // Remote object-cache counters (BuildOptions::RemoteCache; all zero
  // when the tier is off).
  uint64_t RemoteHits = 0;
  uint64_t RemoteMisses = 0;
  uint64_t RemotePuts = 0;
  uint64_t RemoteErrors = 0;
};

/// Calls Do(&BuildStats::Member, X.Member) once per build fact an exit
/// frame carries. On the wire each is keyed by its fact's report path
/// (buildFactOf in build_sys/BuildFacts.h), e.g. "remote.hits".
template <class F, class Fn> void forEachFrameFact(F &X, Fn Do) {
  Do(&BuildStats::FilesCompiled, X.Compiled);
  Do(&BuildStats::FilesTotal, X.Total);
  Do(&BuildStats::InterfaceScans, X.InterfaceScans);
  Do(&BuildStats::ScanCacheHits, X.ScanCacheHits);
  Do(&BuildStats::ObjectsParsed, X.ObjectsParsed);
  Do(&BuildStats::RemoteHits, X.RemoteHits);
  Do(&BuildStats::RemoteMisses, X.RemoteMisses);
  Do(&BuildStats::RemotePuts, X.RemotePuts);
  Do(&BuildStats::RemoteErrors, X.RemoteErrors);
}

std::string encodeRequest(const DaemonRequest &R);
bool decodeRequest(const std::string &Json, DaemonRequest &R);
std::string encodeFrame(const DaemonFrame &F);
bool decodeFrame(const std::string &Json, DaemonFrame &F);

//===----------------------------------------------------------------------===//
// Shared output rendering
//===----------------------------------------------------------------------===//

/// The user-facing text of one build outcome, split by stream.
struct RenderedOutcome {
  std::string Out; ///< Bytes for stdout.
  std::string Err; ///< Bytes for stderr.
  int Code = 0;    ///< Process exit code.
};

/// Renders warnings, error text, and the summary lines exactly as
/// `scbuild` prints them. Both the in-process CLI path and the daemon
/// go through this one function, so their output is byte-identical by
/// construction (same format strings, same ordering per stream).
RenderedOutcome renderBuildOutcome(const BuildStats &Stats, bool Stateful,
                                   bool Quiet);

/// Appends the `--run` outcome (trap text, printed output values, exit
/// code) to \p R, again shared verbatim between CLI and daemon.
struct ExecResult;
void renderRunOutcome(RenderedOutcome &R, const ExecResult &Exec);

//===----------------------------------------------------------------------===//
// Daemon
//===----------------------------------------------------------------------===//

/// Host-filesystem path of the daemon socket for a project rooted at
/// \p HostRoot with build directory \p OutDir: `<root>/<out>/.daemon.sock`.
std::string daemonSocketPath(const std::string &HostRoot,
                             const std::string &OutDir);

struct DaemonConfig {
  /// Configuration of the resident driver. ExternalLock is forced on.
  BuildOptions Build;

  /// Exit after this many milliseconds without a request (0 = never).
  unsigned IdleTimeoutMs = 0;

  /// Admission control: build requests arriving while this many are
  /// already pending (queued, not counting the in-flight build) are
  /// answered with a `busy` frame instead of queueing.
  unsigned MaxQueue = 16;

  /// A build request still waiting in the queue after this many
  /// milliseconds is cancelled with a clean frame pair (exit code 4).
  /// 0 = requests wait forever.
  unsigned RequestTimeoutMs = 0;

  /// Test/bench hook: sleep this long at the start of every build,
  /// creating a deterministic service-time floor so queues and
  /// coalescing windows actually form on fast machines.
  unsigned HoldMs = 0;

  /// Test hook: invoked on the builder thread immediately before each
  /// build (after HoldMs). Lets tests hold the builder at a barrier.
  std::function<void()> PreBuildHook;

  /// When non-empty: host path that receives the Prometheus text
  /// rendering of the metrics registry (Service::MetricsIntervalMs) —
  /// a scrape-file for collectors that cannot speak the socket
  /// protocol.
  std::string MetricsOut;

  /// Suppress the daemon's own lifecycle chatter on stderr.
  bool Quiet = false;
};

/// Point-in-time service counters (also published to the configured
/// MetricsRegistry as `daemon.*` and printed by the `status` verb).
struct DaemonServiceStats {
  uint64_t BuildsServed = 0;     ///< build() calls completed.
  uint64_t RequestsServed = 0;   ///< Build requests answered (incl. coalesced).
  uint64_t Coalesced = 0;        ///< Requests that joined a pending build.
  uint64_t BusyRejections = 0;   ///< Requests bounced by admission control.
  uint64_t RequestTimeouts = 0;  ///< Requests cancelled by RequestTimeoutMs.
  uint64_t Disconnects = 0;      ///< Clients gone before their result.
  uint64_t CancelledOnDrain = 0; ///< Queued requests cancelled by shutdown.
  uint32_t QueueDepth = 0;       ///< Pending builds right now.
  uint32_t QueueHighWater = 0;   ///< Max pending builds ever observed.
  uint32_t ActiveConnections = 0;///< Connection threads alive right now.
};

/// The resident build service: a Service whose connections feed one
/// builder thread owning the resident BuildDriver (so two clients never
/// race the driver; builds are internally parallel via Jobs).
class BuildDaemon : public Service {
public:
  /// \p FS must outlive the daemon. The socket binds at
  /// daemonSocketPath(FS.root(), Config.Build.OutDir).
  BuildDaemon(RealFileSystem &FS, DaemonConfig Config);
  ~BuildDaemon() override;

  /// Acquires the build lock (tag "daemon") and binds the socket.
  /// A stale socket file is removed only after the lock is held — the
  /// lock proves no live daemon owns it. False + \p Err on failure
  /// (most importantly: another live daemon already serves this tree).
  bool start(std::string *Err);

  /// Serves requests until a shutdown request, the idle timeout, or
  /// requestStop(), then drains (see the file comment). Returns the
  /// process exit code (0 = clean).
  int serve();

  /// Builds served so far (for tests and `status`).
  uint64_t buildsServed() const { return count(Event::BuildsServed); }

  /// Snapshot of the service counters (tests, benches).
  DaemonServiceStats serviceStats() const;

  /// BuildStats of the most recent completed build (tests; also the
  /// source of `scbuildd --report-json`).
  BuildStats lastBuildStats() const;

private:
  //===--- Admission queue ------------------------------------------------===//

  /// One pending compile wave and everyone waiting on it.
  struct BuildJob {
    // Coalescing key: two requests may share a wave only when the
    // driver would do identical work for both.
    bool Clean = false;

    /// Per-waiter request parameters (Quiet/Run/RunArgs differ per
    /// client; they shape rendering, not the build).
    std::vector<DaemonRequest> Waiters;
    /// Rendered result per waiter, 1:1 with Waiters, filled by the
    /// builder thread before Done flips.
    std::vector<RenderedOutcome> Outcomes;
    std::vector<DaemonFrame> ExitFrames;

    std::chrono::steady_clock::time_point EnqueuedAt;
    bool Done = false;
    bool Cancelled = false;
    int CancelCode = 0;
    std::string CancelText;
  };

  void builderMain();
  void serveConnection(UnixSocket &Conn) override;
  void drain() override;
  void handleBuildRequest(UnixSocket &Conn, const DaemonRequest &Req);
  void runJob(const std::shared_ptr<BuildJob> &Job);
  void cancelJob(BuildJob &Job, int Code, const std::string &Text);
  /// Streams \p R (err text, out text) and then \p Exit, with R's code,
  /// to the client; false when the client is gone.
  bool sendOutcome(UnixSocket &Conn, const RenderedOutcome &R,
                   DaemonFrame Exit = DaemonFrame());
  std::string statusText() const;
  /// Prometheus text rendering of the registry, with gauges refreshed
  /// at render time (the same staleness rule statusText follows).
  std::string metricsText() override;
  void publishGauges();

  RealFileSystem &FS;
  DaemonConfig Config;
  FileLock Lock;
  std::unique_ptr<BuildDriver> Driver;

  /// Queue state. Mu guards Queue, Draining, LastExit, LastStats, and
  /// every BuildJob's fields; JobsCV wakes the builder, DoneCV wakes
  /// waiters (broadcast — waiter counts are small).
  mutable std::mutex Mu;
  std::condition_variable JobsCV;
  std::condition_variable DoneCV;
  std::deque<std::shared_ptr<BuildJob>> Queue;
  bool Draining = false;
  std::thread Builder;

  /// A service event, counted in serviceStats() and as its `daemon.*`
  /// metric (EventMetrics in Daemon.cpp), always both at once.
  enum class Event {
    BuildsServed,
    RequestsServed,
    Coalesced,
    BusyRejections,
    RequestTimeouts,
    Disconnects,
    CancelledOnDrain,
    NumEvents
  };
  void countEvent(Event E, uint64_t N = 1);
  uint64_t count(Event E) const {
    return Events[static_cast<size_t>(E)].load();
  }

  /// Service counters (atomics: bumped from connection threads and the
  /// builder, read by status from yet other threads).
  std::array<std::atomic<uint64_t>, static_cast<size_t>(Event::NumEvents)>
      Events{};
  std::atomic<uint32_t> QueueHighWater{0};

  DaemonFrame LastExit; ///< Exit frame of the most recent build (Mu).
  BuildStats LastStats; ///< Stats of the most recent build (Mu).
};

} // namespace sc

#endif // SC_BUILD_SYS_DAEMON_H
