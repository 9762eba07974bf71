//===- support/Trace.h - Build-telemetry span recorder ----------*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The build telemetry recorder: a per-thread span/instant-event log
/// merged into Chrome trace-event JSON (loadable by chrome://tracing
/// and Perfetto) at build end. One recorder serves one build process;
/// every layer that wants to emit events holds a `TraceRecorder *`
/// that is null (or disabled) by default, so an untraced build pays a
/// single pointer/flag test per would-be event, plus the two clock
/// reads of each TraceSpan scope, which time the build either way.
///
/// Concurrency model: each recording thread owns a private event ring,
/// registered once under the registry mutex and thereafter written
/// under a per-ring lock that only its owning thread and the merge
/// paths ever take — recording threads never contend with one another,
/// and snapshot()/numEvents()/clear() are safe to call while workers
/// are still recording. Rings are bounded; when one fills, the oldest
/// events are overwritten (the tail of a build matters more than its
/// start) and the drop is counted. Merging (snapshot / toChromeJson)
/// tags each event with its thread id and sorts by start timestamp.
///
/// Event vocabulary (see docs/OBSERVABILITY.md for the full schema):
///   * spans  ("ph":"X") — build phases, per-TU compiles, per-pass
///     executions, state-DB load/save;
///   * instants ("ph":"i") — skipped passes carrying the dormancy
///     verdict, state salvage, lock reclaim.
///
//===----------------------------------------------------------------------===//

#ifndef SC_SUPPORT_TRACE_H
#define SC_SUPPORT_TRACE_H

#include "support/Timer.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace sc {

/// Escapes \p S for embedding inside a JSON string literal.
std::string jsonEscape(const std::string &S);

/// Destination for streamed trace events (daemon mode): instead of
/// buffering a whole build's events until toChromeJson(), a recorder
/// with a sink drains its rings on every flush() and the sink appends
/// them to wherever they live — so a long-lived process's trace is
/// bounded by the ring capacity between flushes, never by process
/// lifetime. Each call receives one complete Chrome-trace event object
/// (metadata rows included); the sink owns the surrounding framing.
class TraceSink {
public:
  virtual ~TraceSink();

  /// Appends one serialized trace-event JSON object. Returns false on
  /// a sink I/O failure (the recorder keeps going; streaming telemetry
  /// is best-effort).
  virtual bool event(const std::string &EventJson) = 0;
};

/// TraceSink appending to a host file in Chrome's *JSON array* trace
/// format: `[\n {event},\n {event}, ...` — readable by Perfetto and
/// chrome://tracing even while the daemon is still running (both
/// tolerate a truncated array), and terminated into strictly valid
/// JSON by close(). One sink serves one file for the process lifetime.
class FileTraceSink : public TraceSink {
public:
  /// Opens (truncates) \p HostPath. ok() reports whether it opened.
  explicit FileTraceSink(std::string HostPath);
  ~FileTraceSink() override;

  bool ok() const { return F != nullptr; }
  bool event(const std::string &EventJson) override;

  /// Writes the closing bracket and closes the file; the result is
  /// strictly valid JSON (an array of events). Idempotent.
  bool close();

private:
  std::FILE *F = nullptr;
  bool AnyEvent = false;
};

/// One recorded telemetry event. Category pointers must have static
/// lifetime (string literals); names and args are owned.
struct TraceEvent {
  enum class Kind : uint8_t {
    Span,    // "ph":"X" — complete event with duration.
    Instant, // "ph":"i" — point-in-time marker.
  };

  Kind K = Kind::Span;
  uint32_t Tid = 0;    // Filled in when logs are merged.
  uint64_t StartNs = 0; // Monotonic (nowNanos) timestamp.
  uint64_t DurNs = 0;   // Spans only.
  const char *Category = "";
  std::string Name;
  std::string ArgsJson; // Preformatted JSON object text, or empty.
};

/// Contention-free-per-thread span recorder; see the file comment.
class TraceRecorder {
public:
  /// \p PerThreadCapacity bounds each thread's ring; a build emits one
  /// span per executed pass, so the default comfortably holds the
  /// largest bench project and drops (counted) beyond that.
  explicit TraceRecorder(bool StartEnabled = true,
                         size_t PerThreadCapacity = 1u << 16);

  /// Cheap gate for call sites: a disabled recorder records nothing
  /// and every record call returns after this one relaxed load.
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }
  void setEnabled(bool E) { Enabled.store(E, std::memory_order_relaxed); }

  /// Records a complete span [StartNs, EndNs] on the calling thread.
  void span(const char *Category, std::string Name, uint64_t StartNs,
            uint64_t EndNs, std::string ArgsJson = std::string());

  /// Records an instant event stamped now on the calling thread.
  void instant(const char *Category, std::string Name,
               std::string ArgsJson = std::string());

  /// Names the calling thread in the emitted trace (default thread-N).
  void setThreadName(std::string Name);

  /// Total events overwritten because a thread ring filled.
  uint64_t droppedEvents() const;

  /// Per-thread drop counts (thread name -> events overwritten),
  /// including zero entries, in tid order. The build driver folds the
  /// nonzero ones into the merged trace metadata and --report-json so
  /// a truncated trace never silently looks complete.
  std::vector<std::pair<std::string, uint64_t>> droppedByThread() const;

  //===--- Sampling-profiler support --------------------------------------===//
  //
  // When sampling is on, every live TraceSpan additionally maintains a
  // per-thread current-span stack that SamplingProfiler snapshots at
  // its tick rate. Off (the default) the only added cost per span is
  // one relaxed load; a disabled recorder pays nothing at all — the
  // zero-overhead assertions in bench_e8_micro hold either way.

  bool samplingEnabled() const {
    return Sampling.load(std::memory_order_relaxed);
  }
  void setSamplingEnabled(bool S) {
    Sampling.store(S, std::memory_order_relaxed);
  }

  /// Pushes a frame onto the calling thread's current-span stack.
  /// \p Name must stay valid (and unmutated) until the matching pop —
  /// TraceSpan guarantees this by being immovable and popping before
  /// it moves its name out.
  void pushCurrentSpan(const char *Category, const std::string &Name);
  void popCurrentSpan();

  /// One rendered stack per thread with at least one live span:
  /// outermost-first span names joined with ';' (e.g.
  /// "build;compile;compile:util.mc;frontend:util.mc"). Safe to call
  /// from the sampler thread while workers record.
  std::vector<std::string> sampleStacks() const;

  /// Events currently held across all thread rings.
  size_t numEvents() const;

  /// Merged copy of all thread logs: tid-tagged, sorted by StartNs.
  std::vector<TraceEvent> snapshot() const;

  /// The merged log as a Chrome trace-event JSON document: a
  /// {"traceEvents":[...]} object with thread-name metadata, ts/dur in
  /// microseconds relative to recorder creation.
  std::string toChromeJson() const;

  /// Drops all recorded events (thread registrations survive).
  void clear();

  /// Attaches a streaming sink. The recorder does not take ownership;
  /// the sink must outlive the recorder or be detached (nullptr) first.
  void setSink(TraceSink *S);

  /// Drains every thread ring into the sink (tid-tagged, sorted by
  /// start time, with thread-name metadata rows emitted the first time
  /// each thread — or a renamed thread — appears) and clears the rings.
  /// Returns the number of events emitted; 0 (and no clear) without a
  /// sink. The daemon calls this after each request, bounding memory
  /// for arbitrarily long-lived processes.
  size_t flush();

private:
  struct ThreadLog {
    uint32_t Tid = 0;
    std::string Name;
    std::mutex RingMu; // Owner thread vs. merge/clear; never contended
                       // between recording threads.
    std::vector<TraceEvent> Ring;
    size_t Next = 0;                   // Overwrite cursor once full.
    std::atomic<uint64_t> Dropped{0};
    /// Live (RAII) spans on this thread, outermost first; pointers
    /// into the owning TraceSpans. Guarded by RingMu: the owner
    /// pushes/pops, the sampler reads.
    std::vector<std::pair<const char *, const std::string *>> SpanStack;
  };

  /// The calling thread's log, registering it on first use. The fast
  /// path is two thread_local compares (owner pointer + epoch).
  ThreadLog &logForThisThread();

  void append(TraceEvent E);

  std::atomic<bool> Enabled;
  std::atomic<bool> Sampling{false};
  const size_t Capacity;
  const uint64_t BaseNs;  // Trace epoch: ts 0 in the emitted JSON.
  const uint64_t Epoch;   // Unique per recorder instance; guards the
                          // thread_local cache against stale owners.

  mutable std::mutex Mu;  // Guards Logs/ByThread (registration+merge).
  std::vector<std::unique_ptr<ThreadLog>> Logs;
  std::map<std::thread::id, ThreadLog *> ByThread;

  TraceSink *Sink = nullptr;            // Guarded by Mu.
  std::map<uint32_t, std::string> AnnouncedThreads; // Tid -> last name
                                                    // sent to the sink.
  bool AnnouncedProcess = false;
};

/// The one timed scope. It reads the clock once when it opens and once
/// when it closes (end(), or the destructor), and from those two reads
/// it:
///   * records the span event, when the recorder is on;
///   * keeps a frame named after the span on the thread's current-span
///     stack, when sampling is on;
///   * adds the elapsed microseconds to \p SlotUs, when one is given —
///     even when the recorder is off or null, so build statistics and
///     the trace are the same measurement.
/// A scope that writes into an object the caller returns must be
/// end()ed before the `return`. Callers building dynamic names should
/// gate the string construction on `R && R->enabled()` themselves.
class TraceSpan {
public:
  TraceSpan(TraceRecorder *R, const char *Category, std::string Name,
            double *SlotUs = nullptr)
      : R(R && R->enabled() ? R : nullptr), Category(Category),
        SlotUs(SlotUs) {
    if (this->R) {
      this->Name = std::move(Name);
      if (this->R->samplingEnabled()) {
        // The stack frame points at this->Name; valid because the
        // span is immovable and pops before the name moves out.
        this->R->pushCurrentSpan(Category, this->Name);
        Pushed = true;
      }
    }
    StartNs = nowNanos();
  }

  /// Attaches a preformatted JSON args object to the span.
  void args(std::string ArgsJson) {
    if (R)
      Args = std::move(ArgsJson);
  }

  uint64_t startNs() const { return StartNs; }

  /// Nanoseconds since the scope opened; the scope stays open.
  uint64_t elapsedNs() const { return nowNanos() - StartNs; }

  /// Closes the scope now and returns its duration in nanoseconds.
  /// Later calls (and the destructor) do nothing and return 0.
  uint64_t end() {
    if (Ended)
      return 0;
    Ended = true;
    const uint64_t EndNs = nowNanos();
    if (SlotUs)
      *SlotUs += static_cast<double>(EndNs - StartNs) / 1000.0;
    if (R) {
      if (Pushed)
        R->popCurrentSpan();
      R->span(Category, std::move(Name), StartNs, EndNs, std::move(Args));
    }
    return EndNs - StartNs;
  }

  ~TraceSpan() { end(); }

  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

private:
  TraceRecorder *R;
  const char *Category;
  double *SlotUs;
  std::string Name;
  std::string Args;
  uint64_t StartNs = 0;
  bool Pushed = false;
  bool Ended = false;
};

} // namespace sc

#endif // SC_SUPPORT_TRACE_H
