//===- support/Timer.h - Wall-clock phase timers ----------------*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The monotonic clock every timed scope reads (nowNanos(), which
/// TraceSpan in support/Trace.h builds on) and an accumulating
/// wall-clock Timer. All durations are reported in microseconds
/// (double) for stable arithmetic when aggregating many short spans.
///
//===----------------------------------------------------------------------===//

#ifndef SC_SUPPORT_TIMER_H
#define SC_SUPPORT_TIMER_H

#include <cassert>
#include <chrono>
#include <cstdint>

namespace sc {

/// Returns a monotonic timestamp in nanoseconds.
inline uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Accumulating wall-clock timer. Supports repeated start/stop cycles.
class Timer {
public:
  void start() {
    assert(!Running && "timer already running");
    Running = true;
    StartNs = nowNanos();
  }

  void stop() {
    assert(Running && "timer is not running");
    TotalNs += nowNanos() - StartNs;
    Running = false;
  }

  /// Total accumulated time in microseconds.
  double micros() const { return static_cast<double>(TotalNs) / 1000.0; }

  /// Total accumulated time in milliseconds.
  double millis() const { return static_cast<double>(TotalNs) / 1.0e6; }

  uint64_t nanos() const { return TotalNs; }

  /// Folds another (stopped) timer's accumulated time into this one.
  void accumulate(const Timer &Other) { TotalNs += Other.TotalNs; }

  /// Folds raw nanoseconds into this timer. Used by the parallel pass
  /// engine to merge per-worker duration accumulators after a barrier.
  void addNanos(uint64_t Ns) { TotalNs += Ns; }

  void reset() {
    TotalNs = 0;
    Running = false;
  }

private:
  uint64_t TotalNs = 0;
  uint64_t StartNs = 0;
  bool Running = false;
};

} // namespace sc

#endif // SC_SUPPORT_TIMER_H
