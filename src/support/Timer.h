//===- support/Timer.h - The monotonic clock --------------------*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The monotonic clock every timed scope reads: nowNanos(), which
/// TraceSpan in support/Trace.h builds on.
///
//===----------------------------------------------------------------------===//

#ifndef SC_SUPPORT_TIMER_H
#define SC_SUPPORT_TIMER_H

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

} // namespace sc

#endif // SC_SUPPORT_TIMER_H
