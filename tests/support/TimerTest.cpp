//===- tests/support/TimerTest.cpp ---------------------------------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Timer.h"

#include <gtest/gtest.h>

#include <thread>

using namespace sc;

TEST(Timer, AccumulatesAcrossStartStopCycles) {
  Timer T;
  for (int I = 0; I != 3; ++I) {
    T.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    T.stop();
  }
  EXPECT_GE(T.millis(), 5.0);
  EXPECT_EQ(T.micros(), T.nanos() / 1000.0);
}

TEST(Timer, ResetClears) {
  Timer T;
  T.start();
  T.stop();
  T.reset();
  EXPECT_EQ(T.nanos(), 0u);
}

TEST(Timer, Accumulate) {
  Timer A, B;
  A.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  A.stop();
  B.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  B.stop();
  uint64_t ANanos = A.nanos();
  A.accumulate(B);
  EXPECT_EQ(A.nanos(), ANanos + B.nanos());
}

TEST(Timer, NowNanosMonotonic) {
  uint64_t A = nowNanos();
  uint64_t B = nowNanos();
  EXPECT_LE(A, B);
}
