//===- tests/support/TimerTest.cpp ---------------------------------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Timer.h"

#include <gtest/gtest.h>

using namespace sc;

TEST(Timer, NowNanosMonotonic) {
  uint64_t A = nowNanos();
  uint64_t B = nowNanos();
  EXPECT_LE(A, B);
}
