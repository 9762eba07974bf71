//===- tests/support/StringUtilsTest.cpp ---------------------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <cstdint>

using namespace sc;

TEST(StringUtils, ParseDecimalTakesDigitsOnly) {
  unsigned U = 7;
  EXPECT_TRUE(parseDecimal("0", U));
  EXPECT_EQ(U, 0u);
  EXPECT_TRUE(parseDecimal("4294967295", U));
  EXPECT_EQ(U, 4294967295u);
  for (const char *Bad : {"", "-1", "+1", " 1", "4x", "4294967296"}) {
    U = 7;
    EXPECT_FALSE(parseDecimal(Bad, U)) << Bad;
    EXPECT_EQ(U, 7u) << Bad;
  }
  uint64_t W = 0;
  EXPECT_TRUE(parseDecimal("18446744073709551615", W));
  EXPECT_EQ(W, UINT64_MAX);
  EXPECT_FALSE(parseDecimal("18446744073709551616", W));
}
