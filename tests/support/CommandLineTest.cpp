//===- tests/support/CommandLineTest.cpp ----------------------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "build_sys/BuildFlags.h"
#include "build_sys/Daemon.h"
#include "support/CommandLine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

using namespace sc;

namespace {

/// A table with one row of every kind, and where each row writes.
struct Tool {
  std::string Name;
  unsigned Count = 0;
  uint64_t Big = 0;
  unsigned Jobs = 3;
  bool Flag = false;
  std::vector<std::string> List;
  std::optional<std::vector<std::string>> Rest;

  CommandLine table() {
    using F = CommandLineFlag;
    return CommandLine("tool", "tool [file] [options]",
                       {{"--name=V", F::Value, "a name", &Name},
                        {"--count=N", F::Number, "a count", &Count},
                        {"--big=N", F::Number, "a wide count", &Big},
                        {"-j N", F::Jobs, "threads", &Jobs},
                        {"--flag", F::Switch, "a switch", &Flag},
                        {"--other", F::Switch, "a switch", [] {}},
                        {"--list ITEM", F::Value, "", &List},
                        {"--run [args...]", F::Rest, "the rest", &Rest}});
  }
};

struct Parsed {
  int Exit;
  std::string Err;
};

/// Parses \p Args, which follow the tool name, with stderr captured.
Parsed parseArgs(const CommandLine &CL, const std::vector<std::string> &Args,
                 std::vector<std::string> *Positionals = nullptr) {
  std::vector<const char *> Argv = {"tool"};
  for (const std::string &A : Args)
    Argv.push_back(A.c_str());
  testing::internal::CaptureStderr();
  const int Exit =
      CL.parse(static_cast<int>(Argv.size()), Argv.data(), Positionals);
  return {Exit, testing::internal::GetCapturedStderr()};
}

} // namespace

TEST(CommandLine, ValueTakesEitherForm) {
  Tool T;
  EXPECT_EQ(parseArgs(T.table(), {"--name=a=b"}).Exit, -1);
  EXPECT_EQ(T.Name, "a=b");
  EXPECT_EQ(parseArgs(T.table(), {"--name", "c", "--count", "7"}).Exit, -1);
  EXPECT_EQ(T.Name, "c");
  EXPECT_EQ(T.Count, 7u);
}

TEST(CommandLine, MissingValueAtTheEndIsAnError) {
  Tool T;
  Parsed P = parseArgs(T.table(), {"--flag", "--name"});
  EXPECT_EQ(P.Exit, 1);
  EXPECT_EQ(P.Err, "tool: error: option '--name' requires a value\n");
  P = parseArgs(T.table(), {"-j"});
  EXPECT_EQ(P.Err, "tool: error: option '-j' requires a value\n");
}

TEST(CommandLine, ValueMayStartWithADash) {
  Tool T;
  EXPECT_EQ(parseArgs(T.table(), {"--name", "--flag"}).Exit, -1);
  EXPECT_EQ(T.Name, "--flag");
  EXPECT_FALSE(T.Flag);
  Parsed P = parseArgs(T.table(), {"-j", "--"});
  EXPECT_EQ(P.Exit, 1);
  EXPECT_EQ(P.Err,
            "tool: error: option '-j' requires a positive integer (got '--')\n");
}

TEST(CommandLine, NumbersAreStrict) {
  for (const char *Bad : {"4x", "-1", "4294967296", ""}) {
    Tool T;
    Parsed P = parseArgs(T.table(), {std::string("--count=") + Bad});
    EXPECT_EQ(P.Exit, 1) << Bad;
    EXPECT_EQ(P.Err, std::string("tool: error: option '--count' requires a "
                                 "non-negative integer (got '") +
                         Bad + "')\n");
    EXPECT_EQ(T.Count, 0u) << Bad;
  }
  Tool T;
  EXPECT_EQ(parseArgs(T.table(), {"--big", "4294967296"}).Exit, -1);
  EXPECT_EQ(T.Big, 4294967296u);
  EXPECT_EQ(parseArgs(T.table(), {"--big", "18446744073709551616"}).Exit, 1);
  EXPECT_EQ(parseArgs(T.table(), {"-j", "-1"}).Err,
            "tool: error: option '-j' requires a positive integer (got '-1')\n");
  // A thread count of 0 means a serial build, not an error.
  EXPECT_EQ(parseArgs(T.table(), {"-j", "0"}).Exit, -1);
  EXPECT_EQ(T.Jobs, 1u);
}

TEST(CommandLine, UnknownOptionsAndPositionals) {
  Tool T;
  std::vector<std::string> Pos;
  Parsed P = parseArgs(T.table(), {"a", "--flag", "b", "--nope"}, &Pos);
  EXPECT_EQ(P.Exit, 1);
  EXPECT_EQ(P.Err, "tool: error: unknown option '--nope'\n");
  EXPECT_EQ(Pos, (std::vector<std::string>{"a", "b"}));
  // A switch takes no `=value`, and a tool without positionals
  // reports a stray word as an unknown option.
  EXPECT_EQ(parseArgs(T.table(), {"--flag=1"}, &Pos).Err,
            "tool: error: unknown option '--flag=1'\n");
  EXPECT_EQ(parseArgs(T.table(), {"a"}).Err,
            "tool: error: unknown option 'a'\n");
}

TEST(CommandLine, RepeatedFlagsOverwriteOrAppend) {
  Tool T;
  EXPECT_EQ(parseArgs(T.table(), {"--count=1", "--list", "x", "--count=2",
                                  "--list=y"})
                .Exit,
            -1);
  EXPECT_EQ(T.Count, 2u);
  EXPECT_EQ(T.List, (std::vector<std::string>{"x", "y"}));
}

TEST(CommandLine, RestTakesEveryLaterArgument) {
  Tool T;
  EXPECT_EQ(parseArgs(T.table(), {"--run", "1", "--flag", "-2"}).Exit, -1);
  ASSERT_TRUE(T.Rest);
  EXPECT_EQ(*T.Rest, (std::vector<std::string>{"1", "--flag", "-2"}));
  EXPECT_FALSE(T.Flag);
  Tool U;
  EXPECT_EQ(parseArgs(U.table(), {"--run"}).Exit, -1);
  ASSERT_TRUE(U.Rest);
  EXPECT_TRUE(U.Rest->empty());
}

TEST(CommandLine, HelpListsThePublicFlags) {
  Tool T;
  Parsed P = parseArgs(T.table(), {"--count=x", "--help"});
  EXPECT_EQ(P.Exit, 1) << "flags before --help are still checked";
  P = parseArgs(T.table(), {"-h", "--count=x"});
  EXPECT_EQ(P.Exit, 0);
  EXPECT_EQ(P.Err, T.table().help());
  EXPECT_EQ(P.Err, "usage: tool [file] [options]\n"
                   "options:\n"
                   "  --name=V         a name\n"
                   "  --count=N        a count\n"
                   "  --big=N          a wide count\n"
                   "  -j N             threads\n"
                   "  --flag|--other   a switch\n"
                   "  --run [args...]  the rest\n");
}

TEST(CommandLine, ErrorPrefixesTheTool) {
  Tool T;
  testing::internal::CaptureStderr();
  EXPECT_EQ(T.table().error("bad '%s'", "x"), 1);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "tool: error: bad 'x'\n");
}

TEST(CommandLine, BuildFlagsRoundTrip) {
  using Mode = StatefulConfig::Mode;
  for (OptLevel Opt : {OptLevel::O0, OptLevel::O1, OptLevel::O2})
    for (Mode M : {Mode::Stateless, Mode::ExactSkip, Mode::HeuristicSkip})
      for (bool Reuse : {false, true})
        for (unsigned Jobs : {1u, 7u}) {
          BuildOptions Want;
          Want.Compiler.Opt = Opt;
          Want.Compiler.Stateful.SkipMode = M;
          Want.Compiler.Stateful.ReuseFunctionCode = Reuse;
          Want.Jobs = Jobs;
          BuildOptions Got;
          const CommandLine CL("t", "t", buildConfigFlags(Got));
          const std::vector<std::string> Args = buildConfigArgs(Want);
          ASSERT_EQ(parseArgs(CL, Args).Exit, -1);
          const std::string Where = ::testing::PrintToString(Args);
          EXPECT_EQ(Got.Compiler.Opt, Opt) << Where;
          EXPECT_EQ(Got.Compiler.Stateful.SkipMode, M) << Where;
          EXPECT_EQ(Got.Compiler.Stateful.ReuseFunctionCode, Reuse) << Where;
          EXPECT_EQ(Got.Jobs, Jobs) << Where;
          // A daemon request carries the same configuration.
          const DaemonRequest A = makeBuildRequest(Want),
                              B = makeBuildRequest(Got);
          EXPECT_EQ(std::tie(A.Opt, A.Mode, A.Reuse, A.Jobs),
                    std::tie(B.Opt, B.Mode, B.Reuse, B.Jobs))
              << Where;
        }
}

TEST(CommandLine, BuildFlagsDefaultToTheHeuristicOnEveryThread) {
  BuildOptions O;
  buildConfigFlags(O);
  EXPECT_EQ(O.Compiler.Stateful.SkipMode, StatefulConfig::Mode::HeuristicSkip);
  EXPECT_EQ(O.Compiler.Opt, OptLevel::O2);
  EXPECT_GE(O.Jobs, 1u);
}
