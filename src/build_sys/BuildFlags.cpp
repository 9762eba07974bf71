//===- build_sys/BuildFlags.cpp - Build-configuration flags ---------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "build_sys/BuildFlags.h"

#include <algorithm>
#include <thread>

using namespace sc;

namespace {
constexpr const char *OptSpellings[] = {"-O0", "-O1", "-O2"};
} // namespace

std::vector<CommandLineFlag> sc::optLevelFlags(OptLevel &Opt) {
  std::vector<CommandLineFlag> Rows;
  for (OptLevel L : {OptLevel::O0, OptLevel::O1, OptLevel::O2})
    Rows.push_back({OptSpellings[static_cast<int>(L)], CommandLineFlag::Switch,
                    "optimization level (default -O2)",
                    [&Opt, L] { Opt = L; }});
  return Rows;
}

std::vector<CommandLineFlag> sc::buildConfigFlags(BuildOptions &Options) {
  using Mode = StatefulConfig::Mode;
  using Flag = CommandLineFlag;
  // hardware_concurrency() may return 0 on exotic platforms.
  Options.Jobs = std::max(1u, std::thread::hardware_concurrency());
  StatefulConfig &S = Options.Compiler.Stateful;
  S.SkipMode = Mode::HeuristicSkip;
  std::vector<Flag> Rows = optLevelFlags(Options.Compiler.Opt);
  Rows.push_back({"-j N", Flag::Jobs,
                  "build concurrency (default: every hardware thread; 0 "
                  "means 1)",
                  &Options.Jobs});
  Rows.push_back({"--stateless", Flag::Switch,
                  "baseline compiler (default: stateful)",
                  [&S] { S.SkipMode = Mode::Stateless; }});
  Rows.push_back({"--exact", Flag::Switch,
                  "ExactSkip policy instead of the paper's heuristic",
                  [&S] { S.SkipMode = Mode::ExactSkip; }});
  Rows.push_back({"--reuse", Flag::Switch, "function-level code reuse",
                  &S.ReuseFunctionCode});
  return Rows;
}

std::vector<std::string> sc::buildConfigArgs(const BuildOptions &Options) {
  const StatefulConfig &S = Options.Compiler.Stateful;
  std::vector<std::string> Args = {
      OptSpellings[static_cast<int>(Options.Compiler.Opt)], "-j",
      std::to_string(Options.Jobs)};
  if (S.SkipMode == StatefulConfig::Mode::Stateless)
    Args.push_back("--stateless");
  else if (S.SkipMode == StatefulConfig::Mode::ExactSkip)
    Args.push_back("--exact");
  if (S.ReuseFunctionCode)
    Args.push_back("--reuse");
  return Args;
}
