//===- perfbench/src/main.cpp - Repository benchmark driver ---------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   perfbench --workload <edit-loop|wide-rebuild|daemon-fleet>
///             [--seed N] [--seconds S] [--trace 0|1]
///             [--builds N] [--log PATH] [--commit REV]
///
/// Runs one workload and prints, as the last line of stdout, one JSON
/// object {"correct", "attempted", "failed", "metrics"}: end-to-end
/// metrics untraced, per-layer metrics with --trace 1. Any failed,
/// refused or wrong build exits 1 without a result. See README.md.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<edit-loop|wide-rebuild|daemon-fleet> [--seed N] "
               "[--seconds S] [--trace 0|1] [--builds N] [--log PATH] "
               "[--commit REV]\n",
               Why);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions O;
  for (int I = 1; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    const char *V = Argv[++I];
    if (Flag == "--workload")
      O.Workload = V;
    else if (Flag == "--seed")
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (Flag == "--seconds")
      O.Seconds = std::strtod(V, nullptr);
    else if (Flag == "--trace")
      O.Trace = std::strcmp(V, "0") != 0;
    else if (Flag == "--builds")
      O.Builds = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    else if (Flag == "--log")
      O.LogPath = V;
    else if (Flag == "--commit")
      O.Commit = V;
    else
      return usage(("unknown flag " + Flag).c_str());
  }
  if (O.Seconds <= 0 && O.Builds == 0)
    return usage("--seconds must be positive");
  // edit-loop builds sequentially: its two or three dirty TUs gain
  // nothing from the pool, and every pool hand-off can wait for the
  // host's scheduler, which made its wall time the noisiest figure.
  O.Jobs = O.Workload == "edit-loop"
               ? 1
               : std::min(4u, std::max(1u, std::thread::hardware_concurrency()));

  Run R(O);
  if (O.Workload == "edit-loop")
    return runEditLoop(R);
  if (O.Workload == "wide-rebuild")
    return runWideRebuild(R);
  if (O.Workload == "daemon-fleet")
    return runDaemonFleet(R);
  return usage(("unknown workload '" + O.Workload + "'").c_str());
}
