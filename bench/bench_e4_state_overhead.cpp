//===- bench/bench_e4_state_overhead.cpp - E4: state storage & I/O overhead -----===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// E4 reproduces the state-overhead table: how large is the persisted
/// BuildStateDB relative to the project, and how expensive are its
/// save/load operations relative to a recompile? The technique is only
/// viable if this "memory" is cheap.
///
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "state/BuildStateDB.h"
#include "support/Timer.h"

using namespace sc;
using namespace sc::bench;

int main() {
  banner("E4", "BuildStateDB storage and I/O overhead");

  std::printf("\nAfter a cold O2 build of each project:\n\n");
  printRow({"project", "src(KB)", "objs(KB)", "state(KB)", "st/src",
            "save(us)", "load(us)"});

  for (const ProjectProfile &Profile : standardProfiles()) {
    InMemoryFileSystem FS;
    ProjectModel Model = ProjectModel::generate(Profile, 42);
    Model.renderAll(FS);
    uint64_t SourceBytes = Model.totalSourceBytes();

    BuildDriver Driver(FS, makeOptions(StatefulConfig::Mode::HeuristicSkip));
    BuildStats S = Driver.build();
    if (!S.Success) {
      std::fprintf(stderr, "build failed: %s\n", S.ErrorText.c_str());
      return 1;
    }

    // Measure save/load on the persisted DB (average of several runs).
    const BuildStateDB &DB = Driver.stateDB();
    constexpr int Reps = 20;
    uint64_t SaveNs = 0, LoadNs = 0;
    std::string Bytes;
    for (int I = 0; I != Reps; ++I) {
      uint64_t T0 = nowNanos();
      Bytes = DB.serialize();
      SaveNs += nowNanos() - T0;
      BuildStateDB Restored;
      T0 = nowNanos();
      bool OK = Restored.deserialize(Bytes);
      LoadNs += nowNanos() - T0;
      if (!OK) {
        std::fprintf(stderr, "state round-trip failed\n");
        return 1;
      }
    }

    printRow({Profile.Name, fmt(SourceBytes / 1024.0, 1),
              fmt(S.ObjectBytes / 1024.0, 1),
              fmt(S.StateDBBytes / 1024.0, 1),
              fmtPercent(double(S.StateDBBytes) / double(SourceBytes)),
              fmt(SaveNs / 1000.0 / Reps, 1),
              fmt(LoadNs / 1000.0 / Reps, 1)});
  }

  std::printf("\nState-recording overhead on cold builds (stateful vs "
              "stateless wall clock) is reported by E2's cold-build "
              "table; per-TU bookkeeping time appears in E3.\n");
  return 0;
}
