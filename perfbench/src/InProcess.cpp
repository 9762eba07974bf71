//===- perfbench/src/InProcess.cpp - edit-loop and wide-rebuild -----------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The two in-process workloads: one client in a closed loop of edit ->
/// build() over several generated trees on disk, each with its resident
/// BuildDriver, taking turns. The projects are a seeded draw from the
/// profile; averaging over them keeps one project's shape from setting
/// the run's result (with a single tree, p50 differed by ~10 % between
/// seeds on a quiet machine).
///
///  * edit-loop: seven http_server trees (60 files), applyCommit edits —
///    a few dirty TUs per build, most passes skipped (the paper's unit).
///  * wide-rebuild: three render_engine trees (100 files),
///    branchSwitch(25) edits — ~21 dirty TUs per build, so frontend,
///    middle end, backend and TU-level parallelism carry the build.
///
/// The traced run gives every tree a plain twin with no telemetry
/// attached, which takes the same edits; trace.overhead_ratio compares
/// the two.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/RNG.h"
#include "workload/Workload.h"

#include <cstring>
#include <filesystem>
#include <memory>

using namespace sc;

namespace perfbench {

namespace {

using EditFn = std::vector<std::string> (*)(ProjectModel &M, RNG &Rand,
                                            VirtualFileSystem &FS);

constexpr unsigned OracleEvery = 10;

struct InProcessSpec {
  const char *Profile;
  EditFn Edit;
  /// Trees per run. Coprime with OracleEvery, so the oracle samples
  /// every tree in turn.
  unsigned Trees;
};

std::vector<std::string> commitEdit(ProjectModel &M, RNG &Rand,
                                    VirtualFileSystem &FS) {
  return M.applyCommit(Rand, FS);
}

/// A quarter of the files switch per edit (~21 dirty TUs, body changes
/// only). hotHeaderChurn is left out: its cone is most of the project
/// on some seeds and a third on others, which made p50 and p90 jump
/// between two modes from seed to seed.
std::vector<std::string> wideEdit(ProjectModel &M, RNG &Rand,
                                  VirtualFileSystem &FS) {
  return M.branchSwitch(25, Rand, FS);
}

/// Is \p E one of the per-build layer spans worth keeping in the trace
/// file (not the thousands of per-TU, per-pass events)?
bool isLayerSpan(const TraceEvent &E) {
  return E.K == TraceEvent::Kind::Span &&
         (std::strcmp(E.Category, "build") == 0 ||
          std::strcmp(E.Category, "remote") == 0);
}

/// Runs the linked program of \p D on the VM and compares it with the
/// reference interpreter over the same tree (outside any timed window).
/// A cost checkpoint also builds the tree cold and Stateless.
void checkOracle(Run &R, VirtualFileSystem &FS, const BuildDriver &D,
                 unsigned Index, bool CostCheckpoint) {
  TraceSpan Span(&R.benchTrace(), "bench", "oracle");
  const std::string Where = "build " + std::to_string(Index) + ": ";
  if (!D.program()) {
    R.oracle(false, Where + "no linked program");
    return;
  }
  ExecResult Ref;
  std::string Why;
  if (!referenceRun(FS, D.options().OutDir, Ref, Why)) {
    R.oracle(false, Where + Why);
    return;
  }
  ExecResult Got;
  {
    TraceSpan VmSpan(&R.benchTrace(), "bench", "vm-run");
    VM Machine(*D.program());
    Got = Machine.run();
  }
  const bool Ok = sameBehavior(Ref, Got, Why);
  R.oracle(Ok, Where + Why);
  if (Ok && CostCheckpoint) {
    const uint64_t Stateless =
        statelessColdCost(FS, D.options().OutDir, R.options().Jobs);
    if (!Stateless)
      R.fail(Where + "the cold Stateless build failed");
    else
      R.addCostCheckpoint(Got, Stateless);
  }
}

/// One generated tree with its resident driver and its edit stream.
struct Tree {
  std::string Dir;
  std::unique_ptr<RealFileSystem> FS;
  std::unique_ptr<ProjectModel> Model;
  std::unique_ptr<BuildDriver> Driver;
  RNG Rand{0};

  void reset() {
    Driver.reset();
    Model.reset();
    FS.reset();
    if (!Dir.empty()) {
      std::error_code EC;
      std::filesystem::remove_all(Dir, EC);
    }
    Dir.clear();
  }

  /// Generates project \p Seed of \p Profile under \p D, builds it cold
  /// and then once more as a no-op, whose ledger record fills the
  /// ledger. Empty on success, else what failed.
  std::string setUp(const std::string &D, const char *Profile, uint64_t Seed,
                    const BuildOptions &BO) {
    reset();
    Dir = D;
    resetDir(Dir);
    FS = std::make_unique<RealFileSystem>(Dir);
    Model = std::make_unique<ProjectModel>(
        ProjectModel::generate(profileByName(Profile), Seed));
    Model->renderAll(*FS);
    Rand = RNG(editSeed(Seed));
    Driver = std::make_unique<BuildDriver>(*FS, BO);
    const BuildStats Cold = Driver->build();
    const BuildStats Noop = Driver->build();
    if (!Cold.Success || !Noop.Success)
      return "cold build failed: " + Cold.ErrorText + Noop.ErrorText;
    if (!prefillLedger(*FS, BO.OutDir, BO.HistoryLimit))
      return "could not prefill the build-history ledger";
    return "";
  }

  /// One build() call, timed: its wall time and the process CPU it cost.
  BuildStats timedBuild(double &WallMs, double &CpuMs) {
    const double C0 = processCpuMs();
    const double W0 = nowMs();
    BuildStats S = Driver->build();
    WallMs = nowMs() - W0;
    CpuMs = processCpuMs() - C0;
    return S;
  }
};

int runInProcess(Run &R, const InProcessSpec &W) {
  const RunOptions &O = R.options();
  // Program-side telemetry, attached only in the traced run.
  TraceRecorder Trace(/*StartEnabled=*/false);
  MetricsRegistry Metrics;
  BuildOptions BO = benchBuildOptions(O.Jobs);
  if (O.Trace) {
    BO.Compiler.Trace = &Trace;
    BO.Compiler.Metrics = &Metrics;
  }
  const std::string Root = std::string(WorkDir) + "/" + O.Workload;
  resetDir(Root);

  // Set-up, repeated: generate, render to disk, cold build, for every
  // tree. Tree K of seed S is generated from seed S * Trees + K.
  const unsigned Trees = W.Trees;
  std::vector<Tree> Ts(Trees);
  for (unsigned Setup = 0; Setup != Setups; ++Setup) {
    const double T0 = nowMs();
    for (unsigned K = 0; K != Trees; ++K) {
      const std::string Err = Ts[K].setUp(
          Root + "/s" + std::to_string(Setup) + "t" + std::to_string(K),
          W.Profile, O.Seed * Trees + K, BO);
      if (!Err.empty()) {
        R.fail(Err);
        return R.finish();
      }
    }
    R.addSetupSeconds((nowMs() - T0) / 1e3);
  }
  std::vector<Tree> Plain(O.Trace ? Trees : 0);
  for (unsigned K = 0; O.Trace && K != Trees; ++K) {
    const std::string Err =
        Plain[K].setUp(Root + "/plain" + std::to_string(K), W.Profile,
                       O.Seed * Trees + K, benchBuildOptions(O.Jobs));
    if (!Err.empty()) {
      R.fail("plain twin: " + Err);
      return R.finish();
    }
  }
  for (Tree &T : Ts)
    checkOracle(R, *T.FS, *T.Driver, 0, /*CostCheckpoint=*/false);

  TraceRecorder &Bench = R.benchTrace();
  Trace.setEnabled(O.Trace);
  R.startClock();
  unsigned I = 0;
  for (; R.more(I); ++I) {
    Tree &T = Ts[I % Trees];
    const std::string Where = "build " + std::to_string(I) + ": ";

    const double E0 = nowMs();
    std::vector<std::string> Changed;
    {
      TraceSpan Span(&Bench, "bench", "edit");
      Changed = W.Edit(*T.Model, T.Rand, *T.FS);
    }
    R.addEditMs(nowMs() - E0);

    const uint64_t Steals0 = counterValue(Metrics, "pool.steals");
    const uint64_t Park0 = counterValue(Metrics, "pool.park_wait_ns");
    BuildStats S;
    double Wall = 0, Cpu = 0;
    {
      TraceSpan Span(&Bench, "bench", "build");
      S = T.timedBuild(Wall, Cpu);
    }
    R.addBuild(Wall, Cpu, O.Trace);
    R.calibrate();
    if (!S.Success)
      R.fail(Where + "failed: " + S.ErrorText);

    if (O.Trace) {
      R.foldBuildStats(S, Wall);
      R.layer("pool.steals", static_cast<double>(
                                 counterValue(Metrics, "pool.steals") - Steals0));
      R.layer("pool.park_wait_ns",
              static_cast<double>(counterValue(Metrics, "pool.park_wait_ns") -
                                  Park0));
      for (const TraceEvent &E : Trace.snapshot()) {
        R.foldEvent(E.Category, E.Name, static_cast<double>(E.DurNs) / 1e6,
                    E.ArgsJson);
        if (isLayerSpan(E))
          R.keepEvent(E);
      }
      Trace.clear();

      // The plain twin takes the same edit and builds without telemetry.
      Tree &P = Plain[I % Trees];
      if (W.Edit(*P.Model, P.Rand, *P.FS) != Changed)
        R.fail(Where + "the plain twin's edit stream diverged");
      double PlainWall = 0, PlainCpu = 0;
      const BuildStats PS = P.timedBuild(PlainWall, PlainCpu);
      R.addBuild(PlainWall, PlainCpu, /*Telemetry=*/false);
      if (!PS.Success)
        R.fail(Where + "the plain twin's build failed: " + PS.ErrorText);
    }

    R.log("build " + std::to_string(I) + " edit=" + joined(Changed) +
          " dirty=" + joined(S.DirtyTUs) +
          " run=" + std::to_string(S.Skip.PassesRun) +
          " skipped=" + std::to_string(S.Skip.PassesSkipped) +
          " remote_hits=" + std::to_string(S.RemoteHits));

    if ((I + 1) % OracleEvery == 0)
      checkOracle(R, *T.FS, *T.Driver, I, R.wantCostCheckpoint());
  }
  if (I % OracleEvery != 0) {
    Tree &T = Ts[(I - 1) % Trees];
    checkOracle(R, *T.FS, *T.Driver, I - 1, /*CostCheckpoint=*/false);
  }
  R.notePeakRss();
  return R.finish();
}

} // namespace

int runEditLoop(Run &R) {
  return runInProcess(R, {"http_server", commitEdit, 7});
}

int runWideRebuild(Run &R) {
  return runInProcess(R, {"render_engine", wideEdit, 3});
}

} // namespace perfbench
