//===- perfbench/src/Harness.h - Shared benchmark machinery -----*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces every workload of the repository benchmark shares: run
/// options, the clock and process probes, the correctness oracle, and
/// the Run record that collects samples and prints the one-line JSON
/// result. See perfbench/README.md for the metric definitions.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "build_sys/BuildSystem.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "vm/VM.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line configuration of one benchmark run.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool Trace = false;
  /// When nonzero, stop after this many timed builds instead of at the
  /// deadline (the determinism self-test needs a fixed stream length).
  unsigned Builds = 0;
  /// Build concurrency: min(4, hardware threads); 1 on edit-loop.
  unsigned Jobs = 1;
  /// When set, a deterministic per-build log goes here.
  std::string LogPath;
  /// Source revision the binary was built from, for provenance.
  std::string Commit = "unknown";
};

/// Set-ups per run; setup_s is their median.
constexpr unsigned Setups = 5;

/// Scratch root for generated trees and trace files (relative to the
/// working directory, which keeps socket paths short).
constexpr char WorkDir[] = ".bench_work";

/// Steady-clock milliseconds since an arbitrary epoch.
double nowMs();

/// User + system CPU time of the whole process (all threads), in ms.
double processCpuMs();

/// Peak resident set size of the process so far, in MiB.
double peakRssMb();

/// Build options every workload shares: O2, HeuristicSkip (the
/// `scbuild` default), \p Jobs-way concurrency.
sc::BuildOptions benchBuildOptions(unsigned Jobs);

/// The seed of the edit stream derived from the run seed (the project
/// itself is generated from the run seed directly).
uint64_t editSeed(uint64_t Seed);

/// Runs a fixed task that shares no code or data with the program (hash
/// probes, pointer chasing and a sort over static buffers, ~2 ms) and
/// returns its wall time. The run times it after every timed build to
/// measure how fast the machine is at that moment.
double referenceWorkMs();

/// The reference task's median time on the machine the bounds were set
/// on. Every end-to-end time is scaled by ReferenceMs / the run's own
/// median reference time, so a run on a machine that is slower at the
/// moment reports what the same builds take at the reference speed.
constexpr double ReferenceMs = 2.0;

/// Removes \p Dir and everything under it, then creates it empty.
void resetDir(const std::string &Dir);

/// Brings the build-history ledger under \p OutDir to its retention
/// limit \p Limit by repeating its newest record, so the timed builds
/// run at the ledger's steady state (a tree that has seen at least
/// \p Limit builds) instead of on a ledger that grows every build.
bool prefillLedger(sc::VirtualFileSystem &FS, const std::string &OutDir,
                   unsigned Limit);

/// \p V joined with commas (determinism-log fields).
std::string joined(const std::vector<std::string> &V);

/// Current value of counter \p Name in \p M (0 when absent).
uint64_t counterValue(const sc::MetricsRegistry &M, const std::string &Name);

//===----------------------------------------------------------------------===//
// Correctness oracle
//===----------------------------------------------------------------------===//

/// Reference behaviour of the source tree in \p FS: the IR interpreter
/// over unoptimized frontend IR of every `.mc` file outside \p OutDir,
/// linked by name. Returns false (with \p Why) when the tree does not
/// pass the frontend.
bool referenceRun(sc::VirtualFileSystem &FS, const std::string &OutDir,
                  sc::ExecResult &Out, std::string &Why);

/// True when \p Got matches the reference \p Ref: neither trapped, same
/// printed values, same return value. \p Why describes a mismatch.
bool sameBehavior(const sc::ExecResult &Ref, const sc::ExecResult &Got,
                  std::string &Why);

/// VM cost of `main` in a cold Stateless build of the sources in
/// \p FS (copied into memory, so \p FS is left untouched). 0 on failure.
uint64_t statelessColdCost(sc::VirtualFileSystem &FS,
                           const std::string &OutDir, unsigned Jobs);

//===----------------------------------------------------------------------===//
// Run record
//===----------------------------------------------------------------------===//

/// Collects one run's samples and renders its result line.
class Run {
public:
  explicit Run(RunOptions Options);

  const RunOptions &options() const { return Opts; }

  /// Starts the measurement window (call after set-up).
  void startClock();

  /// True while the timed loop should go on after \p Done builds.
  bool more(unsigned Done) const;

  void addSetupSeconds(double S) { SetupS.push_back(S); }

  /// Times one run of referenceWorkMs(); call after every timed build,
  /// outside the timed window.
  void calibrate() { RefMs.push_back(referenceWorkMs()); }

  /// One timed build: its wall time, the process CPU it cost, and
  /// whether it ran with telemetry (TraceRecorder and MetricsRegistry)
  /// attached. In the traced run the plain twins' builds are the ones
  /// without.
  void addBuild(double WallMs, double CpuMs, bool Telemetry);

  /// Counts one failed, refused or wrong build and reports why.
  void fail(const std::string &Why);

  /// Outcome of one oracle comparison.
  void oracle(bool Ok, const std::string &Why);

  //--- Per-layer accumulation (traced builds only) -----------------------===//

  /// Adds \p V to the per-build sum \p Name.
  void layer(const std::string &Name, double V) { Sums[Name] += V; }
  /// Overrides the reported value of \p Name.
  void setLayer(const std::string &Name, double V) { Fixed[Name] = V; }
  /// Counts one traced build (the per-build denominator).
  void addLayerBuild() { ++LayerBuilds; }
  /// The running sum \p Name (0 when never added to).
  double sumOf(const std::string &Name) const;

  /// Folds one in-process build: BuildStats phases, with \p WallMs the
  /// benchmark-measured wall time (unattributed = wall - phases).
  void foldBuildStats(const sc::BuildStats &S, double WallMs);

  /// Adds one build's unattributed time: its wall minus scan, compile,
  /// link and state I/O. A negative value means phases overlap or are
  /// counted twice; it fails the run, naming \p Where.
  void addUnattributed(double Ms, const std::string &Where);

  /// Folds one program trace event (pass spans, remote spans).
  void foldEvent(const std::string &Category, const std::string &Name,
                 double DurMs, const std::string &Args);

  void addEditMs(double Ms) { EditMs.push_back(Ms); }

  /// True while code-cost checkpoints are still wanted: the first
  /// CostCheckpoints oracle samples of a run, a fixed prefix of the edit
  /// stream, so code_cost_ratio does not depend on how many builds the
  /// machine fits into the run.
  bool wantCostCheckpoint() const { return CostChecks < CostCheckpoints; }

  /// One checkpoint: the VM result of the incremental program and the
  /// VM cost of a cold Stateless build of the same tree.
  void addCostCheckpoint(const sc::ExecResult &Incremental,
                         uint64_t StatelessCost);

  /// Peak RSS probe at the end of the timed loop, for runs too short to
  /// reach the RssProbeBuilds-th build (where addBuild probes it).
  void notePeakRss() {
    if (PeakRss == 0)
      PeakRss = peakRssMb();
  }

  /// Appends one line to the determinism log (when enabled).
  void log(const std::string &Line);

  /// The benchmark's own spans (edit, build, round trip, VM run).
  sc::TraceRecorder &benchTrace() { return BenchTrace; }

  /// Copies one program span into the benchmark trace written at the
  /// end (the program's recorder is cleared after every build).
  void keepEvent(const sc::TraceEvent &E);

  /// Writes the trace and log files, prints provenance and the result
  /// line; returns the process exit code (nonzero on any failure).
  int finish();

private:
  /// ReferenceMs over the run's median reference time (1 without one).
  double timeScale() const;
  std::map<std::string, double> endToEndMetrics() const;
  std::map<std::string, double> perLayerMetrics() const;

  RunOptions Opts;
  double DeadlineMs = 0;
  std::vector<double> SetupS;
  std::vector<double> RefMs;
  std::vector<double> WallMs, TelemetryWallMs, PlainWallMs;
  double CpuMs = 0;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t OracleChecks = 0;
  std::map<std::string, double> Sums, Fixed;
  unsigned LayerBuilds = 0;
  std::vector<double> EditMs;
  static constexpr unsigned CostCheckpoints = 10;
  /// peak_rss_mb is probed after this many timed builds: the daemon's
  /// footprint keeps growing over a run, and a probe at the end would
  /// depend on how many builds the machine fits into it.
  static constexpr uint64_t RssProbeBuilds = 200;
  unsigned CostChecks = 0;
  uint64_t IncrementalCost = 0, StatelessCost = 0, DynamicInsts = 0;
  double PeakRss = 0;
  std::vector<std::string> LogLines;
  sc::TraceRecorder BenchTrace;
};

/// Workload entry points; each returns the process exit code.
int runEditLoop(Run &R);
int runWideRebuild(Run &R);
int runDaemonFleet(Run &R);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
