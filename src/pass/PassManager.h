//===- pass/PassManager.h - Pipeline execution ------------------*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs an ordered pipeline of function and module passes over a
/// Module, with an instrumentation hook deciding — per (function,
/// pass) — whether a pass executes. The hook is the seam where the
/// stateful compiler's dormancy-based skip policy plugs in; the
/// baseline (stateless) compiler runs with no instrumentation.
///
//===----------------------------------------------------------------------===//

#ifndef SC_PASS_PASSMANAGER_H
#define SC_PASS_PASSMANAGER_H

#include "pass/AnalysisManager.h"
#include "pass/Pass.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace sc {

class TaskPool;
class TraceRecorder;

/// Why a (function, pass) execution ran or slept. Produced by the
/// skip policy (StatefulInstrumentation fills the out-param on
/// shouldRunPass), recorded into the per-build decision log, attached
/// to trace events, and replayed by `scbuild --explain`. Values are
/// persisted in decisions.bin — append only, never renumber.
enum class PassDecision : uint8_t {
  RanAlways = 0,      // No skip policy consulted; pass always runs.
  RanColdState,       // No previous build state for this TU.
  RanSignatureChange, // Pipeline/config signature changed; state unusable.
  RanNewFunction,     // Function had no record in the previous state.
  RanStaleRecord,     // Record shape mismatch (pipeline length changed).
  RanFingerprint,     // Function fingerprint changed (body edited).
  RanRefresh,         // Dormancy refresh probe (record aged out).
  RanActive,          // Record present; pass was active last build.
  SkippedDormant,     // Pass was dormant for this function last build.
  SkippedReused,      // Whole function reused (clean fingerprint).
};

/// Stable machine-readable name for \p D (used in traces/reports).
const char *passDecisionName(PassDecision D);

/// Observer/controller of pipeline execution.
class PassInstrumentation {
public:
  virtual ~PassInstrumentation();

  /// Return false to skip this pass execution for \p F. \p PassIndex
  /// is the stable pipeline position of the pass. When \p Reason is
  /// non-null, the implementation stores why it decided either way.
  virtual bool shouldRunPass(const std::string &PassName, size_t PassIndex,
                             const Function &F,
                             PassDecision *Reason = nullptr);

  /// Called after a pass executed (not called for skipped passes).
  virtual void afterPass(const std::string &PassName, size_t PassIndex,
                         const Function &F, bool Changed, double Micros);

  /// Called when a pass execution was skipped.
  virtual void onSkippedPass(const std::string &PassName, size_t PassIndex,
                             const Function &F);

  /// Module-pass variants. Module passes are skipped per-module.
  virtual bool shouldRunModulePass(const std::string &PassName,
                                   size_t PassIndex, const Module &M,
                                   PassDecision *Reason = nullptr);
  virtual void afterModulePass(const std::string &PassName, size_t PassIndex,
                               const Module &M, bool Changed, double Micros);
};

/// Aggregate execution counters for one pipeline run.
struct PipelineStats {
  uint64_t FunctionPassRuns = 0;
  uint64_t FunctionPassSkips = 0;
  uint64_t FunctionPassChanges = 0;
  uint64_t ModulePassRuns = 0;
  uint64_t ModulePassSkips = 0;
  double TotalPassMicros = 0;
};

/// An ordered sequence of passes. Each (function, pipeline-position)
/// execution has a stable identity across builds — the key requirement
/// for matching dormancy records between builds.
///
/// Execution model: the pipeline is partitioned into SEGMENTS — a
/// segment is either one module pass or a maximal run of function
/// passes in which only the first pass may require module analyses
/// (purity). Within a function-pass segment, each function runs its
/// whole chain of passes as ONE task, in pipeline order; different
/// functions' chains are independent. This keeps per-module barriers
/// to a handful (segment boundaries) instead of one per position, and
/// makes each parallel task coarse enough that tasks from different
/// TUs interleave productively in the shared TaskPool frontier.
/// Because function passes only read their own function's IR plus
/// module analyses frozen at segment start, chaining is observationally
/// identical to the historical position-barriered engine: same
/// decisions, same output bytes, at any thread count including -j1.
class PassPipeline {
public:
  PassPipeline() = default;

  PassPipeline(PassPipeline &&) = default;
  PassPipeline &operator=(PassPipeline &&) = default;

  void addFunctionPass(std::unique_ptr<FunctionPass> P);
  void addModulePass(std::unique_ptr<ModulePass> P);

  size_t size() const { return Entries.size(); }
  bool isFunctionPass(size_t I) const { return Entries[I].FP != nullptr; }
  std::string passName(size_t I) const;

  /// Stable hash of the pass sequence; dormancy records from a build
  /// with a different pipeline signature are unusable and discarded.
  uint64_t signature() const;

  /// Runs the pipeline over \p M. \p PI may be null (always-run).
  /// When \p VerifyEach is set, the IR verifier runs after every pass
  /// execution that reported a change, aborting on malformed IR.
  ///
  /// When \p Pool is non-null, each function-pass segment fans out one
  /// chain task per function on the pool (module passes stay sequential
  /// barriers). Execution identity is unchanged — the same (function,
  /// pass-index) pairs run or skip — and output is byte-identical to
  /// the sequential engine for any thread count: functions only mutate
  /// their own IR, module analyses are frozen per segment, and stats
  /// merge commutatively. \p PI callbacks may then arrive concurrently
  /// from multiple threads; each function's chain is single-threaded,
  /// so per-function instrumentation state needs no locking but
  /// cross-function state does.
  ///
  /// When \p Trace is non-null and enabled, every executed pass emits
  /// a thread-attributed span and every skipped pass an instant event
  /// carrying the dormancy verdict (see support/Trace.h). Tracing
  /// never alters which passes run, so outputs stay byte-identical.
  PipelineStats run(Module &M, AnalysisManager &AM,
                    PassInstrumentation *PI = nullptr,
                    bool VerifyEach = false, TaskPool *Pool = nullptr,
                    TraceRecorder *Trace = nullptr) const;

private:
  struct Entry {
    std::unique_ptr<FunctionPass> FP;
    std::unique_ptr<ModulePass> MP;
  };

  std::vector<Entry> Entries;
};

} // namespace sc

#endif // SC_PASS_PASSMANAGER_H
