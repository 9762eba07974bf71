//===- pass/AnalysisManager.h - Analysis caching ----------------*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Caches analysis results between passes and recomputes them lazily
/// after invalidation. This laziness is what makes dormant-pass
/// skipping sound for analyses: analyses are never "skipped", they are
/// simply not computed until a pass that actually runs requests them.
///
/// Thread-safety contract for the parallel pass engine: per-function
/// analyses may be queried/invalidated concurrently as long as each
/// function is touched by at most one thread at a time (the engine
/// guarantees this — one task per function). Module-level analyses
/// (purity, call graph) are snapshotted and frozen for the duration of
/// each parallel function-pass position; invalidation while frozen is
/// deferred via a stale flag and applied at the next unfrozen query.
///
//===----------------------------------------------------------------------===//

#ifndef SC_PASS_ANALYSISMANAGER_H
#define SC_PASS_ANALYSISMANAGER_H

#include "analysis/CallGraph.h"
#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "analysis/Purity.h"
#include "ir/IR.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>

namespace sc {

class AnalysisManager {
public:
  explicit AnalysisManager(Module &M) : M(M) {}

  Module &module() { return M; }

  //===--- Per-function analyses (lazily computed, cached) -----------------===//

  const DominatorTree &domTree(const Function &F);
  const LoopInfo &loopInfo(const Function &F);

  //===--- Module-level analyses --------------------------------------------===//

  const PurityInfo &purity();
  const CallGraph &callGraph();

  /// Freezes the current module-analysis snapshot: while frozen,
  /// purity()/callGraph() return the snapshot as-is and invalidate()
  /// only defers (sets a stale flag) instead of dropping them. The
  /// parallel engine freezes around each function-pass position so
  /// every function sees the same purity facts regardless of which
  /// sibling tasks have already mutated their own functions. Callers
  /// must materialize the analyses they need (e.g. call purity())
  /// before freezing.
  void freezeModuleAnalyses();
  void unfreezeModuleAnalyses();

  //===--- Invalidation -------------------------------------------------------===//

  /// Drops cached per-function analyses for \p F. Called by every
  /// function pass that reports a change. Module-level analyses are
  /// structural (call edges, purity) and also conservatively dropped
  /// (deferred while frozen): transforms can delete calls.
  void invalidate(const Function &F);

  /// Drops everything; called after module passes that change IR.
  /// Not safe concurrently with queries (module passes are sequential).
  void invalidateAll();

  //===--- Statistics -----------------------------------------------------------===//

  unsigned domTreeComputations() const {
    return NumDomTrees.load(std::memory_order_relaxed);
  }
  unsigned loopInfoComputations() const {
    return NumLoopInfos.load(std::memory_order_relaxed);
  }

private:
  struct FunctionAnalyses {
    std::unique_ptr<DominatorTree> DT;
    std::unique_ptr<LoopInfo> LI;
  };

  /// The per-function slot map is sharded by function pointer so
  /// concurrent chains' lookups/invalidations rarely collide on one
  /// mutex.
  static constexpr size_t NumSlotShards = 8;
  struct SlotShard {
    std::mutex Mu;
    std::map<const Function *, FunctionAnalyses> Map;
  };

  SlotShard &shardFor(const Function &F);

  /// Locked map access; the returned reference is stable (std::map)
  /// and, per the contract above, only touched by the one thread
  /// currently processing \p F.
  FunctionAnalyses &slotFor(const Function &F);

  Module &M;
  SlotShard SlotShards[NumSlotShards];
  std::unique_ptr<PurityInfo> Purity;
  std::unique_ptr<CallGraph> CG;
  bool Frozen = false;
  /// Set by invalidate() while frozen; consumed by the next unfrozen
  /// purity()/callGraph() query.
  std::atomic<bool> ModuleAnalysesStale{false};
  std::atomic<unsigned> NumDomTrees{0};
  std::atomic<unsigned> NumLoopInfos{0};
};

} // namespace sc

#endif // SC_PASS_ANALYSISMANAGER_H
