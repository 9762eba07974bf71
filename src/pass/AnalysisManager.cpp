//===- pass/AnalysisManager.cpp - Analysis caching -----------------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pass/AnalysisManager.h"

using namespace sc;

AnalysisManager::SlotShard &AnalysisManager::shardFor(const Function &F) {
  uintptr_t P = reinterpret_cast<uintptr_t>(&F);
  return SlotShards[(P >> 6) % NumSlotShards];
}

AnalysisManager::FunctionAnalyses &
AnalysisManager::slotFor(const Function &F) {
  SlotShard &Shard = shardFor(F);
  std::lock_guard<std::mutex> Lock(Shard.Mu);
  return Shard.Map[&F];
}

const DominatorTree &AnalysisManager::domTree(const Function &F) {
  FunctionAnalyses &Slot = slotFor(F);
  if (!Slot.DT) {
    Slot.DT = std::make_unique<DominatorTree>(DominatorTree::compute(F));
    NumDomTrees.fetch_add(1, std::memory_order_relaxed);
  }
  return *Slot.DT;
}

const LoopInfo &AnalysisManager::loopInfo(const Function &F) {
  FunctionAnalyses &Slot = slotFor(F);
  if (!Slot.LI) {
    Slot.LI = std::make_unique<LoopInfo>(LoopInfo::compute(F, domTree(F)));
    NumLoopInfos.fetch_add(1, std::memory_order_relaxed);
  }
  return *Slot.LI;
}

const PurityInfo &AnalysisManager::purity() {
  if (Frozen) {
    assert(Purity && "purity() while frozen without a snapshot");
    return *Purity;
  }
  if (ModuleAnalysesStale.exchange(false, std::memory_order_acq_rel)) {
    Purity.reset();
    CG.reset();
  }
  if (!Purity)
    Purity = std::make_unique<PurityInfo>(PurityInfo::compute(M));
  return *Purity;
}

const CallGraph &AnalysisManager::callGraph() {
  assert(!Frozen && "callGraph() has no frozen consumers (module passes "
                    "run sequentially)");
  if (ModuleAnalysesStale.exchange(false, std::memory_order_acq_rel)) {
    Purity.reset();
    CG.reset();
  }
  if (!CG)
    CG = std::make_unique<CallGraph>(CallGraph::compute(M));
  return *CG;
}

void AnalysisManager::freezeModuleAnalyses() {
  assert(!Frozen && "nested freeze");
  Frozen = true;
}

void AnalysisManager::unfreezeModuleAnalyses() {
  assert(Frozen && "unbalanced unfreeze");
  Frozen = false;
}

void AnalysisManager::invalidate(const Function &F) {
  {
    SlotShard &Shard = shardFor(F);
    std::lock_guard<std::mutex> Lock(Shard.Mu);
    Shard.Map.erase(&F);
  }
  // Module-level analyses are invalidated lazily: resetting them here
  // would race with concurrent readers of the frozen snapshot, and in
  // sequential mode the deferred reset is observationally identical
  // (the next query recomputes either way).
  ModuleAnalysesStale.store(true, std::memory_order_release);
}

void AnalysisManager::invalidateAll() {
  assert(!Frozen && "invalidateAll() during a parallel segment");
  for (SlotShard &Shard : SlotShards) {
    std::lock_guard<std::mutex> Lock(Shard.Mu);
    Shard.Map.clear();
  }
  Purity.reset();
  CG.reset();
  ModuleAnalysesStale.store(false, std::memory_order_relaxed);
}
