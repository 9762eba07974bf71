//===- state/StatefulPolicy.cpp - Dormant-pass skip policy ----------------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "state/StatefulPolicy.h"


using namespace sc;

StatefulInstrumentation::StatefulInstrumentation(
    const StatefulConfig &Config, const TUState *Prev,
    uint64_t PipelineSignature, size_t PipelineLength,
    std::map<std::string, uint64_t> Fingerprints)
    : Config(Config), Prev(Prev), PipelineSignature(PipelineSignature),
      PipelineLength(PipelineLength), Fingerprints(std::move(Fingerprints)) {
  // Records from a different pipeline are meaningless; drop them.
  if (Prev && Prev->PipelineSignature != PipelineSignature) {
    this->Prev = nullptr;
    SigMismatch = true;
  }

  NewState.PipelineSignature = PipelineSignature;
  NewState.ModuleDormancy.assign(PipelineLength, 0);
  Decisions.Module.assign(PipelineLength, TUDecisionLog::NoDecision);

  // Precompute every function's skip verdict once. The old engine
  // re-walked the decision ladder under a global mutex for every
  // (function, pass) query — 27x per function on O2; this makes the
  // per-pass hot path a map find plus slot reads, with no lock.
  for (const auto &[Name, FP] : this->Fingerprints)
    initSlot(Slots[Name], Name, FP);
}

void StatefulInstrumentation::initSlot(FnSlot &S, const std::string &FName,
                                       uint64_t Fingerprint) {
  S.Fingerprint = Fingerprint;
  if (Prev) {
    auto It = Prev->Functions.find(FName);
    if (It != Prev->Functions.end()) {
      S.PrevAge = It->second.Age;
      if (It->second.Dormancy.size() == PipelineLength)
        S.PrevDormancy = &It->second.Dormancy;
    }
  }

  // The decision ladder; mirrors the historical usableRecord().
  if (Config.SkipMode == StatefulConfig::Mode::Stateless) {
    S.NoRecWhy = PassDecision::RanAlways;
    return;
  }
  if (!Prev) {
    S.NoRecWhy = SigMismatch ? PassDecision::RanSignatureChange
                             : PassDecision::RanColdState;
    return;
  }
  auto It = Prev->Functions.find(FName);
  if (It == Prev->Functions.end()) {
    S.NoRecWhy = PassDecision::RanNewFunction;
    return;
  }
  const FunctionRecord &Rec = It->second;
  if (Rec.Dormancy.size() != PipelineLength) {
    S.NoRecWhy = PassDecision::RanStaleRecord;
    return;
  }
  if (Config.SkipMode == StatefulConfig::Mode::ExactSkip &&
      Fingerprint != Rec.Fingerprint) {
    S.NoRecWhy = PassDecision::RanFingerprint;
    return;
  }
  if (Config.RefreshInterval != 0 && Rec.Age + 1 >= Config.RefreshInterval) {
    S.Refresh = true;
    S.NoRecWhy = PassDecision::RanRefresh;
    return;
  }
  S.Rec = &Rec;
}

StatefulInstrumentation::FnSlot &
StatefulInstrumentation::slotFor(const std::string &FName) {
  auto It = Slots.find(FName);
  if (It != Slots.end())
    return It->second;
  // Unknown function (not in the fingerprint set): rare safety path.
  std::lock_guard<std::mutex> Lock(OverflowMu);
  auto [OIt, Inserted] = Overflow.try_emplace(FName);
  if (Inserted)
    initSlot(OIt->second, FName, 0);
  return OIt->second;
}

void StatefulInstrumentation::setReusedFunctions(
    std::set<std::string> Names) {
  Stats.FunctionsReused = Names.size();
  for (const std::string &Name : Names)
    slotFor(Name).Reused = true;
}

bool StatefulInstrumentation::shouldRunPass(const std::string &,
                                            size_t PassIndex,
                                            const Function &F,
                                            PassDecision *Reason) {
  FnSlot &S = slotFor(F.name());
  S.Queried = true;
  PassDecision Why;
  bool Run;
  if (S.Reused) {
    Why = PassDecision::SkippedReused;
    Run = false;
  } else if (!S.Rec) {
    Why = S.NoRecWhy;
    Run = true;
  } else {
    Run = S.Rec->Dormancy[PassIndex] == 0;
    Why = Run ? PassDecision::RanActive : PassDecision::SkippedDormant;
  }
  if (S.Decisions.empty())
    S.Decisions.assign(PipelineLength, TUDecisionLog::NoDecision);
  S.Decisions[PassIndex] = TUDecisionLog::pack(Why, false);
  if (Reason)
    *Reason = Why;
  return Run;
}

void StatefulInstrumentation::afterPass(const std::string &, size_t PassIndex,
                                        const Function &F, bool Changed,
                                        double) {
  FnSlot &S = slotFor(F.name());
  if (S.New.Dormancy.empty()) {
    S.New.Dormancy.assign(PipelineLength, 0);
    S.New.Fingerprint = S.Fingerprint;
  }
  S.New.Dormancy[PassIndex] = Changed ? 0 : 1;
  // The engine always queries shouldRunPass first, which sizes the
  // decision vector; direct afterPass calls (unit tests) may not.
  if (Changed && PassIndex < S.Decisions.size())
    S.Decisions[PassIndex] |= TUDecisionLog::ChangedBit;
  ++S.Runs;
}

void StatefulInstrumentation::onSkippedPass(const std::string &,
                                            size_t PassIndex,
                                            const Function &F) {
  FnSlot &S = slotFor(F.name());
  if (S.New.Dormancy.empty()) {
    S.New.Dormancy.assign(PipelineLength, 0);
    S.New.Fingerprint = S.Fingerprint;
  }
  if (S.Reused) {
    // Cache splice: the previous dormancy vector stays authoritative
    // (this skip says nothing about dormancy — the pass was bypassed
    // because the whole compilation result is reused). Unknown shape:
    // be conservative (0).
    S.New.Dormancy[PassIndex] =
        S.PrevDormancy ? (*S.PrevDormancy)[PassIndex] : 0;
  } else {
    // Carry the dormant verdict forward: the pass was not executed, so
    // the best knowledge remains "dormant as of the last real run".
    S.New.Dormancy[PassIndex] = 1;
  }
  S.SkippedAny = true;
  ++S.Skips;
}

bool StatefulInstrumentation::shouldRunModulePass(const std::string &,
                                                  size_t PassIndex,
                                                  const Module &,
                                                  PassDecision *Reason) {
  // Module passes execute at the engine's sequential barriers — no
  // function chain is in flight — so this needs no lock.
  PassDecision Why;
  bool Run;
  if (!Config.SkipModulePasses ||
      Config.SkipMode == StatefulConfig::Mode::Stateless) {
    Why = PassDecision::RanAlways;
    Run = true;
  } else if (!Prev) {
    Why = SigMismatch ? PassDecision::RanSignatureChange
                      : PassDecision::RanColdState;
    Run = true;
  } else if (PassIndex >= Prev->ModuleDormancy.size()) {
    Why = PassDecision::RanStaleRecord;
    Run = true;
  } else if (Prev->ModuleDormancy[PassIndex] == 0) {
    Why = PassDecision::RanActive;
    Run = true;
  } else {
    // Dormant last build: skip and carry the verdict forward.
    Why = PassDecision::SkippedDormant;
    Run = false;
    NewState.ModuleDormancy[PassIndex] = 1;
    ++Stats.PassesSkipped;
  }
  Decisions.Module[PassIndex] = TUDecisionLog::pack(Why, false);
  if (Reason)
    *Reason = Why;
  return Run;
}

void StatefulInstrumentation::afterModulePass(const std::string &,
                                              size_t PassIndex, const Module &,
                                              bool Changed, double) {
  NewState.ModuleDormancy[PassIndex] = Changed ? 0 : 1;
  if (Changed)
    Decisions.Module[PassIndex] |= TUDecisionLog::ChangedBit;
  ++Stats.PassesRun;
}

void StatefulInstrumentation::finalize() const {
  // Merge-on-quiesce: fold the per-function slots into the aggregate
  // counters exactly once, after the pipeline finished (the engine's
  // barrier orders all slot writes before this read).
  if (Finalized)
    return;
  Finalized = true;
  auto Fold = [this](const std::map<std::string, FnSlot> &M) {
    for (const auto &[Name, S] : M) {
      (void)Name;
      Stats.PassesRun += S.Runs;
      Stats.PassesSkipped += S.Skips;
      if (S.Queried && !S.Reused && S.Rec)
        ++Stats.FunctionsMatched;
      // Reused functions short-circuit before the refresh ladder.
      if (S.Queried && !S.Reused && S.Refresh)
        ++Stats.FunctionsRefreshed;
    }
  };
  Fold(Slots);
  Fold(Overflow);
}

TUState StatefulInstrumentation::takeNewState() {
  finalize();
  // Assemble the persisted state from the slots. Age accounting: a
  // function whose pipeline ran in full resets its age; one with at
  // least one carried-over (skipped) verdict ages.
  auto Collect = [this](std::map<std::string, FnSlot> &M) {
    for (auto &[Name, S] : M) {
      if (S.New.Dormancy.empty())
        continue; // Never touched by a function-pass segment.
      S.New.Age = S.SkippedAny ? S.PrevAge + 1 : 0;
      NewState.Functions[Name] = std::move(S.New);
    }
  };
  Collect(Slots);
  Collect(Overflow);
  return std::move(NewState);
}

TUDecisionLog StatefulInstrumentation::takeDecisions() {
  finalize();
  auto Collect = [this](std::map<std::string, FnSlot> &M) {
    for (auto &[Name, S] : M) {
      if (S.Decisions.empty())
        continue; // Never queried.
      Decisions.Functions[Name] = std::move(S.Decisions);
    }
  };
  Collect(Slots);
  Collect(Overflow);
  return std::move(Decisions);
}
