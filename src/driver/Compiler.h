//===- driver/Compiler.h - Compilation facade -------------------*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler's public entry point: source text in, VISA object out.
/// One Compiler instance is configured either stateless (baseline) or
/// stateful (the paper's system, wired to a BuildStateDB). The build
/// system invokes compile() per dirty translation unit.
///
//===----------------------------------------------------------------------===//

#ifndef SC_DRIVER_COMPILER_H
#define SC_DRIVER_COMPILER_H

#include "codegen/VISA.h"
#include "lang/Sema.h"
#include "pass/PassManager.h"
#include "state/BuildStateDB.h"
#include "state/StatefulPolicy.h"
#include "transforms/Passes.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

namespace sc {

class TaskPool;
class TraceRecorder;
class MetricsRegistry;

/// Per-build memo of pre-optimization function fingerprints, keyed by
/// a hash of (TUKey, source bytes, visible import signatures) — the
/// complete input of IR generation, hence of the fingerprints. A TU
/// recompiled because a dependency's *implementation* changed (its
/// interface hash is what the key folds in) hits the memo and skips
/// re-hashing every function. Thread-safe; shared across the parallel
/// compilations of one BuildDriver.
class FingerprintMemo {
public:
  /// Copies the memoized fingerprints into \p Out on hit.
  bool lookup(uint64_t Key, std::map<std::string, uint64_t> &Out) const;

  void insert(uint64_t Key, std::map<std::string, uint64_t> Fingerprints);

  size_t size() const;

private:
  /// Sharded by key so the parallel compilations of one build don't
  /// serialize on a single memo mutex.
  static constexpr size_t NumShards = 8;
  struct Shard {
    mutable std::mutex Mu;
    std::map<uint64_t, std::map<std::string, uint64_t>> Entries;
  };
  Shard &shardFor(uint64_t Key) {
    return Shards[(Key * 0x9E3779B97F4A7C15ull) >> 61];
  }
  const Shard &shardFor(uint64_t Key) const {
    return Shards[(Key * 0x9E3779B97F4A7C15ull) >> 61];
  }
  Shard Shards[NumShards];
};

struct CompilerOptions {
  OptLevel Opt = OptLevel::O2;

  /// Skip policy. Mode::Stateless is the baseline compiler; the other
  /// modes require a BuildStateDB to be attached.
  StatefulConfig Stateful{StatefulConfig::Mode::Stateless, 0, true};

  /// Run the IR verifier after each changing pass (tests/debugging).
  bool VerifyEach = false;

  /// Folded into the pipeline signature: bump to invalidate all
  /// persisted dormancy state (simulates a compiler upgrade).
  uint32_t CompilerVersion = 1;

  /// Optional shared worker pool enabling function-level parallelism
  /// in the middle end (and parallel fingerprinting). Owned by the
  /// caller (one pool per BuildDriver, shared with TU-level jobs).
  /// Deliberately NOT part of any configuration hash: parallelism
  /// never changes output, so dormancy state is portable across -j.
  TaskPool *Workers = nullptr;

  /// Optional per-build fingerprint memo; see FingerprintMemo.
  FingerprintMemo *FPMemo = nullptr;

  /// Optional telemetry sinks (support/Trace.h, support/Metrics.h).
  /// Like Workers/FPMemo these are observation-only plumbing: they
  /// never change what the compiler produces and are deliberately NOT
  /// part of any configuration hash.
  TraceRecorder *Trace = nullptr;
  MetricsRegistry *Metrics = nullptr;

  /// Capture the per-(function, pass) decision log into
  /// CompileResult::Decisions (the `scbuild --explain` data source).
  bool RecordDecisions = false;
};

/// Wall-clock spent per compilation phase, in microseconds.
struct PhaseTimings {
  double FrontendUs = 0; // Lex + parse + sema + IR generation.
  double MiddleUs = 0;   // Optimization pipeline.
  double BackendUs = 0;  // ISel + RA + peephole + object emission.
  double StateUs = 0;    // Fingerprinting + state bookkeeping.

  double totalUs() const {
    return FrontendUs + MiddleUs + BackendUs + StateUs;
  }

  /// Folds another TU's timings into this one (commutative, so the
  /// per-worker merge order of parallel builds never changes totals).
  void accumulate(const PhaseTimings &Other) {
    FrontendUs += Other.FrontendUs;
    MiddleUs += Other.MiddleUs;
    BackendUs += Other.BackendUs;
    StateUs += Other.StateUs;
  }
};

struct CompileResult {
  bool Success = false;
  std::string DiagText; // Rendered diagnostics when !Success.

  MModule Object;            // Valid when Success.
  ModuleInterface Interface; // Exported function signatures.

  PhaseTimings Timings;
  PipelineStats PassStats;
  StatefulStats SkipStats;
  TUDecisionLog Decisions; // Populated when Options.RecordDecisions.
  std::map<std::string, uint64_t> Fingerprints;
  size_t IRInstsBeforeOpt = 0;
  size_t IRInstsAfterOpt = 0;
};

class Compiler {
public:
  /// \p DB may be null only for Mode::Stateless.
  explicit Compiler(CompilerOptions Options, BuildStateDB *DB = nullptr);

  /// Compiles one translation unit. \p TUKey names the unit in the
  /// BuildStateDB (the build system passes the source path);
  /// \p Imports lists the signatures made visible by the unit's
  /// imports (resolved by the caller).
  CompileResult compile(const std::string &TUKey, const std::string &Source,
                        const ModuleInterface &Imports);

  /// Parses just enough of \p Source to extract its exported interface
  /// and import list (used by the build system's dependency scanner).
  /// Returns std::nullopt on syntax errors.
  static std::optional<std::pair<ModuleInterface, std::vector<std::string>>>
  scanInterface(const std::string &Source);

  const CompilerOptions &options() const { return Options; }
  const PassPipeline &pipeline() const { return Pipeline; }

  /// Pipeline signature including opt level and compiler version.
  uint64_t pipelineSignature() const;

private:
  CompilerOptions Options;
  BuildStateDB *DB;
  PassPipeline Pipeline;
};

} // namespace sc

#endif // SC_DRIVER_COMPILER_H
