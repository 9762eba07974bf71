//===- workload/Scenario.h - Declarative workload scenarios -----*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A declarative, seed-deterministic workload DSL (genny-style; see
/// SNIPPETS.md §3) plus the runner that replays a parsed scenario
/// against a workspace. A scenario is flat YAML-like text:
///
/// \code
///   # A morning of refactoring on the json_lib profile.
///   scenario: refactor-storm
///   profile: json_lib
///   seed: 42
///
///   phase: warmup repeat=2
///     commit count=3
///     body-tweak
///
///   phase: storm
///     choice:
///       3 commit
///       1 hot-header
///       1 import-change
///     branch-switch percent=40
///     add-file
///
///   phase: shakeout
///     delete-file
///     commit count=2
/// \endcode
///
/// Node vocabulary (docs/WORKLOADS.md has the full grammar): the seven
/// classic edit kinds by name (`const-tweak` ... `signature-change`),
/// `body-tweak` (random body-local edit), `commit` (1-3 weighted
/// edits), `import-add` / `import-remove` / `import-change`,
/// `add-file`, `delete-file`, `hot-header` (interface-churn the most
/// imported file), `branch-switch percent=N` (touch ~N% of files at
/// once), `plant kind=missing|redundant` (deliberately break the
/// dependency graph so the verifier must report it), and `choice:`
/// (weighted probabilistic pick among its indented children).
///
/// Determinism contract: the same spec text and seed produce the same
/// edit stream, the same rendered bytes, and the same build outcomes,
/// at any -j. Everything random flows from one RNG seeded with
/// `seed:`; node execution order is the textual order.
///
/// The runner builds after every phase iteration and fails the replay
/// on any dependency-verifier finding and on non-incremental
/// divergence (the incremental manifest must byte-match a scratch
/// build of the same tree — object hashes cover the serialized object
/// bytes, so equal manifests mean byte-identical artifacts).
///
//===----------------------------------------------------------------------===//

#ifndef SC_WORKLOAD_SCENARIO_H
#define SC_WORKLOAD_SCENARIO_H

#include "build_sys/BuildSystem.h"
#include "build_sys/DepVerifier.h"
#include "support/FileSystem.h"
#include "workload/Workload.h"

#include <functional>
#include <string>
#include <vector>

namespace sc {

/// One schedulable action in a scenario.
struct ScenarioNode {
  enum class Kind : uint8_t {
    ConstTweak,
    CondFlip,
    StmtInsert,
    StmtDelete,
    BodyRewrite,
    AddFunction,
    SignatureChange,
    BodyTweak,    // Random body-local edit kind.
    Commit,       // ProjectModel::applyCommit.
    ImportAdd,
    ImportRemove,
    ImportChange, // Random add-or-remove.
    AddFile,
    DeleteFile,
    HotHeader,    // Interface-churn the most-imported file.
    BranchSwitch, // Touch ~Percent% of the files at once.
    Plant,        // Deliberate dependency error (PlantMissing selects).
    Choice,       // Weighted pick among Children.
  };

  Kind K = Kind::Commit;
  unsigned Count = 1;        // count=N — run the node N times.
  unsigned Percent = 25;     // percent=N — BranchSwitch breadth.
  bool PlantMissing = true;  // kind=missing|redundant — Plant flavor.
  std::vector<unsigned> Weights;       // Choice only, parallel to...
  std::vector<ScenarioNode> Children;  // ...these.
};

const char *scenarioNodeName(ScenarioNode::Kind K);

struct ScenarioPhase {
  std::string Name;
  unsigned Repeat = 1;
  std::vector<ScenarioNode> Nodes;
};

struct Scenario {
  std::string Name;
  std::string Profile = "json_lib";
  uint64_t Seed = 1;
  std::vector<ScenarioPhase> Phases;
};

class ScenarioParser {
public:
  /// Parses \p Text into \p Out. On failure returns false and sets
  /// \p Error to "line N: what went wrong". Strict: unknown nodes,
  /// keys, or options are errors, not warnings — a typo'd scenario
  /// must not silently test something else.
  static bool parse(const std::string &Text, Scenario &Out,
                    std::string &Error);
};

/// Renders a scenario back to spec text (parse(render(S)) == S — the
/// round-trip the parser tests rely on).
std::string renderScenario(const Scenario &S);

//===----------------------------------------------------------------------===//
// Replay
//===----------------------------------------------------------------------===//

struct ScenarioRunOptions {
  unsigned Jobs = 1;
  unsigned OptLevel = 2;
  bool Stateful = true;
  std::string OutDir = "out";

  /// Cross-check dependencies after every successful build; any
  /// finding fails the replay.
  bool VerifyDeps = true;

  /// After every successful build, rebuild the same tree from scratch
  /// in a throwaway filesystem and require manifest equality (same
  /// TUs, same object hashes). Catches under-rebuilds the verifier's
  /// static view could miss.
  bool ScratchCompare = true;

  /// When set, replaces the in-process BuildDriver: called once per
  /// phase build (scworkload --via-daemon routes builds through a
  /// running scbuildd here). Verification and scratch comparison stay
  /// in-process either way.
  std::function<BuildStats()> ExternalBuild;
};

/// The configuration a replay builds with: ExactSkip (or Stateless) at
/// Opts' opt level. A daemon that serves the replay's builds must run
/// with it.
BuildOptions scenarioBuildOptions(const ScenarioRunOptions &Opts);

/// One phase iteration's outcome ("<initial>" for the pre-phase
/// baseline build).
struct ScenarioPhaseOutcome {
  std::string Phase;
  unsigned Iteration = 0;
  std::vector<std::string> ChangedFiles;
  bool BuildOk = false;
  std::string BuildError;
  unsigned FilesCompiled = 0;
  unsigned FilesTotal = 0;
  unsigned DepsMissing = 0;
  unsigned DepsRedundant = 0;
  bool ScratchMatch = true;
  std::vector<std::string> Findings;
};

class ScenarioRunner {
public:
  ScenarioRunner(const Scenario &Sc, VirtualFileSystem &FS,
                 ScenarioRunOptions Opts);

  /// Replays the whole scenario: generate + initial build, then per
  /// phase iteration apply nodes and rebuild. Returns ok(). Stops at
  /// the first failed build (broken generated code is a runner bug);
  /// verifier findings and scratch divergence are recorded on the
  /// outcome and fail ok() without stopping the replay.
  bool run();

  bool ok() const;
  const std::vector<ScenarioPhaseOutcome> &outcomes() const {
    return Outcomes;
  }

  /// Flat log of every edit applied: "phase#iter node: changed,..." —
  /// the seed-determinism contract is that two runs of the same spec
  /// produce identical logs.
  const std::vector<std::string> &editLog() const { return EditLog; }

  /// The verdict as JSON (schema "scworkload-replay" v1); what
  /// `scworkload --report-json` writes and bench_check.py validates.
  std::string reportJson() const;

private:
  bool runNode(const ScenarioNode &N, RNG &Rand,
               const std::string &PhaseTag,
               std::vector<std::string> &Changed);
  BuildStats buildOnce();
  bool scratchMatches(std::string &Detail);

  const Scenario Sc;
  VirtualFileSystem &FS;
  ScenarioRunOptions Opts;
  ProjectModel Model;
  // Accumulated fault injection from `plant kind=missing` nodes;
  // persisted to DepVerifier::plantPath(OutDir) so the in-process
  // build (and any external scbuild --verify-deps) picks it up.
  DepVerifyPlant Plant;
  std::unique_ptr<BuildDriver> Driver;
  std::vector<ScenarioPhaseOutcome> Outcomes;
  std::vector<std::string> EditLog;
  bool Failed = false;
};

} // namespace sc

#endif // SC_WORKLOAD_SCENARIO_H
