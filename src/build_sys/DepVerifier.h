//===- build_sys/DepVerifier.h - Build-dependency error detection -*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Detects build-dependency errors the way "Detecting Build Dependency
/// Errors in Incremental Builds" (arXiv 2404.13295) frames them: the
/// build system *declares* a dependency graph (our ImportGraph), the
/// compilation *actually* needs files (those its calls resolve to
/// through their exports), and any disagreement is a bug with a
/// concrete failure mode —
///
///   missing dep    a TU uses a file the graph does not track. An edit
///                  to that file will not recompile the TU:
///                  **under-rebuild**, i.e. a silently stale binary.
///   redundant dep  the graph tracks a file the TU never uses. Edits
///                  to it recompile the TU for nothing: **over-rebuild**.
///
/// Findings carry stable reason codes so scripts can match them:
///
///   dep-missing: <TU> reads '<path>' (calls '<sym>') but the import
///                graph does not track it
///   dep-redundant: <TU> imports '<path>' but never reads it
///
/// In a project that compiles cleanly, MiniC's semantics make a
/// *natural* missing dep impossible (Sema rejects calls it cannot
/// resolve), so the verifier also supports a fault-injection plant
/// file — `<OutDir>/verify.plant` — that drops or adds declared edges
/// before the cross-check. scworkload's `plant` scenario node writes
/// it; `scbuild --verify-deps` auto-loads it. This is the same
/// hidden-hook idiom as `scbuild --inject-fault`.
///
//===----------------------------------------------------------------------===//

#ifndef SC_BUILD_SYS_DEPVERIFIER_H
#define SC_BUILD_SYS_DEPVERIFIER_H

#include "support/FileSystem.h"

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace sc {

/// One declared-vs-actual disagreement.
struct DepFinding {
  enum class Kind { Missing, Redundant };

  Kind K = Kind::Missing;
  std::string TU;   // The translation unit with the bad edge.
  std::string Path; // The dependency in question.
  std::string Via;  // Missing only: the symbol that needed Path.

  /// The stable reason line (see file comment).
  std::string reason() const;
};

/// Result of one verification pass.
struct DepVerifyReport {
  std::vector<DepFinding> Findings; // Sorted by reason text.
  unsigned TUsChecked = 0;          // TUs cross-checked.
  unsigned NumMissing = 0;
  unsigned NumRedundant = 0;

  bool clean() const { return Findings.empty(); }
};

/// Fault-injection edits applied to the *declared* graph before the
/// cross-check (the actual accesses are never faked). Dropping a
/// genuinely used edge manufactures a missing dep; adding an unused
/// one manufactures a redundant dep.
struct DepVerifyPlant {
  std::vector<std::pair<std::string, std::string>> DropEdges; // (TU, dep)
  std::vector<std::pair<std::string, std::string>> AddEdges;  // (TU, dep)

  bool empty() const { return DropEdges.empty() && AddEdges.empty(); }
};

class DepVerifier {
public:
  /// Cross-checks every TU in \p Declared (path -> tracked direct
  /// deps, i.e. the ImportGraph edges the build system will react to)
  /// against the files the TU's compilation actually needs, found by
  /// resolving its external calls through the exports of the files in
  /// \p FS. \p Plant (optional) perturbs the declared edges
  /// first. Deterministic: TUs in sorted order, findings sorted.
  static DepVerifyReport
  verify(VirtualFileSystem &FS,
         const std::map<std::string, std::vector<std::string>> &Declared,
         const DepVerifyPlant *Plant = nullptr);

  /// `<OutDir>/verify.plant`.
  static std::string plantPath(const std::string &OutDir);

  /// Loads the plant file if present and well-formed; nullopt when
  /// absent. A malformed file yields an *empty* plant plus \p Error.
  static std::optional<DepVerifyPlant>
  loadPlant(VirtualFileSystem &FS, const std::string &OutDir,
            std::string *Error = nullptr);

  /// Writes (or, for an empty plant, removes) the plant file.
  static bool savePlant(VirtualFileSystem &FS, const std::string &OutDir,
                        const DepVerifyPlant &Plant);
};

} // namespace sc

#endif // SC_BUILD_SYS_DEPVERIFIER_H
