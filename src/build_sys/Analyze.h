//===- build_sys/Analyze.h - Cross-build critical-path analyzer -*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `scbuild analyze`: answers "why was this build slow?" and "what got
/// slower?" from the history ledger (build_sys/History.h) alone — no
/// live process, no trace file in hand. For one build it renders the
/// critical path scan -> compile -> slowest TU -> slowest pass -> link
/// with per-node self/total times, the top-N bottleneck TUs and
/// passes, and pool attribution. With `--against=ID` it
/// also diffs two builds into new/slower/faster/fixed nodes carrying
/// stable reason codes, in the spirit of `scbuild --explain`.
///
/// Output is a human table or, with `--json`, the versioned
/// `scbuild-analyze` document defined in docs/OBSERVABILITY.md.
///
//===----------------------------------------------------------------------===//

#ifndef SC_BUILD_SYS_ANALYZE_H
#define SC_BUILD_SYS_ANALYZE_H

#include "support/FileSystem.h"

#include <cstdint>
#include <string>

namespace sc {

/// Stable reason codes attached to diff entries (documented, tested,
/// and never renamed — only added to):
///   node-new     the node exists in this build but not the baseline
///   node-slower  the node exceeds the baseline beyond the thresholds
///   node-faster  the node undercuts the baseline beyond the thresholds
///   node-fixed   the node existed in the baseline but not this build

struct AnalyzeOptions {
  uint64_t BuildId = 0;   ///< 0 = the latest record.
  uint64_t AgainstId = 0; ///< 0 = no regression diff.
  unsigned TopN = 5;      ///< Bottleneck list depth.
  bool Json = false;      ///< scbuild-analyze JSON instead of tables.
};

struct AnalyzeResult {
  bool OK = false;
  std::string Error; ///< Human diagnostic when !OK.
  std::string Text;  ///< Rendered report when OK.
};

/// Runs the analysis over the ledger at \p HistoryPath.
AnalyzeResult analyzeHistory(VirtualFileSystem &FS,
                             const std::string &HistoryPath,
                             const AnalyzeOptions &Opt);

} // namespace sc

#endif // SC_BUILD_SYS_ANALYZE_H
