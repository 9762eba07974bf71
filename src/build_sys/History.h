//===- build_sys/History.h - Cross-build history ledger ---------*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The build-history ledger: an append-only `<OutDir>/history.jsonl`
/// holding one checksummed JSON record per exit of a build that holds
/// the build lock — success and failure alike — so "are rebuilds getting
/// slower?" and "why was THIS build slow?" survive the process that
/// could have answered them. `scbuild analyze` (build_sys/Analyze.h)
/// consumes the ledger; docs/OBSERVABILITY.md documents the record
/// schema and its versioning policy.
///
/// Durability model: the VFS has no append primitive, so an append is
/// read + concat + atomicWriteFile — the same temp
/// (`<path>.tmp.<pid>.<n>`) + fsync + rename path every other artifact
/// takes, which also gives `--history-limit` truncation for free (drop
/// the oldest lines in the same rewrite). Each line carries a content
/// checksum (`"crc"`); loading and appending skip and count lines that
/// are torn, truncated, or fail their checksum, so a writer that died
/// mid-rename can never poison earlier records. An append keeps the
/// surviving lines byte for byte and parses only the newest one; given
/// a HistoryTail that still matches the file's stat, it parses none.
/// Ledger I/O is observation, not build state: any failure costs one
/// warning and a counter, never the build.
///
//===----------------------------------------------------------------------===//

#ifndef SC_BUILD_SYS_HISTORY_H
#define SC_BUILD_SYS_HISTORY_H

#include "build_sys/BuildSystem.h"
#include "support/FileSystem.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace sc {

/// Current ledger record schema. Additive fields do not bump this
/// (loaders skip unknown keys); removing or re-typing a field does.
/// Version 2 dropped the "samples" array; version-1 lines still load.
inline constexpr uint64_t HistorySchemaVersion = 2;

/// Wall-clock duration of one TU's compile (from its trace span).
struct HistoryTU {
  std::string Name; // TU key, e.g. "util.mc".
  uint64_t DurUs = 0;
};

/// One pass's aggregate across every function it ran on this build.
struct HistoryPass {
  std::string Name;
  uint64_t DurUs = 0;
  uint64_t Count = 0; // Executions summed into DurUs.
};

/// One build, as the ledger remembers it: the build's facts (the
/// BuildStats part, written and parsed by the list in BuildFacts.h)
/// plus what only the ledger keeps.
struct HistoryRecord : BuildStats {
  uint64_t SchemaVersion = HistorySchemaVersion;
  uint64_t UnixMs = 0; // Wall-clock build end.

  std::vector<HistoryTU> TUs;      // Slowest first, capped.
  std::vector<HistoryPass> Passes; // Aggregate per pass name.

  // Metrics snapshot at build exit, minus the build.* facts the record
  // already carries: pool.* / daemon.* / cache.* and whatever
  // else the registry holds.
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, double> Gauges;

  uint64_t WarningsCount = 0; // Warnings.size() when the record was made.
};

/// load() result: the surviving records plus how many damaged lines
/// were skipped to get them.
struct HistoryLoadResult {
  std::vector<HistoryRecord> Records; // File (= BuildId) order.
  uint64_t Skipped = 0;
};

/// What a writer remembers of the ledger it last wrote — three values,
/// no ledger bytes: the file's stat right after that write, the id of
/// its newest record and its line count.
struct HistoryTail {
  std::optional<FileStat> Stat; ///< Unset: trust nothing.
  uint64_t LastId = 0;
  size_t Lines = 0;
};

/// Static codec + ledger I/O. All functions are pure over their VFS.
class BuildHistory {
public:
  /// One record as its ledger line (no trailing newline), checksum
  /// included: `{...,"crc":"<16 hex>"}` where the crc covers every
  /// byte before the `,"crc"` suffix. Each line is standalone valid
  /// JSON, so `python3 -c 'json.loads(line)'` works per line.
  static std::string serializeRecord(const HistoryRecord &R);

  /// Parses and checksum-verifies one ledger line. False (and \p Out
  /// untouched beyond scratch) for torn/corrupt/mismatched lines.
  static bool parseRecord(const std::string &Line, HistoryRecord &Out);

  /// Loads the ledger at \p Path; a missing file is an empty ledger.
  /// Damaged lines anywhere are skipped and counted, never fatal.
  static HistoryLoadResult load(VirtualFileSystem &FS,
                                const std::string &Path);

  /// Appends \p R, assigning it the next BuildId (newest valid + 1) and
  /// retaining at most \p Limit records (oldest dropped) in one atomic
  /// rewrite. Lines that fail their checksum or lack the schema tag are
  /// dropped; of the rest only the newest is parsed. The count of
  /// damaged lines dropped lands in R.HistoryRecordsSkipped before \p R
  /// is written, and in \p SkippedOut (optional). Returns false when
  /// the rewrite itself failed.
  ///
  /// With a \p Tail whose stat still equals the file's, the ledger is
  /// the one this writer last wrote: its lines are kept unchecked and
  /// the id and count come from the tail. Any other ledger (no tail, an
  /// unset one, a file changed behind the writer's back) takes the
  /// checking path. A successful append refills \p Tail; a failed one
  /// unsets it.
  static bool append(VirtualFileSystem &FS, const std::string &Path,
                     HistoryRecord &R, unsigned Limit,
                     uint64_t *SkippedOut = nullptr,
                     HistoryTail *Tail = nullptr);
};

/// Assembles a record from one finished build: the stats, a metrics
/// snapshot, and the build's trace events (only those with
/// StartNs >= \p BuildStartNs — a resident daemon's recorder holds
/// older builds' events too) aggregated into per-TU durations and
/// per-pass totals.
HistoryRecord makeHistoryRecord(const BuildStats &S,
                                const MetricsRegistry *Metrics,
                                const std::vector<TraceEvent> &Events,
                                uint64_t BuildStartNs, uint64_t UnixMs);

} // namespace sc

#endif // SC_BUILD_SYS_HISTORY_H
