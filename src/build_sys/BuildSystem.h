//===- build_sys/BuildSystem.h - Incremental build system -------*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The from-scratch incremental build system (DESIGN.md §inventory):
/// the stateful layer *above* the compiler that the paper's end-to-end
/// measurements run through. One BuildDriver owns a project rooted in a
/// VirtualFileSystem and, per build() call:
///
///  1. scans every `.mc` source for its import directives and exported
///     interface (cached by content hash — the daemon scan cache);
///  2. assembles the import DAG and rejects cycles;
///  3. computes the dirty set: a file recompiles iff its content hash
///     changed, the *effective interface* of something it imports
///     changed (interface hashes propagate transitively, so a
///     body-only edit never dirties importers), or its cached object
///     is missing/corrupt;
///  4. compiles dirty files in topological order on `Jobs` worker
///     threads (the BuildStateDB is internally synchronized);
///  5. links all objects into one executable program image; and
///  6. persists the object cache, build manifest, and compiler state
///     under `<OutDir>/` so the next build — in this process or a
///     fresh one — starts warm.
///
/// Every persistent artifact is integrity-checked; damage degrades to
/// recompilation, never to a wrong program.
///
//===----------------------------------------------------------------------===//

#ifndef SC_BUILD_SYS_BUILDSYSTEM_H
#define SC_BUILD_SYS_BUILDSYSTEM_H

#include "driver/Compiler.h"
#include "support/FileSystem.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace sc {

class BuildDriverImpl;

/// Configuration for one BuildDriver.
struct BuildOptions {
  /// Per-TU compiler configuration (opt level, skip policy, reuse).
  CompilerOptions Compiler;

  /// Total concurrency: one work-stealing pool of this many threads
  /// (including the calling thread; 1 = fully in-thread) is shared by
  /// TU-level compile jobs AND intra-TU function-pass tasks. The
  /// linked program and the persisted compiler state are
  /// byte-identical for any Jobs value.
  unsigned Jobs = 1;

  /// Directory (inside the project filesystem) holding objects, the
  /// build manifest, and the persisted compiler state.
  std::string OutDir = "out";

  /// Milliseconds to wait (with doubling backoff) for the advisory
  /// build lock `<OutDir>/.lock` when another build holds it. On
  /// timeout the build degrades to read-only: it compiles and links
  /// correctly in memory but persists nothing (BuildStats::ReadOnly).
  unsigned LockTimeoutMs = 2000;

  /// Initial lock-retry backoff in milliseconds (doubles, capped 8x).
  unsigned LockBackoffMs = 5;

  /// The caller already holds the advisory build lock for OutDir and
  /// keeps it across build() calls (the daemon holds it for its whole
  /// lifetime). build() then neither acquires nor releases the lock,
  /// and never degrades to read-only over it.
  bool ExternalLock = false;

  /// Maximum records retained in the build-history ledger
  /// `<OutDir>/history.jsonl` (see build_sys/History.h). Every build
  /// exit appends one record; when the ledger exceeds this, the oldest
  /// records are dropped in the same atomic rewrite. 0 disables the
  /// ledger entirely.
  unsigned HistoryLimit = 512;

  /// After a successful link, cross-check the dependencies each TU
  /// *actually used* (traced file reads during interface resolution)
  /// against the edges the ImportGraph tracks, via
  /// build_sys/DepVerifier.h. Findings — missing deps (read but not
  /// tracked: under-rebuild risk) and redundant deps (tracked but
  /// never read: over-rebuild) — land in BuildStats::DepFindings with
  /// stable `dep-missing:` / `dep-redundant:` reason codes. Purely
  /// observational: never changes what gets built.
  bool VerifyDeps = false;

  /// Host path of an `sccached` socket to use as a shared remote
  /// object-cache tier; empty (the default) disables the tier.
  /// Tiering per TU: local miss -> remote fetch (verify, admit
  /// locally, skip the recompile) -> on remote miss compile and
  /// publish; local hits are touched remotely (published when absent)
  /// so a warm builder keeps the fleet cache populated. Fetches and
  /// touches each go out as one batch per build. Any remote
  /// failure — dead daemon, protocol error — degrades the build to
  /// local-only with a single warning; it never fails the build.
  std::string RemoteCache;
};

/// Everything one build() call did, and how long each phase took. Each
/// scalar member is a fact in the list in BuildFacts.h; a new one needs
/// a line there.
struct BuildStats {
  bool Success = false;
  std::string ErrorText; // Rendered diagnostics when !Success.

  /// Non-fatal degradations the user should know about: persistence
  /// failures (state not saved — next build is colder than it should
  /// be), lock contention (read-only fallback), and state-DB salvage.
  std::vector<std::string> Warnings;

  /// True when the advisory build lock could not be acquired: the
  /// build ran correctly in memory but persisted nothing.
  bool ReadOnly = false;

  /// State-DB segment salvage from the initial load (first build of a
  /// driver only): TUs whose dormancy records survived a damaged
  /// store, and TUs dropped to cold compilation.
  uint64_t StateTUsSalvaged = 0;
  uint64_t StateTUsDropped = 0;

  unsigned FilesCompiled = 0; // Dirty files recompiled this build.
  unsigned FilesTotal = 0;    // Source files in the project.

  /// The files this build decided to recompile (TU keys, scan order).
  /// Recorded in the history ledger so cross-build analysis can tell
  /// "the same TU keeps recompiling" from "everything was dirty".
  std::vector<std::string> DirtyTUs;

  //===--- History ledger (build_sys/History.h) ---------------------------===//

  /// Id of the history record this build appended; 0 when the ledger
  /// is disabled or the append failed.
  uint64_t BuildId = 0;

  /// Damaged (torn/corrupt) trailing ledger records skipped while
  /// loading history for this build's append. Nonzero means a prior
  /// writer died mid-append; earlier records were preserved.
  uint64_t HistoryRecordsSkipped = 0;

  /// Trace-ring overwrites during this build (TraceRecorder drops).
  /// Nonzero means the emitted trace is truncated; surfaced as one
  /// build warning and under "trace" in --report-json.
  uint64_t TraceEventsDropped = 0;

  //===--- Warm-cache counters (daemon observability) ---------------------===//

  /// Interface scans actually performed this build (scan-cache misses).
  /// A warm no-op rebuild in a resident driver performs zero.
  uint64_t InterfaceScans = 0;

  /// Interface scans answered from the content-hash cache this build.
  uint64_t ScanCacheHits = 0;

  /// Object files deserialized from bytes this build (parsed-object
  /// cache misses). A warm rebuild re-parses none.
  uint64_t ObjectsParsed = 0;

  /// Source and object files whose bytes this build read. A stat-clean
  /// file (build_sys/Manifest.h) is not read when a resident driver
  /// already holds its scan result or parsed object, so a warm rebuild
  /// reads what changed and the sources it recompiles.
  uint64_t SourcesRead = 0;
  uint64_t ObjectsRead = 0;

  /// Orphaned atomic-write temp files swept at build start (debris of
  /// a crashed previous build).
  unsigned TempFilesSwept = 0;

  //===--- Remote object-cache tier (BuildOptions::RemoteCache) -----------===//

  /// Dirty TUs whose object was fetched (verified) from sccached
  /// instead of recompiled.
  uint64_t RemoteHits = 0;

  /// Dirty TUs the remote cache did not have (compiled locally, then
  /// published).
  uint64_t RemoteMisses = 0;

  /// Objects published to the remote cache this build (after a
  /// compile, or for a locally-clean TU the remote was missing).
  uint64_t RemotePuts = 0;

  /// Remote operations that failed. The first failure disables the
  /// tier for this driver's lifetime (local-only, one warning), so in
  /// practice this is 0 or 1 per build.
  uint64_t RemoteErrors = 0;

  /// Request/response exchanges with sccached this build: one per batch
  /// of up to CacheMaxBatch fetches or touches, and one per publish. A
  /// warm build that compiles nothing makes one.
  uint64_t RemoteRoundTrips = 0;

  //===--- Dependency verifier (BuildOptions::VerifyDeps) -----------------===//

  /// TUs whose declared-vs-actual dependency sets were cross-checked.
  unsigned DepsTUsChecked = 0;

  /// Edges a TU actually read but the import graph does not track.
  unsigned DepsMissing = 0;

  /// Edges the import graph tracks but the TU never read.
  unsigned DepsRedundant = 0;

  /// One stable reason line per finding (`dep-missing: ...` /
  /// `dep-redundant: ...`), sorted; empty when the check passed or
  /// VerifyDeps was off.
  std::vector<std::string> DepFindings;

  //===--- Phase timers (wall clock, microseconds) -----------------------===//

  double ScanUs = 0;    // Listing, scanning, DAG, dirty set.
  double CompileUs = 0; // Compiling dirty files (wall, not CPU-sum).
  double LinkUs = 0;    // Object loading + symbol resolution.
  double StateIOUs = 0; // Manifest + state DB load/save.
  double TotalUs = 0;   // The whole build() call.

  /// Per-phase compile time summed over recompiled TUs (CPU-sum; under
  /// Jobs>1 this exceeds CompileUs).
  PhaseTimings CompilePhases;

  /// Pass-skip counters summed over recompiled TUs.
  StatefulStats Skip;

  /// Serialized size of the compiler state after this build (0 when
  /// running stateless).
  uint64_t StateDBBytes = 0;

  /// Total bytes of all linked object files.
  uint64_t ObjectBytes = 0;
};

/// Drives incremental builds of one project. Long-lived: in-memory
/// caches (scan results, parsed objects, compiler state) persist
/// across build() calls, which is what makes a warm no-op rebuild
/// nearly free — the "build daemon" usage mode.
class BuildDriver {
public:
  BuildDriver(VirtualFileSystem &FS, BuildOptions Options);
  ~BuildDriver();

  BuildDriver(const BuildDriver &) = delete;
  BuildDriver &operator=(const BuildDriver &) = delete;

  /// Runs one incremental build: scan, dirty set, compile, link,
  /// persist. Always safe to call again after a failure.
  BuildStats build();

  /// Drops every build artifact (objects, manifest, state DB) and all
  /// in-memory caches; the next build() is cold.
  void clean();

  /// The linked program of the most recent successful build; null
  /// before the first success.
  const MModule *program() const;

  /// The compiler state shared by every TU compilation.
  const BuildStateDB &stateDB() const;

  const BuildOptions &options() const;

private:
  std::unique_ptr<BuildDriverImpl> Impl;
};

} // namespace sc

#endif // SC_BUILD_SYS_BUILDSYSTEM_H
