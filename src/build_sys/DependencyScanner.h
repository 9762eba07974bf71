//===- build_sys/DependencyScanner.h - Import/interface scanner -*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Extracts each source file's import directives and exported
/// interface — the inputs to the import DAG and to dirty-set
/// computation. Results are memoized by content hash (the build
/// daemon's interface-scan cache): a no-op rebuild of an N-file
/// project performs zero parses.
///
//===----------------------------------------------------------------------===//

#ifndef SC_BUILD_SYS_DEPENDENCYSCANNER_H
#define SC_BUILD_SYS_DEPENDENCYSCANNER_H

#include "lang/Sema.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sc {

/// What one source file declares to the rest of the project.
struct ScanResult {
  /// False when the file has syntax errors; the interface and import
  /// list are then empty and InterfaceHash equals the content hash, so
  /// importers conservatively recompile once the file is fixed.
  bool Ok = false;

  uint64_t ContentHash = 0;

  /// Exported function signatures (what importers can call).
  ModuleInterface Interface;

  /// Paths named by `import "..."` directives, in declaration order.
  std::vector<std::string> Imports;

  /// Stable hash of Interface: unchanged under body-only edits, so a
  /// matching hash proves importers need not recompile.
  uint64_t InterfaceHash = 0;
};

/// Stable hash over an exported interface (names, arities, types).
uint64_t hashInterface(const ModuleInterface &Interface);

/// Content-hash-keyed scan memo. Not thread-safe; the build system
/// scans single-threaded before fanning out compilations.
class DependencyScanner {
public:
  /// Scans \p Content (of the file at \p Path, for diagnostics only).
  /// The returned reference is owned by the cache and stays valid
  /// until clear().
  const ScanResult &scan(const std::string &Path, const std::string &Content);

  /// scan() for bytes whose content hash the caller already knows (a
  /// stat-clean source, build_sys/Manifest.h), so they are not hashed.
  const ScanResult &scan(const std::string &Path, const std::string &Content,
                         uint64_t ContentHash);

  /// The cached result for \p ContentHash, counted as a cache hit, or
  /// null (counting nothing) when it is not resident. Same reference
  /// lifetime as scan().
  const ScanResult *lookup(uint64_t ContentHash);

  uint64_t cacheHits() const { return Hits; }
  uint64_t cacheMisses() const { return Misses; }

  /// Drops the cache when it exceeds \p MaxEntries. Invalidates
  /// previously returned references — call only between builds.
  void trim(size_t MaxEntries = 8192);

  void clear();

private:
  std::map<uint64_t, ScanResult> Cache; // Keyed by content hash.
  uint64_t Hits = 0, Misses = 0;
};

} // namespace sc

#endif // SC_BUILD_SYS_DEPENDENCYSCANNER_H
