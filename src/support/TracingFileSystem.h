//===- support/TracingFileSystem.h - Access-tracing VFS decorator -*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Read-access tracing for the build-dependency verifier: wraps any
/// VirtualFileSystem (same decorator pattern as FaultyFileSystem) and
/// records which files each *scope* — in practice, each translation
/// unit being resolved — actually touched. The DepVerifier
/// (build_sys/DepVerifier.h) cross-checks these recorded accesses
/// against the ImportGraph's tracked edges, so a dependency the build
/// system forgot (under-rebuild) or invented (over-rebuild) becomes a
/// reportable finding instead of a silently wrong incremental build.
///
/// Only observing operations are recorded (readFile, exists); writes
/// pass through untouched. Recording is mutex-guarded so a traced
/// filesystem may safely back a parallel build.
///
//===----------------------------------------------------------------------===//

#ifndef SC_SUPPORT_TRACINGFILESYSTEM_H
#define SC_SUPPORT_TRACINGFILESYSTEM_H

#include "support/FileSystem.h"

#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace sc {

class TracingFileSystem : public VirtualFileSystem {
public:
  explicit TracingFileSystem(VirtualFileSystem &Base) : Base(Base) {}

  /// Attributes subsequent accesses to \p Scope (typically a TU path).
  /// The empty scope collects accesses made outside any attribution.
  void setScope(std::string Scope);

  /// Drops every recorded access (scopes included).
  void clearTrace();

  /// Paths read under \p Scope, sorted (set iteration order).
  std::vector<std::string> readsFor(const std::string &Scope) const;

  /// Every (scope -> read paths) pair recorded so far.
  std::map<std::string, std::set<std::string>> readsByScope() const;

  /// Total read/exists operations observed (not deduplicated).
  uint64_t tracedOps() const;

  /// Distinct paths read across all scopes.
  uint64_t distinctPathsTraced() const;

  //===--- VirtualFileSystem ---------------------------------------------===//

  std::optional<std::string> readFile(const std::string &Path) override;
  bool writeFile(const std::string &Path, const std::string &Content) override;
  bool exists(const std::string &Path) override;
  std::optional<FileStat> stat(const std::string &Path) override;
  bool removeFile(const std::string &Path) override;
  std::vector<std::string> listFiles() override;
  bool renameFile(const std::string &From, const std::string &To) override;
  bool syncFile(const std::string &Path) override;
  bool createExclusive(const std::string &Path,
                       const std::string &Content) override;
  std::string lastError() const override;

private:
  void record(const std::string &Path);

  VirtualFileSystem &Base;
  mutable std::mutex Mu;
  std::string Scope;
  std::map<std::string, std::set<std::string>> Reads;
  uint64_t Ops = 0;
};

} // namespace sc

#endif // SC_SUPPORT_TRACINGFILESYSTEM_H
