//===- build_sys/Manifest.h - Persistent build manifest ---------*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the previous build knew about every translation unit: the
/// content hash it compiled, the combined effective interface hash of
/// its imports, and the hash of the object file it produced. The next
/// build's dirty set is exactly the disagreement between the manifest
/// and the current project.
///
/// Each entry also records the stat of the source and of the object as
/// seen by the last build that confirmed the TU clean (its source and
/// object hashed to what the entry held). A TU a build compiled or
/// fetched is recorded without stats, so the manifest of a cold build
/// is a function of the sources alone. A file is *stat-clean*
/// when its stat still equals the recorded one and its mtime is strictly
/// older than the last successful manifest write (git's racy-clean
/// rule: a file changed within the tick of that write could keep an
/// equal stat, so it is read again). The build trusts a stat-clean
/// file's recorded hash without reading it when it can
/// (docs/BUILD_SYSTEM.md, "Stat-clean files").
///
/// The on-disk form is versioned, magic-tagged, and checksummed; a
/// missing or damaged manifest degrades to a full recompile, never to
/// stale artifacts being trusted. Version 2 adds the stats; a version-1
/// manifest still loads, with empty stats that are never stat-clean.
///
//===----------------------------------------------------------------------===//

#ifndef SC_BUILD_SYS_MANIFEST_H
#define SC_BUILD_SYS_MANIFEST_H

#include "support/FileSystem.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace sc {

/// Per-TU facts recorded after a successful compilation.
struct ManifestEntry {
  uint64_t ContentHash = 0;
  uint64_t ImportsEffectiveHash = 0;
  uint64_t ObjectHash = 0; // Hash of the serialized object bytes.
  uint64_t ConfigHash = 0; // Compiler config (opt level, version).
  /// Stats taken (before any read) by the last build that confirmed
  /// the TU clean; empty after a compile or fetch, and the object's
  /// also when it is not on disk.
  FileStat SourceStat;
  FileStat ObjectStat;
};

class BuildManifest {
public:
  /// Returns the entry for \p Path, or null when unknown.
  const ManifestEntry *lookup(const std::string &Path) const;

  void update(const std::string &Path, const ManifestEntry &Entry);

  /// True when \p Now (a stat taken this build) equals \p Recorded and
  /// is strictly older than the last manifest write this object saved
  /// or loaded. Never true for an empty \p Recorded, for std::nullopt,
  /// or before any manifest write is known.
  bool statClean(const std::optional<FileStat> &Now,
                 const FileStat &Recorded) const;
  void remove(const std::string &Path);
  void clear();

  const std::map<std::string, ManifestEntry> &entries() const {
    return Entries;
  }

  std::string serialize() const;

  /// Replaces the contents from serialized bytes; false (leaving the
  /// manifest unchanged) on malformed input.
  bool deserialize(const std::string &Bytes);

  /// Records \p St, the stat of the manifest file just saved (or taken
  /// before the read that loaded it), as the racy threshold of
  /// statClean(). After a failed save the caller keeps the previous
  /// threshold, which only makes statClean() stricter.
  void markWritten(std::optional<FileStat> St) { Written = St; }

  /// Loads \p Path; its mtime, taken before the read, becomes the
  /// racy threshold.
  bool loadFromFile(VirtualFileSystem &FS, const std::string &Path);

private:
  std::map<std::string, ManifestEntry> Entries;
  /// Stat of the manifest file as last saved or loaded; its mtime is
  /// statClean()'s racy threshold. Unset when unknown.
  std::optional<FileStat> Written;
};

} // namespace sc

#endif // SC_BUILD_SYS_MANIFEST_H
