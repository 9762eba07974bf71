//===- build_sys/ObjectCache.h - Object store + parsed cache ----*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-TU object files under `<OutDir>/<source>.o`, fronted by an
/// in-memory parsed-object cache (the build daemon's second cache):
/// clean files contribute their previous object to the link without a
/// deserialization, and repeated rebuilds without edits deserialize
/// nothing at all.
///
/// Integrity: a caller asks for an object *by expected content hash*
/// (recorded in the build manifest). A missing, vandalized, or
/// re-written object file fails the hash check and simply reports a
/// miss — the build system then recompiles the TU. Stale or corrupt
/// objects can therefore never reach the linker. The one shortcut is a
/// file the caller found stat-clean (build_sys/Manifest.h): unchanged
/// since it was written or verified, so a resident module is returned
/// without reading it, and otherwise its bytes are parsed unhashed.
///
//===----------------------------------------------------------------------===//

#ifndef SC_BUILD_SYS_OBJECTCACHE_H
#define SC_BUILD_SYS_OBJECTCACHE_H

#include "codegen/ObjectFile.h"
#include "support/FileSystem.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace sc {

class ObjectCache {
public:
  ObjectCache(VirtualFileSystem &FS, std::string OutDir);

  /// `<OutDir>/<source>.o`.
  std::string objectPath(const std::string &SourcePath) const;

  /// Serializes and writes \p Object for \p SourcePath (atomically:
  /// temp + rename, so a crash never leaves a torn object), retaining
  /// the parsed form in memory. When the write fails (disk full, torn,
  /// read-only mode) the entry is kept memory-only: this build still
  /// links correctly and the next process recompiles the TU (manifest
  /// hash mismatch). Returns the object-byte hash to record in the
  /// manifest. When \p BytesOut is non-null it receives the serialized
  /// bytes (so a remote-cache publish needs no second serialization).
  /// Thread-safe (workers store concurrently).
  uint64_t store(const std::string &SourcePath, MModule Object,
                 std::string *BytesOut = nullptr);

  /// Admits bytes fetched from the remote cache tier: verifies
  /// hash(Bytes) == ExpectedDigest, decodes, writes the object file,
  /// and retains the parsed form — all exactly like a local compile's
  /// store(), except deserializations() is NOT bumped: that counter
  /// means "parsed-object-cache miss", and a remote arrival is
  /// accounted by the driver as a RemoteHit instead. False (nothing
  /// admitted) on hash mismatch or undecodable bytes.
  bool storeFetched(const std::string &SourcePath, std::string Bytes,
                    uint64_t ExpectedDigest);

  /// Copies the serialized bytes whose hash is \p ExpectedHash into
  /// \p Out — by re-serializing the memory entry when it matches, else
  /// from disk when the on-disk bytes verify. False when neither source
  /// matches. For publishing an already-built TU to the remote cache
  /// without reading back an object the build already validated.
  bool serializedBytes(const std::string &SourcePath, uint64_t ExpectedHash,
                       std::string &Out);

  /// Returns the cached object for \p SourcePath iff the on-disk bytes
  /// hash to \p ExpectedHash (deserializing at most once per distinct
  /// byte content); null on any mismatch, damage, or absence.
  /// Memory-only entries (failed/suppressed writes) are served from
  /// memory when the hash matches. With \p StatClean the caller vouches
  /// that the file is the one whose bytes hashed to \p ExpectedHash: a
  /// resident entry with that hash is returned without a read, and
  /// otherwise the file is read and parsed but not hashed. The pointer
  /// stays valid until the entry is stored over, invalidated, or the
  /// cache is cleared.
  const MModule *load(const std::string &SourcePath, uint64_t ExpectedHash,
                      bool StatClean = false);

  /// The parsed object held in memory for \p SourcePath iff its hash is
  /// \p ExpectedHash; null otherwise. Reads no file and hashes nothing,
  /// so it proves only what the caller already proved this build: that
  /// the entry came from a load() that checked the disk bytes, or from
  /// store() / storeFetched(). Same pointer lifetime as load().
  const MModule *resident(const std::string &SourcePath,
                          uint64_t ExpectedHash) const;

  /// In read-only mode (another process holds the build lock) store()
  /// keeps entries memory-only and invalidate() leaves files on disk.
  void setWritable(bool W) { Writable = W; }

  /// True when every store() since the last reset hit the filesystem
  /// successfully; cleared by store() failures. For surfacing
  /// persistence warnings.
  bool allStoresPersisted() const;
  void resetStoreStatus();

  /// Serialized size of the most recently stored/loaded object.
  uint64_t objectBytes(const std::string &SourcePath) const;

  /// True when \p SourcePath's entry is backed by its object file: it
  /// was written by store()/storeFetched() or read by load(), not kept
  /// memory-only. Only then does the file's stat describe the entry.
  bool onDisk(const std::string &SourcePath) const;

  /// Object files whose bytes load() read since construction.
  uint64_t objectReads() const;

  /// Total object deserializations performed by load() since
  /// construction — the parsed-object cache's miss counter. A warm
  /// rebuild serves every clean TU from memory and adds zero.
  uint64_t deserializations() const;

  /// load() misses split by cause, so callers (and the remote cache
  /// tier) can tell a cold cache from a vandalized one:
  /// loadsNotFound() counts absent object files; loadsCorrupt()
  /// counts files that existed but failed the hash check or did not
  /// decode — those TUs were quarantined (recompiled), never linked.
  uint64_t loadsNotFound() const;
  uint64_t loadsCorrupt() const;

  /// Drops \p SourcePath's memory entry and deletes its object file.
  void invalidate(const std::string &SourcePath);

  /// Drops only the in-memory entries (files stay).
  void clearMemory();

private:
  struct Cached {
    uint64_t Hash = 0;     // Hash of the serialized bytes.
    uint64_t Bytes = 0;    // Serialized size.
    bool MemOnly = false;  // Not on disk (failed or suppressed write).
    MModule Object;
  };

  /// resident() for callers that already hold Mu.
  const MModule *residentLocked(const std::string &SourcePath,
                                uint64_t ExpectedHash) const;

  VirtualFileSystem &FS;
  std::string OutDir;
  bool Writable = true;
  mutable std::mutex Mu;
  std::map<std::string, Cached> Mem;
  bool StoresPersisted = true;  // Guarded by Mu.
  uint64_t Deserializations = 0; // Guarded by Mu.
  uint64_t FileReads = 0;        // Guarded by Mu.
  uint64_t NotFoundLoads = 0;    // Guarded by Mu.
  uint64_t CorruptLoads = 0;     // Guarded by Mu.
};

} // namespace sc

#endif // SC_BUILD_SYS_OBJECTCACHE_H
