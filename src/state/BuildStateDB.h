//===- state/BuildStateDB.h - Persistent dormancy store ---------*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler's persistent memory between builds — the paper's core
/// data structure. For every translation unit it stores, per function,
/// the function's pre-optimization fingerprint and one dormancy bit
/// per pipeline position recording whether that pass changed the
/// function in the most recent compilation. Module-pass dormancy is
/// tracked per TU.
///
/// Integrity: the store is versioned and checksummed at two
/// granularities. Every per-TU segment carries its own checksum, so a
/// bit flip inside one segment drops only that TU to cold compilation
/// (partial-corruption salvage) while the rest of the store survives;
/// damage to the framing (header, segment lengths, truncation) rejects
/// the whole store and degrades to a cold build — never a wrong build.
/// A pipeline-signature mismatch (different pass sequence, optimization
/// level, or compiler version) invalidates a TU's records wholesale.
///
//===----------------------------------------------------------------------===//

#ifndef SC_STATE_BUILDSTATEDB_H
#define SC_STATE_BUILDSTATEDB_H

#include "support/FileSystem.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace sc {

/// Per-function state from the last build that compiled its TU.
struct FunctionRecord {
  /// Structural hash of the function's pre-optimization IR.
  uint64_t Fingerprint = 0;

  /// One entry per pipeline position; 1 = the pass ran (or its record
  /// was carried over) without changing the function.
  std::vector<uint8_t> Dormancy;

  /// Incremental builds since this function's records were last
  /// refreshed by a full pipeline run (drives the refresh policy).
  uint32_t Age = 0;

  /// Function-level code cache (the ReuseFunctionCode extension):
  /// CodeKey covers the function's inline closure — its own
  /// fingerprint, every reachable module-local callee's fingerprint,
  /// the module's global-usage summary, and the pipeline signature.
  /// An unchanged key proves every pass would see identical input, so
  /// the cached compiled code is byte-for-byte reusable.
  uint64_t CodeKey = 0;
  std::string CachedCode; // Serialized MFunction; empty = no cache.
};

/// Per-translation-unit state.
struct TUState {
  /// Pipeline identity these records were produced under.
  uint64_t PipelineSignature = 0;

  /// Dormancy of module passes (indexed by pipeline position; entries
  /// for function-pass positions are unused).
  std::vector<uint8_t> ModuleDormancy;

  std::map<std::string, FunctionRecord> Functions;
};

/// What a load salvaged from a damaged (or healthy) serialized store.
struct StateLoadReport {
  uint64_t TUsLoaded = 0;  // Segments that passed their checksum.
  uint64_t TUsDropped = 0; // Corrupt segments dropped (those TUs go cold).

  bool salvaged() const { return TUsDropped != 0; }
};

/// Thread-safety: the store is sharded by TU-key hash into 16
/// independently-locked stripes, so parallel workers recording
/// dormancy for different TUs almost never contend on the same lock.
/// A TUState pointer returned by lookup() stays valid under other
/// keys' updates (node-based map) and is only replaced by an update of
/// its own key — which the build system performs exactly once per TU.
/// The serialized format is shard-independent: segments are emitted in
/// globally sorted key order, byte-identical to the pre-sharding
/// single-map layout.
class BuildStateDB {
public:
  /// Looks up a TU's state; returns null when absent.
  const TUState *lookup(const std::string &TUKey) const;

  /// Installs (replaces) a TU's state after a compilation.
  void update(const std::string &TUKey, TUState State);

  /// Drops a TU's state (e.g. the source file was deleted).
  void remove(const std::string &TUKey);

  /// Drops everything (build-system clean).
  void clear();

  size_t numTUs() const;

  /// Serialized size in bytes (the E4 storage-overhead metric).
  /// Computed from the cached per-TU segments plus fixed framing —
  /// no serialize() round-trip, so it is O(dirty TUs), not O(bytes).
  uint64_t sizeBytes() const;

  //===--- Persistence ---------------------------------------------------===//

  std::string serialize() const;

  /// Replaces the contents from serialized bytes. Parses into a
  /// scratch store first and swaps only on success, so failure never
  /// mutates the live DB. Returns false when the framing (magic,
  /// version, lengths, trailing checksum) is unusable; returns true —
  /// filling \p Report with loaded/dropped counts — when the framing
  /// is intact, even if individual corrupt segments had to be dropped
  /// (those TUs simply compile cold next build).
  bool deserialize(const std::string &Bytes,
                   StateLoadReport *Report = nullptr);

  /// Convenience wrappers over a VirtualFileSystem. saveToFile is
  /// crash-safe: it stages through atomicWriteFile, so a crash mid-save
  /// leaves the previous store intact.
  bool saveToFile(VirtualFileSystem &FS, const std::string &Path) const;
  bool loadFromFile(VirtualFileSystem &FS, const std::string &Path,
                    StateLoadReport *Report = nullptr);

private:
  struct Segment {
    std::string Bytes;
    uint64_t Hash = 0;
  };

  /// One lock stripe. SegmentCache holds per-TU serialized segments
  /// with their hashes, invalidated on update/remove: a build that
  /// recompiled k of n files re-serializes and re-hashes only k
  /// segments, keeping the per-build save cost proportional to the
  /// work done (it matters once records carry cached code). The file
  /// checksum folds the per-segment hashes.
  struct Shard {
    mutable std::mutex Mu;
    std::map<std::string, TUState> TUs;
    mutable std::map<std::string, Segment> SegmentCache;
  };

  static constexpr size_t NumShards = 16;

  Shard &shardFor(const std::string &TUKey) const;

  /// Serializes (or returns the cached segment for) \p TUKey. The
  /// shard's lock must be held.
  static const Segment &segmentFor(const Shard &S, const std::string &TUKey);

  mutable Shard Shards[NumShards];
};

} // namespace sc

#endif // SC_STATE_BUILDSTATEDB_H
