//===- state/BuildStateDB.cpp - Persistent dormancy store ---------------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "state/BuildStateDB.h"

#include "support/AtomicFile.h"
#include "support/Hashing.h"
#include "support/Serializer.h"

#include <algorithm>

using namespace sc;

namespace {
constexpr uint32_t DBMagic = 0x53434442; // "SCDB"
// Version 4: every per-TU segment is followed by its own u64 checksum,
// enabling partial-corruption salvage. Version 3 stores (one whole-file
// checksum only) fail the version check and load cold — the 3->4
// migration is one cold build.
constexpr uint32_t DBVersion = 4;

/// Encoded length of BinaryWriter::writeVarU64(V) (LEB128).
unsigned varintLen(uint64_t V) {
  unsigned N = 1;
  while (V >= 0x80) {
    V >>= 7;
    ++N;
  }
  return N;
}
} // namespace

BuildStateDB::Shard &BuildStateDB::shardFor(const std::string &TUKey) const {
  return Shards[hashString(TUKey) % NumShards];
}

const TUState *BuildStateDB::lookup(const std::string &TUKey) const {
  Shard &S = shardFor(TUKey);
  std::lock_guard<std::mutex> Lock(S.Mu);
  auto It = S.TUs.find(TUKey);
  return It != S.TUs.end() ? &It->second : nullptr;
}

void BuildStateDB::update(const std::string &TUKey, TUState State) {
  Shard &S = shardFor(TUKey);
  std::lock_guard<std::mutex> Lock(S.Mu);
  S.TUs[TUKey] = std::move(State);
  S.SegmentCache.erase(TUKey);
}

void BuildStateDB::remove(const std::string &TUKey) {
  Shard &S = shardFor(TUKey);
  std::lock_guard<std::mutex> Lock(S.Mu);
  S.TUs.erase(TUKey);
  S.SegmentCache.erase(TUKey);
}

void BuildStateDB::clear() {
  for (Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.Mu);
    S.TUs.clear();
    S.SegmentCache.clear();
  }
}

// Approximate under concurrency; used for stats only.
size_t BuildStateDB::numTUs() const {
  size_t N = 0;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.Mu);
    N += S.TUs.size();
  }
  return N;
}

uint64_t BuildStateDB::sizeBytes() const {
  // Sum the framing arithmetic over cached segments instead of
  // materializing the full byte string: header (magic, version, TU
  // count) + per TU {varint length prefix, segment, u64 segment
  // checksum} + u64 file checksum.
  std::vector<std::unique_lock<std::mutex>> Locks;
  Locks.reserve(NumShards);
  for (const Shard &S : Shards)
    Locks.emplace_back(S.Mu);

  uint64_t N = 0;
  uint64_t Total = 8; // Magic + version.
  for (const Shard &S : Shards)
    for (const auto &[Key, TU] : S.TUs) {
      (void)TU;
      const Segment &Seg = segmentFor(S, Key);
      Total += varintLen(Seg.Bytes.size()) + Seg.Bytes.size() + 8;
      ++N;
    }
  Total += varintLen(N);
  Total += 8; // Checksum.
  return Total;
}

const BuildStateDB::Segment &
BuildStateDB::segmentFor(const Shard &S, const std::string &TUKey) {
  auto Cached = S.SegmentCache.find(TUKey);
  if (Cached != S.SegmentCache.end())
    return Cached->second;
  const TUState &TU = S.TUs.at(TUKey);
  BinaryWriter W;
  W.writeString(TUKey);
  W.writeU64(TU.PipelineSignature);
  W.writeVarU64(TU.ModuleDormancy.size());
  for (uint8_t Bit : TU.ModuleDormancy)
    W.writeU8(Bit);
  W.writeVarU64(TU.Functions.size());
  for (const auto &[Name, Rec] : TU.Functions) {
    W.writeString(Name);
    W.writeU64(Rec.Fingerprint);
    W.writeU32(Rec.Age);
    W.writeU64(Rec.CodeKey);
    W.writeString(Rec.CachedCode);
    W.writeVarU64(Rec.Dormancy.size());
    for (uint8_t Bit : Rec.Dormancy)
      W.writeU8(Bit);
  }
  Segment Seg;
  Seg.Bytes = std::string(W.data().begin(), W.data().end());
  Seg.Hash = hashString(Seg.Bytes);
  return S.SegmentCache[TUKey] = std::move(Seg);
}

std::string BuildStateDB::serialize() const {
  // Lock every shard (fixed index order — no deadlock) so the emitted
  // snapshot is consistent, then emit segments in globally sorted key
  // order: the format is identical to the pre-sharding single-map
  // layout, so files round-trip across the sharding change.
  std::vector<std::unique_lock<std::mutex>> Locks;
  Locks.reserve(NumShards);
  for (const Shard &S : Shards)
    Locks.emplace_back(S.Mu);

  std::vector<std::pair<const std::string *, const Shard *>> Keys;
  for (const Shard &S : Shards)
    for (const auto &[Key, TU] : S.TUs) {
      (void)TU;
      Keys.push_back({&Key, &S});
    }
  std::sort(Keys.begin(), Keys.end(),
            [](const auto &A, const auto &B) { return *A.first < *B.first; });

  // Format: header, then per TU {varint segment length, segment
  // bytes, u64 segment checksum}, then a trailing checksum folding the
  // per-segment hashes. The per-segment checksum localizes damage — a
  // flipped bit inside one segment drops only that TU on load — and
  // folding cached hashes (instead of hashing the whole buffer) keeps
  // the save cost of an incremental build proportional to the number
  // of recompiled TUs even when records carry megabytes of cached
  // code.
  BinaryWriter Header;
  Header.writeU32(DBMagic);
  Header.writeU32(DBVersion);
  Header.writeVarU64(Keys.size());

  uint64_t Checksum = hashBytes(Header.data().data(), Header.data().size());
  std::string Out(Header.data().begin(), Header.data().end());
  for (const auto &[Key, S] : Keys) {
    const Segment &Seg = segmentFor(*S, *Key);
    BinaryWriter Frame;
    Frame.writeVarU64(Seg.Bytes.size());
    Out.append(Frame.data().begin(), Frame.data().end());
    Out += Seg.Bytes;
    BinaryWriter SegTail;
    SegTail.writeU64(Seg.Hash);
    Out.append(SegTail.data().begin(), SegTail.data().end());
    Checksum = hashCombine(Checksum, Seg.Hash);
  }
  BinaryWriter Tail;
  Tail.writeU64(Checksum);
  Out.append(Tail.data().begin(), Tail.data().end());
  return Out;
}

namespace {

/// Decodes one per-TU segment. Returns false (leaving \p Key / \p TU
/// partially filled but unused) when the segment bytes are malformed.
bool decodeSegment(const uint8_t *Data, size_t Len, std::string &Key,
                   TUState &TU) {
  BinaryReader SR(Data, Len);
  Key = SR.readString();
  TU.PipelineSignature = SR.readU64();
  uint64_t NumModuleBits = SR.readVarU64();
  for (uint64_t I = 0; I != NumModuleBits && !SR.failed(); ++I)
    TU.ModuleDormancy.push_back(SR.readU8());
  uint64_t NumFuncs = SR.readVarU64();
  for (uint64_t FI = 0; FI != NumFuncs && !SR.failed(); ++FI) {
    std::string Name = SR.readString();
    FunctionRecord Rec;
    Rec.Fingerprint = SR.readU64();
    Rec.Age = SR.readU32();
    Rec.CodeKey = SR.readU64();
    Rec.CachedCode = SR.readString();
    uint64_t NumBits = SR.readVarU64();
    for (uint64_t I = 0; I != NumBits && !SR.failed(); ++I)
      Rec.Dormancy.push_back(SR.readU8());
    TU.Functions[Name] = std::move(Rec);
  }
  return !SR.failed() && SR.atEnd();
}

} // namespace

bool BuildStateDB::deserialize(const std::string &Bytes,
                               StateLoadReport *Report) {
  // Parse into a scratch map first and swap only on success: a failed
  // load must never leave the live DB half-mutated (or clobber records
  // a running build already refreshed).
  std::map<std::string, TUState> Scratch;
  StateLoadReport Rep;

  if (Bytes.size() < 16)
    return false;
  BinaryReader Tail(
      reinterpret_cast<const uint8_t *>(Bytes.data()) + Bytes.size() - 8, 8);
  uint64_t Expected = Tail.readU64();

  BinaryReader R(reinterpret_cast<const uint8_t *>(Bytes.data()),
                 Bytes.size() - 8);
  if (R.readU32() != DBMagic || R.readU32() != DBVersion)
    return false;
  uint64_t NumTUs = R.readVarU64();
  if (R.failed())
    return false;
  uint64_t Checksum = hashBytes(Bytes.data(), R.position());

  for (uint64_t T = 0; T != NumTUs; ++T) {
    // Framing: {varint len, bytes, u64 stored hash}. Damage *here*
    // (bad length, truncation) makes everything after unaddressable,
    // so it rejects the whole store; damage confined to the segment
    // bytes is caught by the per-segment hash below and drops only
    // that TU.
    uint64_t SegLen = R.readVarU64();
    size_t SegStart = R.position();
    if (R.failed() || SegLen > Bytes.size() - 8 - SegStart)
      return false;
    R.skip(SegLen);
    uint64_t StoredHash = R.readU64();
    if (R.failed())
      return false;
    uint64_t ActualHash = hashBytes(Bytes.data() + SegStart, SegLen);
    Checksum = hashCombine(Checksum, ActualHash);

    std::string Key;
    TUState TU;
    if (ActualHash != StoredHash ||
        !decodeSegment(reinterpret_cast<const uint8_t *>(Bytes.data()) +
                           SegStart,
                       SegLen, Key, TU)) {
      ++Rep.TUsDropped; // Salvage: this TU compiles cold next build.
      continue;
    }
    Scratch[std::move(Key)] = std::move(TU);
    ++Rep.TUsLoaded;
  }
  if (R.failed() || !R.atEnd())
    return false;
  // With zero drops the fold of per-segment hashes must match the
  // trailing checksum (catches e.g. a flipped trailing checksum or
  // resequenced segments). With drops it cannot match — the mismatch
  // is already explained and accounted per segment.
  if (Rep.TUsDropped == 0 && Checksum != Expected)
    return false;

  std::vector<std::unique_lock<std::mutex>> Locks;
  Locks.reserve(NumShards);
  for (const Shard &S : Shards)
    Locks.emplace_back(S.Mu);
  for (Shard &S : Shards) {
    S.TUs.clear();
    S.SegmentCache.clear();
  }
  for (auto &[Key, TU] : Scratch)
    shardFor(Key).TUs[Key] = std::move(TU);
  if (Report)
    *Report = Rep;
  return true;
}

bool BuildStateDB::saveToFile(VirtualFileSystem &FS,
                              const std::string &Path) const {
  return atomicWriteFile(FS, Path, serialize());
}

bool BuildStateDB::loadFromFile(VirtualFileSystem &FS,
                                const std::string &Path,
                                StateLoadReport *Report) {
  std::optional<std::string> Bytes = FS.readFile(Path);
  if (!Bytes)
    return false;
  return deserialize(*Bytes, Report);
}
