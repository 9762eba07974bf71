//===- build_sys/Manifest.cpp - Persistent build manifest ----------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "build_sys/Manifest.h"

#include "support/Hashing.h"
#include "support/Serializer.h"

using namespace sc;

namespace {

constexpr uint32_t ManifestMagic = 0x53434d46; // "SCMF"
constexpr uint32_t ManifestVersion = 2; // 2: per-entry file stats.

void writeStat(BinaryWriter &W, const FileStat &St) {
  W.writeU64(St.Size);
  W.writeU64(static_cast<uint64_t>(St.MtimeNs));
  W.writeU64(static_cast<uint64_t>(St.CtimeNs));
  W.writeU64(St.Inode);
}

FileStat readStat(BinaryReader &R) {
  FileStat St;
  St.Size = R.readU64();
  St.MtimeNs = static_cast<int64_t>(R.readU64());
  St.CtimeNs = static_cast<int64_t>(R.readU64());
  St.Inode = R.readU64();
  return St;
}

} // namespace

const ManifestEntry *BuildManifest::lookup(const std::string &Path) const {
  auto It = Entries.find(Path);
  return It == Entries.end() ? nullptr : &It->second;
}

void BuildManifest::update(const std::string &Path,
                           const ManifestEntry &Entry) {
  Entries[Path] = Entry;
}

bool BuildManifest::statClean(const std::optional<FileStat> &Now,
                              const FileStat &Recorded) const {
  return Now && Written && Recorded != FileStat{} && *Now == Recorded &&
         Now->MtimeNs < Written->MtimeNs;
}

void BuildManifest::remove(const std::string &Path) { Entries.erase(Path); }

void BuildManifest::clear() {
  Entries.clear();
  Written.reset();
}

std::string BuildManifest::serialize() const {
  BinaryWriter W;
  W.writeU32(ManifestMagic);
  W.writeU32(ManifestVersion);
  W.writeVarU64(Entries.size());
  for (const auto &[Path, E] : Entries) {
    W.writeString(Path);
    W.writeU64(E.ContentHash);
    W.writeU64(E.ImportsEffectiveHash);
    W.writeU64(E.ObjectHash);
    W.writeU64(E.ConfigHash);
    writeStat(W, E.SourceStat);
    writeStat(W, E.ObjectStat);
  }
  std::string Bytes(reinterpret_cast<const char *>(W.data().data()),
                    W.size());
  uint64_t Checksum = hashString(Bytes);
  BinaryWriter Tail;
  Tail.writeU64(Checksum);
  Bytes.append(reinterpret_cast<const char *>(Tail.data().data()),
               Tail.size());
  return Bytes;
}

bool BuildManifest::deserialize(const std::string &Bytes) {
  // Parse into a scratch map; malformed input leaves the live manifest
  // untouched (the caller decides whether to clear).
  if (Bytes.size() < 8)
    return false;
  uint64_t Payload = Bytes.size() - 8;
  BinaryReader R(reinterpret_cast<const uint8_t *>(Bytes.data()),
                 Bytes.size());
  if (R.readU32() != ManifestMagic)
    return false;
  const uint32_t Version = R.readU32();
  if (Version != 1 && Version != ManifestVersion)
    return false;
  uint64_t N = R.readVarU64();
  std::map<std::string, ManifestEntry> Loaded;
  for (uint64_t I = 0; I != N && !R.failed(); ++I) {
    std::string Path = R.readString();
    ManifestEntry E;
    E.ContentHash = R.readU64();
    E.ImportsEffectiveHash = R.readU64();
    E.ObjectHash = R.readU64();
    E.ConfigHash = R.readU64();
    if (Version >= 2) {
      E.SourceStat = readStat(R);
      E.ObjectStat = readStat(R);
    }
    Loaded.emplace(std::move(Path), E);
  }
  if (R.failed() || R.position() != Payload)
    return false;
  uint64_t Expected = R.readU64();
  if (R.failed() || !R.atEnd() ||
      hashBytes(Bytes.data(), Payload) != Expected)
    return false;
  Entries = std::move(Loaded);
  return true;
}

bool BuildManifest::loadFromFile(VirtualFileSystem &FS,
                                 const std::string &Path) {
  std::optional<FileStat> St = FS.stat(Path);
  std::optional<std::string> Bytes = FS.readFile(Path);
  if (!Bytes || !deserialize(*Bytes))
    return false;
  Written = St;
  return true;
}
