//===- build_sys/ObjectCache.cpp - Object store + parsed cache -----------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "build_sys/ObjectCache.h"

#include "support/AtomicFile.h"
#include "support/Hashing.h"

using namespace sc;

ObjectCache::ObjectCache(VirtualFileSystem &FS, std::string OutDir)
    : FS(FS), OutDir(std::move(OutDir)) {}

std::string ObjectCache::objectPath(const std::string &SourcePath) const {
  return OutDir + "/" + SourcePath + ".o";
}

uint64_t ObjectCache::store(const std::string &SourcePath, MModule Object,
                            std::string *BytesOut) {
  std::string Bytes = writeObject(Object);
  uint64_t Hash = hashString(Bytes);
  // The FS write stays under the lock: workers store distinct paths,
  // but VirtualFileSystem implementations share one path map. A failed
  // (or read-only-suppressed) write degrades to a memory-only entry:
  // this build links from memory; the next process recompiles the TU.
  std::lock_guard<std::mutex> Lock(Mu);
  bool OnDisk = Writable && atomicWriteFile(FS, objectPath(SourcePath), Bytes);
  if (Writable && !OnDisk)
    StoresPersisted = false;
  Mem[SourcePath] = {Hash, Bytes.size(), !OnDisk, std::move(Object)};
  if (BytesOut)
    *BytesOut = std::move(Bytes);
  return Hash;
}

bool ObjectCache::storeFetched(const std::string &SourcePath,
                               std::string Bytes, uint64_t ExpectedDigest) {
  if (hashString(Bytes) != ExpectedDigest)
    return false;
  std::optional<MModule> Parsed = readObject(Bytes);
  if (!Parsed)
    return false;
  // Same persistence contract as store(): a failed write keeps the
  // entry memory-only and this TU recompiles next process. No
  // Deserializations bump — see the header.
  std::lock_guard<std::mutex> Lock(Mu);
  bool OnDisk = Writable && atomicWriteFile(FS, objectPath(SourcePath), Bytes);
  if (Writable && !OnDisk)
    StoresPersisted = false;
  Mem[SourcePath] = {ExpectedDigest, Bytes.size(), !OnDisk,
                     std::move(*Parsed)};
  return true;
}

bool ObjectCache::serializedBytes(const std::string &SourcePath,
                                  uint64_t ExpectedHash, std::string &Out) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (const MModule *Obj = residentLocked(SourcePath, ExpectedHash)) {
      Out = writeObject(*Obj);
      if (hashString(Out) == ExpectedHash)
        return true;
    }
  }
  std::optional<std::string> Bytes = FS.readFile(objectPath(SourcePath));
  if (!Bytes || hashString(*Bytes) != ExpectedHash)
    return false;
  Out = std::move(*Bytes);
  return true;
}

const MModule *ObjectCache::load(const std::string &SourcePath,
                                 uint64_t ExpectedHash) {
  {
    // Memory-only entries have no on-disk bytes to validate; trust the
    // hash recorded at store time.
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Mem.find(SourcePath);
    if (It != Mem.end() && It->second.MemOnly &&
        It->second.Hash == ExpectedHash)
      return &It->second.Object;
  }
  std::optional<std::string> Bytes = FS.readFile(objectPath(SourcePath));
  if (!Bytes) {
    std::lock_guard<std::mutex> Lock(Mu);
    ++NotFoundLoads;
    return nullptr;
  }
  if (hashString(*Bytes) != ExpectedHash) {
    // Distinct from absence: the file exists but is not the object
    // the manifest recorded — vandalism, torn write, or a foreign
    // build. Callers recompile either way, but the stats (and the
    // remote tier) care which it was.
    std::lock_guard<std::mutex> Lock(Mu);
    ++CorruptLoads;
    return nullptr;
  }
  std::lock_guard<std::mutex> Lock(Mu);
  if (const MModule *Obj = residentLocked(SourcePath, ExpectedHash))
    return Obj;
  std::optional<MModule> Parsed = readObject(*Bytes);
  ++Deserializations;
  if (!Parsed) {
    ++CorruptLoads;
    return nullptr; // Bytes matched the manifest but do not decode.
  }
  Cached &C = Mem[SourcePath];
  C = {ExpectedHash, Bytes->size(), false, std::move(*Parsed)};
  return &C.Object;
}

const MModule *ObjectCache::resident(const std::string &SourcePath,
                                     uint64_t ExpectedHash) const {
  std::lock_guard<std::mutex> Lock(Mu);
  return residentLocked(SourcePath, ExpectedHash);
}

const MModule *ObjectCache::residentLocked(const std::string &SourcePath,
                                           uint64_t ExpectedHash) const {
  auto It = Mem.find(SourcePath);
  return It != Mem.end() && It->second.Hash == ExpectedHash
             ? &It->second.Object
             : nullptr;
}

bool ObjectCache::allStoresPersisted() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return StoresPersisted;
}

void ObjectCache::resetStoreStatus() {
  std::lock_guard<std::mutex> Lock(Mu);
  StoresPersisted = true;
}

uint64_t ObjectCache::deserializations() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Deserializations;
}

uint64_t ObjectCache::loadsNotFound() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return NotFoundLoads;
}

uint64_t ObjectCache::loadsCorrupt() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return CorruptLoads;
}

uint64_t ObjectCache::objectBytes(const std::string &SourcePath) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Mem.find(SourcePath);
  return It == Mem.end() ? 0 : It->second.Bytes;
}

void ObjectCache::invalidate(const std::string &SourcePath) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Mem.erase(SourcePath);
  }
  if (Writable)
    FS.removeFile(objectPath(SourcePath));
}

void ObjectCache::clearMemory() {
  std::lock_guard<std::mutex> Lock(Mu);
  Mem.clear();
}
