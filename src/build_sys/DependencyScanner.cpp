//===- build_sys/DependencyScanner.cpp - Import/interface scanner --------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "build_sys/DependencyScanner.h"

#include "driver/Compiler.h"
#include "support/Hashing.h"

using namespace sc;

uint64_t sc::hashInterface(const ModuleInterface &Interface) {
  HashBuilder H;
  H.addU64(Interface.size());
  for (const FunctionSignature &Sig : Interface) {
    H.addString(Sig.Name);
    H.addU32(static_cast<uint32_t>(Sig.ReturnType));
    H.addU64(Sig.ParamTypes.size());
    for (TypeName T : Sig.ParamTypes)
      H.addU32(static_cast<uint32_t>(T));
  }
  return H.digest();
}

const ScanResult &DependencyScanner::scan(const std::string &Path,
                                          const std::string &Content) {
  return scan(Path, Content, hashString(Content));
}

const ScanResult *DependencyScanner::lookup(uint64_t ContentHash) {
  auto It = Cache.find(ContentHash);
  if (It == Cache.end())
    return nullptr;
  ++Hits;
  return &It->second;
}

const ScanResult &DependencyScanner::scan(const std::string &Path,
                                          const std::string &Content,
                                          uint64_t Key) {
  (void)Path;
  if (const ScanResult *Hit = lookup(Key))
    return *Hit;
  ++Misses;

  ScanResult R;
  R.ContentHash = Key;
  if (auto Scanned = Compiler::scanInterface(Content)) {
    R.Ok = true;
    R.Interface = std::move(Scanned->first);
    R.Imports = std::move(Scanned->second);
    R.InterfaceHash = hashInterface(R.Interface);
  } else {
    // Syntax errors: no usable interface. Tie the interface hash to
    // the broken content so importers re-examine once it changes.
    R.InterfaceHash = Key;
  }
  return Cache.emplace(Key, std::move(R)).first->second;
}

void DependencyScanner::trim(size_t MaxEntries) {
  // Edited files retire their old entries, so a long-lived daemon
  // accumulates dead ones; dropping everything is fine — the next
  // build re-scans only what it actually reads.
  if (Cache.size() > MaxEntries)
    Cache.clear();
}

void DependencyScanner::clear() {
  Cache.clear();
  Hits = Misses = 0;
}
