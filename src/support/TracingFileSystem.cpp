//===- support/TracingFileSystem.cpp - Access-tracing VFS decorator -------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/TracingFileSystem.h"

namespace sc {

void TracingFileSystem::setScope(std::string S) {
  std::lock_guard<std::mutex> L(Mu);
  Scope = std::move(S);
}

void TracingFileSystem::clearTrace() {
  std::lock_guard<std::mutex> L(Mu);
  Reads.clear();
  Ops = 0;
}

std::vector<std::string>
TracingFileSystem::readsFor(const std::string &S) const {
  std::lock_guard<std::mutex> L(Mu);
  auto It = Reads.find(S);
  if (It == Reads.end())
    return {};
  return std::vector<std::string>(It->second.begin(), It->second.end());
}

std::map<std::string, std::set<std::string>>
TracingFileSystem::readsByScope() const {
  std::lock_guard<std::mutex> L(Mu);
  return Reads;
}

uint64_t TracingFileSystem::tracedOps() const {
  std::lock_guard<std::mutex> L(Mu);
  return Ops;
}

uint64_t TracingFileSystem::distinctPathsTraced() const {
  std::lock_guard<std::mutex> L(Mu);
  std::set<std::string> All;
  for (const auto &[S, Paths] : Reads)
    All.insert(Paths.begin(), Paths.end());
  return All.size();
}

void TracingFileSystem::record(const std::string &Path) {
  std::lock_guard<std::mutex> L(Mu);
  ++Ops;
  Reads[Scope].insert(Path);
}

std::optional<std::string> TracingFileSystem::readFile(const std::string &P) {
  record(P);
  return Base.readFile(P);
}

bool TracingFileSystem::writeFile(const std::string &P,
                                  const std::string &C) {
  return Base.writeFile(P, C);
}

bool TracingFileSystem::exists(const std::string &P) {
  record(P);
  return Base.exists(P);
}

std::optional<FileStat> TracingFileSystem::stat(const std::string &P) {
  return Base.stat(P);
}

bool TracingFileSystem::removeFile(const std::string &P) {
  return Base.removeFile(P);
}

std::vector<std::string> TracingFileSystem::listFiles() {
  return Base.listFiles();
}

bool TracingFileSystem::renameFile(const std::string &From,
                                   const std::string &To) {
  return Base.renameFile(From, To);
}

bool TracingFileSystem::syncFile(const std::string &P) {
  return Base.syncFile(P);
}

bool TracingFileSystem::createExclusive(const std::string &P,
                                        const std::string &C) {
  return Base.createExclusive(P, C);
}

std::string TracingFileSystem::lastError() const { return Base.lastError(); }

} // namespace sc
