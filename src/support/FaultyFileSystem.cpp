//===- support/FaultyFileSystem.cpp - Fault-injecting VFS decorator ------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FaultyFileSystem.h"

#include <cstdlib>

using namespace sc;

void FaultyFileSystem::arm(Fault K, unsigned Nth, bool Sticky) {
  Faults.push_back({K, Nth, Sticky});
}

bool FaultyFileSystem::armSpec(const std::string &Spec) {
  size_t Colon = Spec.find(':');
  if (Colon == std::string::npos || Colon + 1 == Spec.size())
    return false;
  std::string Name = Spec.substr(0, Colon);
  bool Sticky = !Name.empty() && Name.back() == '*';
  if (Sticky)
    Name.pop_back();
  char *End = nullptr;
  unsigned long Nth = std::strtoul(Spec.c_str() + Colon + 1, &End, 10);
  if (*End != '\0' || Nth == 0)
    return false;
  Fault K;
  if (Name == "torn")
    K = Fault::TornWrite;
  else if (Name == "enospc")
    K = Fault::WriteError;
  else if (Name == "read")
    K = Fault::ReadError;
  else if (Name == "crash")
    K = Fault::Crash;
  else
    return false;
  arm(K, static_cast<unsigned>(Nth), Sticky);
  return true;
}

bool FaultyFileSystem::fires(Fault K, unsigned Count) {
  for (Armed &A : Faults) {
    if (A.K != K || A.Spent)
      continue;
    if (A.Sticky ? Count >= A.Nth : Count == A.Nth) {
      if (!A.Sticky)
        A.Spent = true;
      ++Fired;
      return true;
    }
  }
  return false;
}

void FaultyFileSystem::maybeCrash(unsigned Count, const std::string &Op) {
  if (fires(Fault::Crash, Count))
    throw CrashPoint{Op};
}

std::optional<std::string>
FaultyFileSystem::readFile(const std::string &Path) {
  ++ReadCount;
  if (fires(Fault::ReadError, ReadCount)) {
    LastErr = "injected read error on '" + Path + "'";
    return std::nullopt;
  }
  return Base.readFile(Path);
}

bool FaultyFileSystem::writeFile(const std::string &Path,
                                 const std::string &Content) {
  ++WriteCount;
  ++MutateCount;
  // A crash mid-write is the adversarial case: half the bytes land,
  // then the process dies.
  for (Armed &A : Faults) {
    if (A.K != Fault::Crash || A.Spent || MutateCount != A.Nth)
      continue;
    A.Spent = true;
    ++Fired;
    Base.writeFile(Path, Content.substr(0, Content.size() / 2));
    throw CrashPoint{"writeFile('" + Path + "')"};
  }
  if (fires(Fault::TornWrite, WriteCount)) {
    LastErr = "injected torn write on '" + Path + "'";
    Base.writeFile(Path, Content.substr(0, Content.size() / 2));
    return false;
  }
  if (fires(Fault::WriteError, WriteCount)) {
    LastErr = "injected ENOSPC on '" + Path + "'";
    return false;
  }
  return Base.writeFile(Path, Content);
}

bool FaultyFileSystem::exists(const std::string &Path) {
  return Base.exists(Path);
}

std::optional<FileStat> FaultyFileSystem::stat(const std::string &Path) {
  return Base.stat(Path);
}

bool FaultyFileSystem::removeFile(const std::string &Path) {
  ++MutateCount;
  maybeCrash(MutateCount, "removeFile('" + Path + "')");
  return Base.removeFile(Path);
}

std::vector<std::string> FaultyFileSystem::listFiles() {
  return Base.listFiles();
}

bool FaultyFileSystem::renameFile(const std::string &From,
                                  const std::string &To) {
  ++MutateCount;
  maybeCrash(MutateCount, "renameFile('" + From + "' -> '" + To + "')");
  return Base.renameFile(From, To);
}

bool FaultyFileSystem::syncFile(const std::string &Path) {
  return Base.syncFile(Path);
}

bool FaultyFileSystem::createExclusive(const std::string &Path,
                                       const std::string &Content) {
  ++MutateCount;
  maybeCrash(MutateCount, "createExclusive('" + Path + "')");
  return Base.createExclusive(Path, Content);
}

std::string FaultyFileSystem::lastError() const {
  return LastErr.empty() ? Base.lastError() : LastErr;
}
