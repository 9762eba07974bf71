//===- support/AtomicFile.cpp - Crash-safe whole-file writes -------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/AtomicFile.h"

#include <atomic>
#include <cctype>

#include <unistd.h>

using namespace sc;

namespace {

/// Per-process attempt counter: combined with the PID it makes every
/// staged temp name unique, so a daemon and a CLI build (or two racing
/// builds) staging the same artifact can never rename each other's
/// half-written bytes into place.
std::atomic<uint64_t> NextAttempt{1};

/// True when [I, End) is one-or-more decimal digits ending exactly at
/// \p End.
bool isDigits(const std::string &S, size_t I, size_t End) {
  if (I >= End)
    return false;
  for (; I != End; ++I)
    if (!std::isdigit(static_cast<unsigned char>(S[I])))
      return false;
  return true;
}

} // namespace

std::string sc::atomicTempPath(const std::string &Path) {
  return Path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(NextAttempt.fetch_add(1, std::memory_order_relaxed));
}

bool sc::isAtomicTempPath(const std::string &Path) {
  // "<dest>.tmp.<pid>.<counter>", or the legacy fixed "<dest>.tmp".
  const std::string Mark = ".tmp";
  size_t Pos = Path.rfind(Mark);
  // The destination component must be non-empty: a path whose basename
  // *starts* with ".tmp" is a hidden file, not one of our temps.
  if (Pos == std::string::npos || Pos == 0 || Path[Pos - 1] == '/')
    return false;
  size_t After = Pos + Mark.size();
  if (After == Path.size())
    return true; // Legacy "<dest>.tmp" from older builds.
  if (Path[After] != '.')
    return false;
  size_t Dot = Path.find('.', After + 1);
  if (Dot == std::string::npos)
    return false;
  return isDigits(Path, After + 1, Dot) &&
         isDigits(Path, Dot + 1, Path.size());
}

bool sc::atomicWriteFile(VirtualFileSystem &FS, const std::string &Path,
                         const std::string &Content) {
  const std::string Tmp = atomicTempPath(Path);
  if (!FS.writeFile(Tmp, Content)) {
    FS.removeFile(Tmp); // Drop a torn temp; the destination is intact.
    return false;
  }
  if (!FS.syncFile(Tmp)) {
    FS.removeFile(Tmp);
    return false;
  }
  if (!FS.renameFile(Tmp, Path)) {
    FS.removeFile(Tmp);
    return false;
  }
  return true;
}

unsigned sc::sweepAtomicTemps(VirtualFileSystem &FS,
                              const std::string &DirPrefix) {
  return sweepAtomicTemps(FS, DirPrefix, FS.listFiles());
}

unsigned sc::sweepAtomicTemps(VirtualFileSystem &FS,
                              const std::string &DirPrefix,
                              const std::vector<std::string> &Files) {
  const std::string Prefix = DirPrefix.empty() ? "" : DirPrefix + "/";
  unsigned Removed = 0;
  for (const std::string &Path : Files) {
    if (!Prefix.empty() && Path.compare(0, Prefix.size(), Prefix) != 0)
      continue;
    if (isAtomicTempPath(Path) && FS.removeFile(Path))
      ++Removed;
  }
  return Removed;
}
