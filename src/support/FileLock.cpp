//===- support/FileLock.cpp - Advisory lock over a VFS -------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FileLock.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <set>
#include <thread>

#include <signal.h>
#include <unistd.h>

using namespace sc;

namespace {

/// Per-acquisition token appended to the lock content so every lock
/// file this process writes is distinguishable — from other processes
/// (by PID) and from other acquisitions in this process (by token).
/// Ownership checks compare whole content, never just the PID. Tokens
/// start from the clock, so no hand-written lock content names one.
std::atomic<uint64_t> NextToken{static_cast<uint64_t>(
    std::chrono::steady_clock::now().time_since_epoch().count())};

/// Lock contents this process wrote and then abandoned: their release
/// threw or could not unlink the file. Nobody holds them any more.
std::mutex AbandonedMu;
std::set<std::string> Abandoned;

void abandon(const std::string &Content) {
  std::lock_guard<std::mutex> L(AbandonedMu);
  Abandoned.insert(Content);
}

/// Parses "pid N #token [tag]" lock-file content. Returns 0 when the
/// content is not in our format or the PID is non-positive — an
/// unparseable lock is treated as a live foreign lock, never reclaimed.
/// (PID 0 and negative PIDs address process groups in kill(); probing
/// them would be both meaningless and dangerous.)
long parseOwnerPid(const std::string &Content) {
  if (Content.compare(0, 4, "pid ") != 0)
    return 0;
  char *End = nullptr;
  long Pid = std::strtol(Content.c_str() + 4, &End, 10);
  if (End == Content.c_str() + 4 || Pid <= 0)
    return 0;
  return Pid;
}

/// Extracts the optional tag trailing the "#token" field. Content
/// shape: "pid N #T[ tag]\n".
std::string parseOwnerTag(const std::string &Content) {
  size_t Hash = Content.find('#');
  if (Hash == std::string::npos)
    return std::string();
  size_t Space = Content.find(' ', Hash);
  if (Space == std::string::npos)
    return std::string();
  size_t End = Content.find_last_not_of(" \n");
  if (End == std::string::npos || End < Space + 1)
    return std::string();
  return Content.substr(Space + 1, End - Space);
}

/// True only when \p Pid verifiably does not exist. EPERM means the
/// process exists but is not ours — alive, don't touch its lock.
bool ownerIsDead(long Pid) {
  if (::kill(static_cast<pid_t>(Pid), 0) == 0)
    return false;
  return errno == ESRCH;
}

/// True when no holder is left behind lock content \p Content: its
/// owner process is verifiably dead, or it is an acquisition of this
/// process that was abandoned.
bool ownerIsGone(const std::string &Content, long Pid) {
  {
    std::lock_guard<std::mutex> L(AbandonedMu);
    if (Abandoned.count(Content))
      return true;
  }
  return ownerIsDead(Pid);
}

} // namespace

std::optional<FileLock::OwnerInfo>
FileLock::probe(VirtualFileSystem &FS, const std::string &Path) {
  std::optional<std::string> Content = FS.readFile(Path);
  if (!Content)
    return std::nullopt;
  OwnerInfo Info;
  Info.Pid = parseOwnerPid(*Content);
  Info.Alive = Info.Pid != 0 && !ownerIsGone(*Content, Info.Pid);
  Info.Tag = parseOwnerTag(*Content);
  return Info;
}

FileLock FileLock::acquire(VirtualFileSystem &FS, const std::string &Path,
                           unsigned TimeoutMs, unsigned BackoffMs,
                           const std::string &Tag) {
  const uint64_t Token = NextToken.fetch_add(1, std::memory_order_relaxed);
  const std::string Content = "pid " + std::to_string(::getpid()) + " #" +
                              std::to_string(Token) +
                              (Tag.empty() ? "" : " " + Tag) + "\n";
  using Clock = std::chrono::steady_clock;
  const auto Deadline = Clock::now() + std::chrono::milliseconds(TimeoutMs);
  unsigned Backoff = BackoffMs ? BackoffMs : 1;
  const unsigned MaxBackoff = Backoff * 8;
  for (;;) {
    if (FS.createExclusive(Path, Content))
      return FileLock(&FS, Path, Content);
    if (Clock::now() >= Deadline)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(Backoff));
    Backoff = std::min(Backoff * 2, MaxBackoff);
  }

  // Timed out. If the lock file names a provably dead owner, reclaim
  // it. The reclaim must never unlink a file it has not exclusively
  // captured — a remove+create sequence would let one waiter unlink a
  // lock another waiter just reclaimed and re-created (both would then
  // hold "exclusive" locks). So capture-by-rename first: moving the
  // file aside to a name unique to this acquisition is atomic, fails
  // for every racer but one once the file is gone, and transfers the
  // file wholly to the winner before anything is deleted.
  std::optional<std::string> Existing = FS.readFile(Path);
  if (!Existing)
    // Owner released between our last attempt and now: one more try.
    return FS.createExclusive(Path, Content) ? FileLock(&FS, Path, Content)
                                             : FileLock();
  long Owner = parseOwnerPid(*Existing);
  if (Owner == 0 || !ownerIsGone(*Existing, Owner))
    return FileLock();
  const std::string Aside = Path + ".reclaim." + std::to_string(::getpid()) +
                            "." + std::to_string(Token);
  if (!FS.renameFile(Path, Aside))
    // Another reclaimer captured the file first (or the path vanished);
    // stay unlocked and let the build degrade read-only as before.
    return FileLock();
  // Re-verify the captured file is the one we probed. If the content
  // changed between probe and rename, the stale lock was already
  // reclaimed and the path re-created by a new *live* holder — hand the
  // file back (create-exclusive, so a third waiter that took the path
  // meanwhile is never clobbered) and stand down.
  std::optional<std::string> Captured = FS.readFile(Aside);
  if (!Captured || *Captured != *Existing) {
    if (Captured)
      FS.createExclusive(Path, *Captured);
    FS.removeFile(Aside);
    return FileLock();
  }
  FS.removeFile(Aside);
  if (!FS.createExclusive(Path, Content))
    return FileLock();
  FileLock Lock(&FS, Path, Content);
  Lock.Reclaimed = true;
  Lock.ReclaimedOwner = Owner;
  return Lock;
}

FileLock::FileLock(FileLock &&Other) noexcept
    : FS(Other.FS), Path(std::move(Other.Path)),
      Content(std::move(Other.Content)), Reclaimed(Other.Reclaimed),
      ReclaimedOwner(Other.ReclaimedOwner) {
  Other.FS = nullptr;
}

FileLock &FileLock::operator=(FileLock &&Other) noexcept {
  if (this != &Other) {
    release();
    FS = Other.FS;
    Path = std::move(Other.Path);
    Content = std::move(Other.Content);
    Reclaimed = Other.Reclaimed;
    ReclaimedOwner = Other.ReclaimedOwner;
    Other.FS = nullptr;
  }
  return *this;
}

FileLock::~FileLock() {
  try {
    release();
  } catch (...) {
    // A simulated crash (CrashPoint) during the destructor's unlock
    // must not escape a noexcept destructor. The lock file stays
    // behind — exactly what a process dying mid-exit leaves — and the
    // next build times out on it and reclaims it, as it would reclaim a
    // dead process's.
    abandon(Content);
    FS = nullptr;
  }
}

void FileLock::release() {
  if (FS) {
    // Ownership check: the path could in principle hold another
    // process's lock by now (crash → reclaim → re-create shuffles);
    // never unlink a file that verifiably is not ours. An unreadable
    // file is still removed — it is almost certainly ours, and leaving
    // it behind would wedge every later build behind a lock whose
    // owner is alive.
    std::optional<std::string> Cur = FS->readFile(Path);
    if ((!Cur || *Cur == Content) && !FS->removeFile(Path))
      abandon(Content);
  }
  FS = nullptr;
}
