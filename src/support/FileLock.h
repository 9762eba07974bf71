//===- support/FileLock.h - Advisory lock over a VFS ------------*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Advisory whole-directory lock for the build's state directory: two
/// scbuild processes over the same project must not interleave writes
/// to state.db / manifest.bin / objects. The lock is a file created
/// with create-exclusive semantics (O_CREAT|O_EXCL on real
/// filesystems); acquisition retries with exponential backoff up to a
/// timeout, after which the caller is expected to degrade to a
/// read-only (nothing persisted) build rather than corrupt shared
/// state.
///
/// The lock is advisory: it protects cooperating builds, not hostile
/// writers. A process that dies without running destructors leaves the
/// file behind; the lock content records the owner's PID plus a
/// per-acquisition token. When acquisition times out, acquire() probes
/// the recorded owner with `kill(pid, 0)`: if that process is
/// verifiably gone (ESRCH) the stale lock is reclaimed instead of
/// degrading the build to read-only. So is a lock this process itself
/// abandoned: an acquisition whose release threw or failed to unlink
/// the file has no holder left, though its PID is alive. Any other
/// live owner (or an unreadable/foreign lock file, where liveness
/// cannot be proven) is never reclaimed.
///
/// Reclaim protocol: the stale file is first *captured* by an atomic
/// rename to a waiter-unique aside name — of N waiters racing to
/// reclaim the same corpse, exactly one rename succeeds and the rest
/// stay unlocked — then its content is re-verified against the probed
/// content (a mismatch means a new live holder took the path between
/// probe and rename; its lock is handed back untouched) before the
/// winner deletes it and re-creates the path as its own. release()
/// likewise removes the lock file only after checking it still holds
/// this acquisition's content, so no step of the protocol ever unlinks
/// another process's live lock.
///
//===----------------------------------------------------------------------===//

#ifndef SC_SUPPORT_FILELOCK_H
#define SC_SUPPORT_FILELOCK_H

#include "support/FileSystem.h"

#include <optional>
#include <string>

namespace sc {

/// RAII advisory file lock. Move-only; releases (removes the lock
/// file) on destruction when held.
class FileLock {
public:
  /// Attempts to create \p Path exclusively, retrying with doubling
  /// backoff (starting at \p BackoffMs, capped at 8x) until
  /// \p TimeoutMs elapses. Returns a lock that may or may not be
  /// held(); a zero timeout means exactly one attempt. A non-empty
  /// \p Tag is recorded in the lock content (e.g. "daemon") so other
  /// processes probing the lock can describe its owner.
  static FileLock acquire(VirtualFileSystem &FS, const std::string &Path,
                          unsigned TimeoutMs, unsigned BackoffMs = 10,
                          const std::string &Tag = std::string());

  /// What a lock file at \p Path says about its owner, without trying
  /// to acquire anything. Lets a CLI build recognize "a live daemon
  /// owns this directory" up front and print a purposeful diagnostic
  /// instead of timing out against a lock that will never be released.
  struct OwnerInfo {
    long Pid = 0;        // 0 when the content is not in our format.
    bool Alive = false;  // kill(pid, 0) liveness (false when Pid == 0).
    std::string Tag;     // "daemon" for scbuildd; empty for plain builds.
  };

  /// Reads and parses the lock file. std::nullopt when no lock file
  /// exists (or it vanished mid-read).
  static std::optional<OwnerInfo> probe(VirtualFileSystem &FS,
                                        const std::string &Path);

  FileLock() = default;
  FileLock(FileLock &&Other) noexcept;
  FileLock &operator=(FileLock &&Other) noexcept;
  FileLock(const FileLock &) = delete;
  FileLock &operator=(const FileLock &) = delete;
  ~FileLock();

  bool held() const { return FS != nullptr; }
  const std::string &path() const { return Path; }

  /// True when this lock was obtained by reclaiming a dead owner's
  /// stale lock file (callers surface this as a build warning).
  bool reclaimedStale() const { return Reclaimed; }

  /// The dead owner's PID when reclaimedStale().
  long reclaimedPid() const { return ReclaimedOwner; }

  /// Removes the lock file now if it is still ours (idempotent).
  void release();

private:
  FileLock(VirtualFileSystem *FS, std::string Path, std::string Content)
      : FS(FS), Path(std::move(Path)), Content(std::move(Content)) {}

  VirtualFileSystem *FS = nullptr; // Null when not held.
  std::string Path;
  std::string Content; // What we wrote; release() removes only a match.
  bool Reclaimed = false;
  long ReclaimedOwner = 0;
};

} // namespace sc

#endif // SC_SUPPORT_FILELOCK_H
