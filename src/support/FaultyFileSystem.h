//===- support/FaultyFileSystem.h - Fault-injecting VFS decorator -*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injection for the persistence layer: wraps any
/// VirtualFileSystem and fires a scheduled fault on the Nth matching
/// operation. Four fault classes model the real-world failure menagerie
/// a build directory sees:
///
///   torn    write stops halfway and reports failure (power loss /
///           partial flush without atomic rename)
///   enospc  write fails with nothing written (disk full); may be
///           sticky — every later write fails too
///   read    a read reports the file unreadable (bad sector, EIO)
///   crash   the process "dies" mid-operation: a half write is left
///           behind and CrashPoint is thrown (tests and scbuild catch
///           it at the top; nothing below may intercept it)
///
/// The invariant the robustness suite proves on top of this: every
/// injected fault yields a correct — possibly cold — next build, never
/// a miscompile.
///
//===----------------------------------------------------------------------===//

#ifndef SC_SUPPORT_FAULTYFILESYSTEM_H
#define SC_SUPPORT_FAULTYFILESYSTEM_H

#include "support/FileSystem.h"

#include <optional>
#include <string>
#include <vector>

namespace sc {

/// Thrown by FaultyFileSystem to simulate the process dying inside a
/// filesystem operation. Deliberately NOT derived from std::exception:
/// generic error containment (e.g. the scheduler's per-TU catch) must
/// not swallow a simulated process death.
struct CrashPoint {
  std::string Op; // Which operation "died", for diagnostics.
};

class FaultyFileSystem : public VirtualFileSystem {
public:
  enum class Fault {
    TornWrite,  // Nth writeFile: half the bytes land, returns false.
    WriteError, // Nth writeFile: nothing lands, returns false (ENOSPC).
    ReadError,  // Nth readFile: returns nullopt.
    Crash,      // Nth mutating op: partial effect, throws CrashPoint.
  };

  explicit FaultyFileSystem(VirtualFileSystem &Base) : Base(Base) {}

  /// Schedules \p K to fire on the Nth (1-based) matching operation.
  /// \p Sticky keeps the fault firing on every later match too
  /// (modelling a persistently full disk). Multiple faults may be
  /// armed at once.
  void arm(Fault K, unsigned Nth, bool Sticky = false);

  /// Parses "torn:N" / "enospc:N" / "enospc*:N" (sticky) / "read:N" /
  /// "crash:N" and arms it. Returns false on a malformed spec.
  bool armSpec(const std::string &Spec);

  /// Operation counters (match the 1-based scheduling indices).
  unsigned readOps() const { return ReadCount; }
  unsigned writeOps() const { return WriteCount; }
  unsigned mutatingOps() const { return MutateCount; }
  unsigned faultsFired() const { return Fired; }

  //===--- VirtualFileSystem ---------------------------------------------===//

  std::optional<std::string> readFile(const std::string &Path) override;
  bool writeFile(const std::string &Path, const std::string &Content) override;
  bool exists(const std::string &Path) override;
  std::optional<FileStat> stat(const std::string &Path) override;
  bool removeFile(const std::string &Path) override;
  std::vector<std::string> listFiles() override;
  bool renameFile(const std::string &From, const std::string &To) override;
  bool syncFile(const std::string &Path) override;
  bool createExclusive(const std::string &Path,
                       const std::string &Content) override;
  std::string lastError() const override;

private:
  struct Armed {
    Fault K;
    unsigned Nth;
    bool Sticky;
    bool Spent = false;
  };

  /// True when an armed fault of kind \p K matches operation index
  /// \p Count (consuming one-shot faults).
  bool fires(Fault K, unsigned Count);

  /// Throws CrashPoint when a crash is scheduled at mutating-op index
  /// \p Count.
  void maybeCrash(unsigned Count, const std::string &Op);

  VirtualFileSystem &Base;
  std::vector<Armed> Faults;
  unsigned ReadCount = 0;
  unsigned WriteCount = 0;
  unsigned MutateCount = 0;
  unsigned Fired = 0;
  std::string LastErr;
};

} // namespace sc

#endif // SC_SUPPORT_FAULTYFILESYSTEM_H
