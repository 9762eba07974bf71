//===- support/AtomicFile.h - Crash-safe whole-file writes ------*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one durable-write primitive every persistent artifact (state DB,
/// manifest, object files) goes through: write a sibling temp file,
/// fsync it, then rename it over the destination. A crash or I/O error
/// at any point leaves the destination either fully old or fully new —
/// never torn — so readers need no recovery logic beyond their normal
/// checksum validation.
///
//===----------------------------------------------------------------------===//

#ifndef SC_SUPPORT_ATOMICFILE_H
#define SC_SUPPORT_ATOMICFILE_H

#include "support/FileSystem.h"

#include <string>
#include <vector>

namespace sc {

/// Atomically replaces \p Path with \p Content via write-temp -> fsync
/// -> rename. On failure the destination is untouched and the temp file
/// is removed (best effort). Returns false on any I/O failure; consult
/// FS.lastError() for the cause.
bool atomicWriteFile(VirtualFileSystem &FS, const std::string &Path,
                     const std::string &Content);

/// A fresh sibling temp path for staging \p Path:
/// `<path>.tmp.<pid>.<counter>`. Unique per process *and* per call, so
/// two processes (daemon + CLI) or two attempts staging the same
/// artifact can never collide on the temp name and rename each other's
/// half-written bytes into place.
std::string atomicTempPath(const std::string &Path);

/// True when \p Path looks like an atomicTempPath product (including
/// the legacy fixed `<path>.tmp` form older builds staged through).
bool isAtomicTempPath(const std::string &Path);

/// Removes orphaned staging temps under `DirPrefix/` (all files when
/// \p DirPrefix is empty) — the debris a crash between write and rename
/// leaves behind, which would otherwise leak forever. Callers must hold
/// the build lock: unique names protect concurrent *writers*, but a
/// sweep could still reap a temp an unlocked writer is about to rename.
/// Returns the number of files removed.
unsigned sweepAtomicTemps(VirtualFileSystem &FS,
                          const std::string &DirPrefix);

/// The same sweep over \p Files, a listFiles() result the caller already
/// holds, so a build lists its tree once.
unsigned sweepAtomicTemps(VirtualFileSystem &FS, const std::string &DirPrefix,
                          const std::vector<std::string> &Files);

} // namespace sc

#endif // SC_SUPPORT_ATOMICFILE_H
