//===- support/FileSystem.h - Virtual filesystem abstraction ----*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Filesystem abstraction used by the build system, the driver, and the
/// BuildStateDB. Benchmarks run against the in-memory implementation so
/// measured build times reflect compilation work, not disk jitter; the
/// on-disk implementation backs the examples and persistence tests.
///
/// stat() lets the build system skip reading a file it has seen before:
/// a file whose stat equals the one recorded when its bytes were last
/// hashed, and whose mtime is older than the manifest write that
/// recorded it, is taken as unchanged (docs/BUILD_SYSTEM.md, "Stat-clean
/// files").
///
//===----------------------------------------------------------------------===//

#ifndef SC_SUPPORT_FILESYSTEM_H
#define SC_SUPPORT_FILESYSTEM_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace sc {

/// What stat(2) reports about a file: enough to tell, without reading
/// it, that it is the file seen before. All zero means "no stat known",
/// which never equals a real file's stat.
struct FileStat {
  uint64_t Size = 0;
  int64_t MtimeNs = 0; ///< Last content change.
  int64_t CtimeNs = 0; ///< Last content or inode change.
  uint64_t Inode = 0;

  bool operator==(const FileStat &) const = default;
};

/// Abstract file storage with string paths and whole-file granularity.
class VirtualFileSystem {
public:
  virtual ~VirtualFileSystem();

  /// Returns the file content, or std::nullopt if the file is missing.
  virtual std::optional<std::string> readFile(const std::string &Path) = 0;

  /// Creates or overwrites \p Path. Returns false on I/O failure.
  virtual bool writeFile(const std::string &Path,
                         const std::string &Content) = 0;

  virtual bool exists(const std::string &Path) = 0;

  /// The file's size, times and inode, or std::nullopt when it is
  /// missing or the implementation cannot tell. The default returns
  /// std::nullopt, which callers treat as "unknown: read and hash the
  /// file", so a decorator that does not forward stat() only loses the
  /// shortcut.
  virtual std::optional<FileStat> stat(const std::string &Path);

  /// Removes a file if present; returns true if it was removed.
  virtual bool removeFile(const std::string &Path) = 0;

  /// Lists all file paths, sorted lexicographically for determinism.
  virtual std::vector<std::string> listFiles() = 0;

  /// Atomically replaces \p To with \p From (the crash-safe commit step
  /// of atomicWriteFile). The default is a non-atomic read/write/remove
  /// emulation; implementations backed by a real filesystem override it
  /// with an O_ATOMIC rename so a crash can never expose a half-written
  /// destination.
  virtual bool renameFile(const std::string &From, const std::string &To);

  /// Flushes \p Path to stable storage (fsync). No-op (success) for
  /// memory-backed implementations.
  virtual bool syncFile(const std::string &Path);

  /// Creates \p Path with \p Content only if it does not already exist;
  /// returns false when it does (or on I/O failure). The advisory-lock
  /// primitive: real filesystems implement it with O_CREAT|O_EXCL.
  virtual bool createExclusive(const std::string &Path,
                               const std::string &Content);

  /// Human-readable description of the most recent failure (errno text
  /// for real filesystems, the injected fault for FaultyFileSystem).
  /// Empty when unknown.
  virtual std::string lastError() const;
};

/// Heap-backed filesystem; the default substrate for benchmarks/tests.
/// Its stat() times come from a logical clock that every write, rename
/// and exclusive create advances, so two writes never share a time; a
/// rename carries the inode and mtime of the file it moves. The clock
/// and the inode numbers are shared by all instances in the process,
/// so a copy of a tree never stats like the original.
class InMemoryFileSystem : public VirtualFileSystem {
public:
  std::optional<std::string> readFile(const std::string &Path) override;
  bool writeFile(const std::string &Path, const std::string &Content) override;
  bool exists(const std::string &Path) override;
  std::optional<FileStat> stat(const std::string &Path) override;
  bool removeFile(const std::string &Path) override;
  std::vector<std::string> listFiles() override;
  bool renameFile(const std::string &From, const std::string &To) override;
  bool createExclusive(const std::string &Path,
                       const std::string &Content) override;

  /// Total bytes stored across all files (for overhead accounting).
  uint64_t totalBytes() const;

private:
  struct File {
    std::string Content;
    FileStat Stat;
  };

  /// Replaces \p Path's content and sets its times to a new clock tick;
  /// a new path gets a fresh inode.
  void write(const std::string &Path, std::string Content);

  std::map<std::string, File> Files;
};

/// Filesystem rooted at a real directory; paths are relative to Root.
class RealFileSystem : public VirtualFileSystem {
public:
  explicit RealFileSystem(std::string Root);

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

  const std::string &root() const { return Root; }

private:
  std::string absolute(const std::string &Path) const;

  std::string Root;
  mutable std::string LastErr;
};

} // namespace sc

#endif // SC_SUPPORT_FILESYSTEM_H
