//===- support/FileSystem.cpp - Virtual filesystem implementations -------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FileSystem.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace sc;

namespace fs = std::filesystem;

VirtualFileSystem::~VirtualFileSystem() = default;

bool VirtualFileSystem::renameFile(const std::string &From,
                                   const std::string &To) {
  std::optional<std::string> Content = readFile(From);
  if (!Content)
    return false;
  if (!writeFile(To, *Content))
    return false;
  removeFile(From);
  return true;
}

bool VirtualFileSystem::syncFile(const std::string &) { return true; }

bool VirtualFileSystem::createExclusive(const std::string &Path,
                                        const std::string &Content) {
  if (exists(Path))
    return false;
  return writeFile(Path, Content);
}

std::optional<FileStat> VirtualFileSystem::stat(const std::string &) {
  return std::nullopt;
}

std::string VirtualFileSystem::lastError() const { return std::string(); }

//===----------------------------------------------------------------------===//
// InMemoryFileSystem
//===----------------------------------------------------------------------===//

namespace {
std::atomic<int64_t> MemClock{0};
std::atomic<uint64_t> MemNextInode{1};

int64_t nextTick() { return MemClock.fetch_add(1) + 1; }
} // namespace

void InMemoryFileSystem::write(const std::string &Path, std::string Content) {
  auto [It, New] = Files.try_emplace(Path);
  File &F = It->second;
  if (New)
    F.Stat.Inode = MemNextInode.fetch_add(1);
  F.Content = std::move(Content);
  F.Stat.Size = F.Content.size();
  F.Stat.MtimeNs = F.Stat.CtimeNs = nextTick();
}

std::optional<std::string>
InMemoryFileSystem::readFile(const std::string &Path) {
  auto It = Files.find(Path);
  if (It == Files.end())
    return std::nullopt;
  return It->second.Content;
}

bool InMemoryFileSystem::writeFile(const std::string &Path,
                                   const std::string &Content) {
  write(Path, Content);
  return true;
}

bool InMemoryFileSystem::exists(const std::string &Path) {
  return Files.count(Path) != 0;
}

std::optional<FileStat> InMemoryFileSystem::stat(const std::string &Path) {
  auto It = Files.find(Path);
  if (It == Files.end())
    return std::nullopt;
  return It->second.Stat;
}

bool InMemoryFileSystem::removeFile(const std::string &Path) {
  return Files.erase(Path) != 0;
}

std::vector<std::string> InMemoryFileSystem::listFiles() {
  std::vector<std::string> Paths;
  Paths.reserve(Files.size());
  for (const auto &[Path, F] : Files)
    Paths.push_back(Path);
  return Paths;
}

bool InMemoryFileSystem::renameFile(const std::string &From,
                                    const std::string &To) {
  auto It = Files.find(From);
  if (It == Files.end())
    return false;
  File Moved = std::move(It->second);
  Files.erase(It);
  Moved.Stat.CtimeNs = nextTick(); // As on Linux: the inode changed.
  Files[To] = std::move(Moved);
  return true;
}

bool InMemoryFileSystem::createExclusive(const std::string &Path,
                                         const std::string &Content) {
  if (Files.count(Path))
    return false;
  write(Path, Content);
  return true;
}

uint64_t InMemoryFileSystem::totalBytes() const {
  uint64_t Sum = 0;
  for (const auto &[Path, F] : Files)
    Sum += F.Content.size();
  return Sum;
}

//===----------------------------------------------------------------------===//
// RealFileSystem
//===----------------------------------------------------------------------===//

RealFileSystem::RealFileSystem(std::string Root) : Root(std::move(Root)) {
  std::error_code EC;
  fs::create_directories(this->Root, EC);
}

std::string RealFileSystem::absolute(const std::string &Path) const {
  return (fs::path(Root) / Path).string();
}

std::optional<std::string> RealFileSystem::readFile(const std::string &Path) {
  // Read into one string sized by fstat, plus a spare byte so the read
  // that sees EOF needs no reallocation; the loop still copes with a
  // file that grows or shrinks while it is read.
  int FD = ::open(absolute(Path).c_str(), O_RDONLY | O_CLOEXEC);
  if (FD < 0) {
    LastErr = std::strerror(errno);
    return std::nullopt;
  }
  struct ::stat St;
  std::string Out;
  if (::fstat(FD, &St) == 0 && St.st_size > 0)
    Out.resize(static_cast<size_t>(St.st_size) + 1);
  size_t Len = 0;
  while (true) {
    if (Len == Out.size())
      Out.resize(Out.size() + 4096);
    ssize_t N = ::read(FD, Out.data() + Len, Out.size() - Len);
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0) {
      LastErr = std::strerror(errno);
      ::close(FD);
      return std::nullopt;
    }
    if (N == 0)
      break;
    Len += static_cast<size_t>(N);
  }
  ::close(FD);
  Out.resize(Len);
  return Out;
}

bool RealFileSystem::writeFile(const std::string &Path,
                               const std::string &Content) {
  fs::path Abs(absolute(Path));
  std::error_code EC;
  if (Abs.has_parent_path())
    fs::create_directories(Abs.parent_path(), EC);
  errno = 0;
  std::ofstream Out(Abs, std::ios::binary | std::ios::trunc);
  if (!Out) {
    LastErr = std::strerror(errno);
    return false;
  }
  Out.write(Content.data(), static_cast<std::streamsize>(Content.size()));
  if (!Out) {
    LastErr = std::strerror(errno ? errno : EIO);
    return false;
  }
  return true;
}

bool RealFileSystem::exists(const std::string &Path) {
  std::error_code EC;
  return fs::exists(absolute(Path), EC);
}

std::optional<FileStat> RealFileSystem::stat(const std::string &Path) {
  struct ::stat St;
  if (::stat(absolute(Path).c_str(), &St) != 0)
    return std::nullopt;
  auto Ns = [](const timespec &T) {
    return static_cast<int64_t>(T.tv_sec) * 1000000000 + T.tv_nsec;
  };
  return FileStat{static_cast<uint64_t>(St.st_size), Ns(St.st_mtim),
                  Ns(St.st_ctim), static_cast<uint64_t>(St.st_ino)};
}

bool RealFileSystem::removeFile(const std::string &Path) {
  std::error_code EC;
  return fs::remove(absolute(Path), EC);
}

bool RealFileSystem::renameFile(const std::string &From,
                                const std::string &To) {
  std::error_code EC;
  fs::rename(absolute(From), absolute(To), EC);
  if (EC) {
    LastErr = EC.message();
    return false;
  }
  return true;
}

bool RealFileSystem::syncFile(const std::string &Path) {
  // fsync the file, then its directory so the entry itself is durable.
  int FD = ::open(absolute(Path).c_str(), O_RDONLY);
  if (FD < 0) {
    LastErr = std::strerror(errno);
    return false;
  }
  bool OK = ::fsync(FD) == 0;
  if (!OK)
    LastErr = std::strerror(errno);
  ::close(FD);
  fs::path Parent = fs::path(absolute(Path)).parent_path();
  int DirFD = ::open(Parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (DirFD >= 0) {
    ::fsync(DirFD); // Best effort; some filesystems reject dir fsync.
    ::close(DirFD);
  }
  return OK;
}

bool RealFileSystem::createExclusive(const std::string &Path,
                                     const std::string &Content) {
  fs::path Abs(absolute(Path));
  std::error_code EC;
  if (Abs.has_parent_path())
    fs::create_directories(Abs.parent_path(), EC);
  int FD = ::open(Abs.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (FD < 0) {
    LastErr = std::strerror(errno);
    return false;
  }
  size_t Off = 0;
  bool OK = true;
  while (Off != Content.size()) {
    ssize_t N = ::write(FD, Content.data() + Off, Content.size() - Off);
    if (N <= 0) {
      LastErr = std::strerror(errno);
      OK = false;
      break;
    }
    Off += static_cast<size_t>(N);
  }
  ::close(FD);
  return OK;
}

std::string RealFileSystem::lastError() const { return LastErr; }

std::vector<std::string> RealFileSystem::listFiles() {
  // Entries are Root joined with their relative path, so stripping the
  // prefix yields that path; fs::relative would canonicalize both paths
  // (a chain of syscalls) per entry.
  const std::string Prefix = fs::path(Root).string();
  std::vector<std::string> Paths;
  std::error_code EC;
  fs::recursive_directory_iterator It(Root, EC), End;
  for (; !EC && It != End; It.increment(EC)) {
    if (!It->is_regular_file(EC))
      continue;
    const std::string &P = It->path().native();
    size_t Skip = Prefix.size();
    if (Skip < P.size() && P[Skip] == '/')
      ++Skip;
    Paths.push_back(P.substr(Skip));
  }
  std::sort(Paths.begin(), Paths.end());
  return Paths;
}
