//===- tests/build_sys/StatCleanTest.cpp ----------------------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The stat rules of build_sys/Manifest.h: a build reads a source or an
/// object only when its stat differs from the one the manifest recorded,
/// when its mtime is not strictly older than the last manifest write
/// (racy), or when the bytes are needed and not resident. A resident
/// driver therefore reads what an edit touched; a fresh one reads each
/// clean object once and hashes none of them; a same-size edit inside
/// the manifest's timestamp tick is still rebuilt.
///
//===----------------------------------------------------------------------===//

#include "build_sys/BuildSystem.h"
#include "build_sys/Manifest.h"
#include "support/Hashing.h"
#include "support/Serializer.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>

using namespace sc;
using namespace std::string_literals;

namespace {

/// Forwards everything, stat() included, to a base filesystem and
/// counts readFile() calls per path.
class CountingFileSystem : public VirtualFileSystem {
public:
  explicit CountingFileSystem(VirtualFileSystem &Base) : Base(Base) {}

  std::optional<std::string> readFile(const std::string &Path) override {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      ++Reads[Path];
    }
    return Base.readFile(Path);
  }
  bool writeFile(const std::string &Path, const std::string &C) override {
    return Base.writeFile(Path, C);
  }
  bool exists(const std::string &Path) override { return Base.exists(Path); }
  std::optional<FileStat> stat(const std::string &Path) override {
    return Base.stat(Path);
  }
  bool removeFile(const std::string &Path) override {
    return Base.removeFile(Path);
  }
  std::vector<std::string> listFiles() override { return Base.listFiles(); }
  bool renameFile(const std::string &From, const std::string &To) override {
    return Base.renameFile(From, To);
  }
  bool createExclusive(const std::string &Path,
                       const std::string &C) override {
    return Base.createExclusive(Path, C);
  }

  unsigned reads(const std::string &Path) {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Reads.find(Path);
    return It == Reads.end() ? 0 : It->second;
  }
  void reset() {
    std::lock_guard<std::mutex> Lock(Mu);
    Reads.clear();
  }

private:
  VirtualFileSystem &Base;
  std::mutex Mu;
  std::map<std::string, unsigned> Reads; // Guarded by Mu.
};

/// A filesystem whose timestamps have the resolution of a test-driven
/// tick: every write or create records the current Tick as the file's
/// mtime and ctime, and a rename carries it, the way a filesystem with
/// coarse timestamps gives every write inside one tick the same time.
class CoarseClockFileSystem : public CountingFileSystem {
public:
  explicit CoarseClockFileSystem(VirtualFileSystem &Base)
      : CountingFileSystem(Base) {}

  int64_t Tick = 1;

  bool writeFile(const std::string &Path, const std::string &C) override {
    Times[Path] = Tick;
    return CountingFileSystem::writeFile(Path, C);
  }
  bool createExclusive(const std::string &Path,
                       const std::string &C) override {
    if (!CountingFileSystem::createExclusive(Path, C))
      return false;
    Times[Path] = Tick;
    return true;
  }
  bool renameFile(const std::string &From, const std::string &To) override {
    if (!CountingFileSystem::renameFile(From, To))
      return false;
    Times[To] = Times[From];
    return true;
  }
  std::optional<FileStat> stat(const std::string &Path) override {
    std::optional<FileStat> St = CountingFileSystem::stat(Path);
    if (St)
      St->MtimeNs = St->CtimeNs = Times[Path];
    return St;
  }

private:
  std::map<std::string, int64_t> Times;
};

constexpr unsigned NumTUs = 8;

std::string tuName(unsigned I) { return "tu"s + std::to_string(I) + ".mc"; }
std::string objName(unsigned I) { return "out/" + tuName(I) + ".o"; }

/// Source of chain TU \p I: tu0 <- tu1 <- ... <- tu7, and tu7 defines
/// main. \p Salt (one digit, so every salt gives the same file size)
/// goes into tu3's body only.
std::string chainSource(unsigned I, int Salt) {
  const std::string N = std::to_string(I);
  const std::string Prev = std::to_string(I - 1);
  const std::string Add = std::to_string(I == 3 ? Salt : 1);
  std::string Src;
  if (I)
    Src += "import \"tu"s + Prev + ".mc\";\n";
  Src += "fn f"s + N + "(x: int) -> int { return " +
         (I ? "f"s + Prev + "(x)" : "x"s) + " + " + Add + "; }\n";
  if (I == NumTUs - 1)
    Src += "fn main() -> int { return f"s + N + "(1); }\n";
  return Src;
}

void writeChain(VirtualFileSystem &FS, int Salt) {
  for (unsigned I = 0; I != NumTUs; ++I)
    FS.writeFile(tuName(I), chainSource(I, Salt));
}

/// A body edit: rewrites tu3 alone, with \p Salt.
void editTU3(VirtualFileSystem &FS, int Salt) {
  FS.writeFile(tuName(3), chainSource(3, Salt));
}

/// main's return value: 1 + seven increments of 1 + \p Salt.
int64_t expectedReturn(int Salt) { return 1 + 7 + Salt; }

int64_t run(const BuildDriver &D) {
  EXPECT_NE(D.program(), nullptr);
  if (!D.program())
    return -1;
  return VM(*D.program()).run().ReturnValue.value_or(-1);
}

BuildOptions options() {
  BuildOptions BO;
  BO.Jobs = 2;
  return BO;
}

} // namespace

// Cold build, then a no-op build that confirms every TU and records its
// stats; after a body edit the resident driver reads the edited source
// and nothing else among the sources and objects.
TEST(StatClean, ResidentBodyEditReadsOnlyTheEditedSource) {
  InMemoryFileSystem Base;
  CountingFileSystem FS(Base);
  writeChain(FS, 1);
  BuildDriver D(FS, options());
  ASSERT_TRUE(D.build().Success);
  ASSERT_TRUE(D.build().Success);

  editTU3(FS, 2);
  FS.reset();
  BuildStats S = D.build();
  ASSERT_TRUE(S.Success) << S.ErrorText;
  ASSERT_EQ(S.DirtyTUs, std::vector<std::string>{tuName(3)});
  for (unsigned I = 0; I != NumTUs; ++I) {
    EXPECT_EQ(FS.reads(tuName(I)), I == 3 ? 1u : 0u) << tuName(I);
    EXPECT_EQ(FS.reads(objName(I)), 0u) << objName(I);
  }
  EXPECT_EQ(S.SourcesRead, 1u);
  EXPECT_EQ(S.ObjectsRead, 0u);
  EXPECT_EQ(S.ObjectsParsed, 0u);
  EXPECT_EQ(run(D), expectedReturn(2));
}

// A new process holds no parsed objects: it reads each clean object
// once (stat-clean, so parsed without hashing) and each source once,
// and never reads the object of the TU it recompiles.
TEST(StatClean, FreshDriverReadsEachCleanObjectOnce) {
  InMemoryFileSystem Base;
  CountingFileSystem FS(Base);
  writeChain(FS, 1);
  {
    BuildDriver Warm(FS, options());
    ASSERT_TRUE(Warm.build().Success);
    ASSERT_TRUE(Warm.build().Success);
  }

  editTU3(FS, 2);
  FS.reset();
  BuildDriver Fresh(FS, options());
  BuildStats S = Fresh.build();
  ASSERT_TRUE(S.Success) << S.ErrorText;
  ASSERT_EQ(S.DirtyTUs, std::vector<std::string>{tuName(3)});
  for (unsigned I = 0; I != NumTUs; ++I) {
    EXPECT_EQ(FS.reads(tuName(I)), 1u) << tuName(I);
    EXPECT_EQ(FS.reads(objName(I)), I == 3 ? 0u : 1u) << objName(I);
  }
  EXPECT_EQ(S.SourcesRead, NumTUs);
  EXPECT_EQ(S.ObjectsRead, NumTUs - 1);
  EXPECT_EQ(run(Fresh), expectedReturn(2));
}

// A touched but unchanged source is read and hashed once, found clean
// (nothing compiles), and stat-clean again from the build after.
TEST(StatClean, TouchedSourceIsReadOnceThenTrusted) {
  InMemoryFileSystem Base;
  CountingFileSystem FS(Base);
  writeChain(FS, 1);
  BuildDriver D(FS, options());
  ASSERT_TRUE(D.build().Success);
  ASSERT_TRUE(D.build().Success);

  FS.writeFile(tuName(5), *FS.readFile(tuName(5))); // New mtime only.
  FS.reset();
  BuildStats Touched = D.build();
  ASSERT_TRUE(Touched.Success) << Touched.ErrorText;
  EXPECT_EQ(Touched.FilesCompiled, 0u);
  EXPECT_EQ(Touched.SourcesRead, 1u);
  EXPECT_EQ(FS.reads(tuName(5)), 1u);

  BuildStats After = D.build();
  ASSERT_TRUE(After.Success) << After.ErrorText;
  EXPECT_EQ(After.FilesCompiled, 0u);
  EXPECT_EQ(After.SourcesRead, 0u);
  EXPECT_EQ(After.ObjectsRead, 0u);
}

// The racy rule. With timestamps as coarse as a whole tick, a same-size
// edit made in the tick of the last manifest write leaves the source's
// stat equal to the recorded one; only "mtime strictly older than the
// manifest write" tells the build to read it again. Without that rule
// the edit is never compiled and the program keeps the old result.
TEST(StatClean, SameSizeEditInsideTheManifestTickIsRebuilt) {
  InMemoryFileSystem Base;
  CoarseClockFileSystem FS(Base);
  writeChain(FS, 1);
  BuildDriver D(FS, options());
  ASSERT_TRUE(D.build().Success);
  ASSERT_TRUE(D.build().Success); // Records stats; manifest in tick 1.
  ASSERT_EQ(run(D), expectedReturn(1));

  const std::optional<FileStat> Before = FS.stat(tuName(3));
  editTU3(FS, 2); // Same size, same inode, still tick 1.
  ASSERT_EQ(FS.stat(tuName(3)), Before) << "the edit must be stat-invisible";

  BuildStats S = D.build();
  ASSERT_TRUE(S.Success) << S.ErrorText;
  EXPECT_EQ(S.DirtyTUs, std::vector<std::string>{tuName(3)});
  EXPECT_EQ(run(D), expectedReturn(2));

  // Once the clock has moved past the manifest write, the same files
  // are stat-clean: a build confirms tu3, the next one reads nothing.
  FS.Tick = 2;
  ASSERT_TRUE(D.build().Success);
  BuildStats Quiet = D.build();
  ASSERT_TRUE(Quiet.Success) << Quiet.ErrorText;
  EXPECT_EQ(Quiet.FilesCompiled, 0u);
  EXPECT_EQ(Quiet.SourcesRead, 0u);
  EXPECT_EQ(Quiet.ObjectsRead, 0u);
  EXPECT_EQ(run(D), expectedReturn(2));
}

// A manifest written before stats existed (version 1) still loads: its
// entries carry empty stats, so everything is read and hashed once and
// nothing recompiles; that build writes version 2.
TEST(StatClean, VersionOneManifestLoadsWithoutARecompile) {
  InMemoryFileSystem FS;
  writeChain(FS, 1);
  {
    BuildDriver Warm(FS, options());
    ASSERT_TRUE(Warm.build().Success);
  }
  BuildManifest M;
  ASSERT_TRUE(M.loadFromFile(FS, "out/manifest.bin"));
  BinaryWriter W;
  W.writeU32(0x53434d46); // "SCMF"
  W.writeU32(1);
  W.writeVarU64(M.entries().size());
  for (const auto &[Path, E] : M.entries()) {
    W.writeString(Path);
    W.writeU64(E.ContentHash);
    W.writeU64(E.ImportsEffectiveHash);
    W.writeU64(E.ObjectHash);
    W.writeU64(E.ConfigHash);
  }
  std::string V1(reinterpret_cast<const char *>(W.data().data()), W.size());
  BinaryWriter Tail;
  Tail.writeU64(hashString(V1));
  V1.append(reinterpret_cast<const char *>(Tail.data().data()), Tail.size());
  ASSERT_TRUE(FS.writeFile("out/manifest.bin", V1));

  BuildDriver Fresh(FS, options());
  BuildStats S = Fresh.build();
  ASSERT_TRUE(S.Success) << S.ErrorText;
  EXPECT_EQ(S.FilesCompiled, 0u);
  EXPECT_TRUE(S.Warnings.empty());
  EXPECT_EQ(S.SourcesRead, NumTUs);
  EXPECT_EQ(S.ObjectsRead, NumTUs);
  EXPECT_EQ(run(Fresh), expectedReturn(1));

  const std::string V2 = *FS.readFile("out/manifest.bin");
  ASSERT_GE(V2.size(), 8u);
  EXPECT_EQ(V2[4], 2) << "the build rewrites the manifest as version 2";
  BuildManifest Reloaded;
  ASSERT_TRUE(Reloaded.loadFromFile(FS, "out/manifest.bin"));
  for (const auto &[Path, E] : Reloaded.entries())
    EXPECT_NE(E.SourceStat, FileStat{}) << Path << ": confirmed, so stat'd";
}
