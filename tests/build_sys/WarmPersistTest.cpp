//===- tests/build_sys/WarmPersistTest.cpp --------------------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// What a warm build writes and re-reads around the compiler: the
/// history ledger is checked once per driver and then trusted while its
/// stat shows that nobody else wrote it; manifest.bin and state.db are
/// not rewritten when their bytes and stat are unchanged; and a
/// read-only build never touches the ledger of the lock owner.
///
//===----------------------------------------------------------------------===//

#include "build_sys/BuildSystem.h"
#include "build_sys/History.h"
#include "support/FaultyFileSystem.h"
#include "support/FileLock.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <optional>

#include <unistd.h>

using namespace sc;

namespace {

const std::string Ledger = "out/history.jsonl";

/// Forwards everything, stat() included, to a base filesystem. Counts
/// reads per path and writes that land on a path (a write in place or a
/// rename onto it), and can pin the stat one path reports, hiding a
/// change from anyone who checks the stat.
class CountingFileSystem : public VirtualFileSystem {
public:
  explicit CountingFileSystem(VirtualFileSystem &Base) : Base(Base) {}

  std::optional<std::string> readFile(const std::string &Path) override {
    count(Reads, Path);
    return Base.readFile(Path);
  }
  bool writeFile(const std::string &Path, const std::string &C) override {
    count(Writes, Path);
    return Base.writeFile(Path, C);
  }
  bool exists(const std::string &Path) override { return Base.exists(Path); }
  std::optional<FileStat> stat(const std::string &Path) override {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Pinned.find(Path);
    return It != Pinned.end() ? It->second : Base.stat(Path);
  }
  bool removeFile(const std::string &Path) override {
    return Base.removeFile(Path);
  }
  std::vector<std::string> listFiles() override { return Base.listFiles(); }
  bool renameFile(const std::string &From, const std::string &To) override {
    count(Writes, To);
    return Base.renameFile(From, To);
  }
  bool createExclusive(const std::string &Path,
                       const std::string &C) override {
    return Base.createExclusive(Path, C);
  }

  unsigned reads(const std::string &Path) { return get(Reads, Path); }
  unsigned writes(const std::string &Path) { return get(Writes, Path); }
  void reset() {
    std::lock_guard<std::mutex> Lock(Mu);
    Reads.clear();
    Writes.clear();
  }
  /// From now on stat(\p Path) answers the stat it has now.
  void pinStat(const std::string &Path) {
    std::optional<FileStat> St = Base.stat(Path);
    std::lock_guard<std::mutex> Lock(Mu);
    Pinned[Path] = St;
  }

private:
  void count(std::map<std::string, unsigned> &M, const std::string &Path) {
    std::lock_guard<std::mutex> Lock(Mu);
    ++M[Path];
  }
  unsigned get(std::map<std::string, unsigned> &M, const std::string &Path) {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = M.find(Path);
    return It == M.end() ? 0 : It->second;
  }

  VirtualFileSystem &Base;
  std::mutex Mu;
  std::map<std::string, unsigned> Reads, Writes;       // Guarded by Mu.
  std::map<std::string, std::optional<FileStat>> Pinned; // Guarded by Mu.
};

void writeProject(VirtualFileSystem &FS) {
  FS.writeFile("util.mc", "fn twice(x: int) -> int { return x * 2; }\n");
  FS.writeFile("main.mc", "import \"util.mc\";\n"
                          "fn main() -> int { return twice(21); }\n");
}

BuildOptions options(MetricsRegistry *Metrics = nullptr) {
  BuildOptions BO;
  BO.Compiler.Stateful.SkipMode = StatefulConfig::Mode::HeuristicSkip;
  BO.Compiler.Metrics = Metrics;
  BO.LockTimeoutMs = 20;
  BO.LockBackoffMs = 2;
  return BO;
}

/// Lock content naming this (live) process under a token no FileLock
/// of this process ever issues: a live foreign holder.
std::string foreignLock() {
  return "pid " + std::to_string(::getpid()) + " #7\n";
}

/// The ledger with one byte of its first line's checksum changed; the
/// size stays the same.
void damageFirstLine(VirtualFileSystem &FS) {
  std::string Bytes = FS.readFile(Ledger).value();
  const size_t Crc = Bytes.find("\"crc\":\"") + 7;
  Bytes[Crc] = Bytes[Crc] == '0' ? '1' : '0';
  ASSERT_TRUE(FS.writeFile(Ledger, Bytes));
}

} // namespace

//===--- The history ledger ------------------------------------------------===//

TEST(HistoryBuilds, ReadOnlyBuildLeavesTheLedgerAlone) {
  InMemoryFileSystem FS;
  writeProject(FS);
  MetricsRegistry Metrics;
  BuildDriver Driver(FS, options(&Metrics));

  // No ledger: a read-only build creates none.
  ASSERT_TRUE(FS.createExclusive("out/.lock", foreignLock()));
  BuildStats S1 = Driver.build();
  ASSERT_TRUE(S1.Success) << S1.ErrorText;
  EXPECT_TRUE(S1.ReadOnly);
  EXPECT_EQ(S1.BuildId, 0u);
  EXPECT_FALSE(FS.exists(Ledger));
  EXPECT_EQ(Metrics.counter("build.history_appends").value(), 0u);

  // An existing ledger keeps its bytes.
  ASSERT_TRUE(FS.removeFile("out/.lock"));
  ASSERT_EQ(Driver.build().BuildId, 1u);
  const std::string Before = FS.readFile(Ledger).value();
  ASSERT_TRUE(FS.createExclusive("out/.lock", foreignLock()));
  BuildStats S3 = Driver.build();
  ASSERT_TRUE(S3.Success) << S3.ErrorText;
  EXPECT_TRUE(S3.ReadOnly);
  EXPECT_EQ(S3.BuildId, 0u);
  EXPECT_EQ(FS.readFile(Ledger).value(), Before);
  EXPECT_EQ(Metrics.counter("build.history_appends").value(), 1u);
}

// A lock file this process left behind when a release crashed has no
// holder, though its PID is alive: the next build reclaims it, as it
// would a dead process's, instead of running read-only.
TEST(HistoryBuilds, LockThisProcessAbandonedIsReclaimed) {
  InMemoryFileSystem Base;
  writeProject(Base);
  {
    FaultyFileSystem FS(Base);
    FileLock Lock = FileLock::acquire(FS, "out/.lock", 20, 2);
    ASSERT_TRUE(Lock.held());
    FS.arm(FaultyFileSystem::Fault::Crash, FS.mutatingOps() + 1);
  }
  ASSERT_TRUE(Base.exists("out/.lock"));
  BuildDriver Driver(Base, options());
  BuildStats S = Driver.build();
  ASSERT_TRUE(S.Success) << S.ErrorText;
  EXPECT_FALSE(S.ReadOnly);
  EXPECT_EQ(S.BuildId, 1u);
  EXPECT_FALSE(Base.exists("out/.lock"));
}

TEST(HistoryBuilds, ResidentDriverChecksTheLedgerOnce) {
  InMemoryFileSystem Base;
  writeProject(Base);
  CountingFileSystem FS(Base);
  BuildDriver Driver(FS, options());
  ASSERT_EQ(Driver.build().BuildId, 1u);
  ASSERT_EQ(Driver.build().BuildId, 2u);

  // Damage the oldest line behind an unchanged stat. The driver trusts
  // the ledger it last wrote: it reads the bytes once, checks no line,
  // and keeps the damaged one byte for byte.
  FS.pinStat(Ledger);
  damageFirstLine(Base);
  const std::string Damaged = Base.readFile(Ledger).value();
  FS.reset();
  BuildStats S3 = Driver.build();
  EXPECT_EQ(S3.BuildId, 3u);
  EXPECT_EQ(S3.HistoryRecordsSkipped, 0u);
  EXPECT_EQ(FS.reads(Ledger), 1u);
  const std::string After = Base.readFile(Ledger).value();
  EXPECT_EQ(After.compare(0, Damaged.size(), Damaged), 0);

  // A second driver trusts nothing it did not write: it checks every
  // line and drops the damaged one.
  BuildDriver Fresh(FS, options());
  BuildStats S4 = Fresh.build();
  EXPECT_EQ(S4.BuildId, 4u);
  EXPECT_EQ(S4.HistoryRecordsSkipped, 1u);
  EXPECT_EQ(BuildHistory::load(Base, Ledger).Skipped, 0u);
}

TEST(HistoryBuilds, LedgerChangedBehindTheDriverIsRechecked) {
  InMemoryFileSystem Base;
  writeProject(Base);
  CountingFileSystem FS(Base);
  BuildDriver Driver(FS, options());
  ASSERT_EQ(Driver.build().BuildId, 1u);
  ASSERT_EQ(Driver.build().BuildId, 2u);

  // Another writer appends a record: the next id continues from it.
  HistoryRecord Foreign;
  Foreign.BuildId = 41;
  ASSERT_TRUE(BuildHistory::append(Base, Ledger, Foreign, 512));
  BuildStats S3 = Driver.build();
  EXPECT_EQ(S3.BuildId, 42u);
  EXPECT_EQ(S3.HistoryRecordsSkipped, 0u);

  // A torn line appended behind the driver is noticed and counted.
  ASSERT_TRUE(Base.writeFile(Ledger, Base.readFile(Ledger).value() +
                                         "{\"schema\":\"scbuild-hist\n"));
  BuildStats S4 = Driver.build();
  EXPECT_EQ(S4.BuildId, 43u);
  EXPECT_EQ(S4.HistoryRecordsSkipped, 1u);

  // And the driver trusts its own rewrite again.
  BuildStats S5 = Driver.build();
  EXPECT_EQ(S5.BuildId, 44u);
  EXPECT_EQ(S5.HistoryRecordsSkipped, 0u);
  HistoryLoadResult L = BuildHistory::load(Base, Ledger);
  EXPECT_EQ(L.Skipped, 0u);
  ASSERT_EQ(L.Records.size(), 6u);
  EXPECT_EQ(L.Records.back().BuildId, 44u);
}

TEST(HistoryBuilds, TrustedTailKeepsExactRetention) {
  InMemoryFileSystem FS;
  writeProject(FS);
  BuildOptions BO = options();
  BO.HistoryLimit = 3;
  BuildDriver Driver(FS, BO);
  for (uint64_t Id = 1; Id <= 6; ++Id)
    ASSERT_EQ(Driver.build().BuildId, Id);
  HistoryLoadResult L = BuildHistory::load(FS, Ledger);
  EXPECT_EQ(L.Skipped, 0u);
  ASSERT_EQ(L.Records.size(), 3u);
  EXPECT_EQ(L.Records.front().BuildId, 4u);
  EXPECT_EQ(L.Records.back().BuildId, 6u);
}

//===--- manifest.bin and state.db -----------------------------------------===//

TEST(PersistSkip, NoOpBuildWritesNoStateDb) {
  InMemoryFileSystem Base;
  writeProject(Base);
  CountingFileSystem FS(Base);
  BuildDriver Driver(FS, options());
  ASSERT_TRUE(Driver.build().Success);
  EXPECT_EQ(FS.writes("out/state.db"), 1u);

  // The second build records the stats it confirmed, so only the
  // manifest changes; the third changes nothing.
  FS.reset();
  ASSERT_TRUE(Driver.build().Success);
  EXPECT_EQ(FS.writes("out/state.db"), 0u);
  EXPECT_EQ(FS.writes("out/manifest.bin"), 1u);
  FS.reset();
  BuildStats S3 = Driver.build();
  ASSERT_TRUE(S3.Success);
  EXPECT_EQ(FS.writes("out/state.db"), 0u);
  EXPECT_EQ(FS.writes("out/manifest.bin"), 0u);
  EXPECT_GT(S3.StateDBBytes, 0u);
}

// What a driver loaded counts as written: a fresh process whose build
// changes nothing rewrites neither file.
TEST(PersistSkip, FreshDriverNoOpBuildWritesNothing) {
  InMemoryFileSystem Base;
  writeProject(Base);
  {
    BuildDriver First(Base, options());
    ASSERT_TRUE(First.build().Success);
    ASSERT_TRUE(First.build().Success);
  }
  CountingFileSystem FS(Base);
  BuildDriver Fresh(FS, options());
  BuildStats S = Fresh.build();
  ASSERT_TRUE(S.Success) << S.ErrorText;
  EXPECT_EQ(S.FilesCompiled, 0u);
  EXPECT_EQ(FS.writes("out/state.db"), 0u);
  EXPECT_EQ(FS.writes("out/manifest.bin"), 0u);
}

TEST(PersistSkip, StateDbChangedBehindTheDriverIsRewritten) {
  InMemoryFileSystem Base;
  writeProject(Base);
  CountingFileSystem FS(Base);
  BuildDriver Driver(FS, options());
  ASSERT_TRUE(Driver.build().Success);
  ASSERT_TRUE(Driver.build().Success);
  const std::string State = Base.readFile("out/state.db").value();

  // Deleted: rewritten.
  ASSERT_TRUE(Base.removeFile("out/state.db"));
  FS.reset();
  ASSERT_TRUE(Driver.build().Success);
  EXPECT_EQ(FS.writes("out/state.db"), 1u);
  EXPECT_EQ(Base.readFile("out/state.db").value_or(""), State);

  // Overwritten with other bytes: rewritten.
  ASSERT_TRUE(Base.writeFile("out/state.db", "vandalized"));
  FS.reset();
  ASSERT_TRUE(Driver.build().Success);
  EXPECT_EQ(FS.writes("out/state.db"), 1u);
  EXPECT_EQ(Base.readFile("out/state.db").value_or(""), State);

  // Left alone: skipped again.
  FS.reset();
  ASSERT_TRUE(Driver.build().Success);
  EXPECT_EQ(FS.writes("out/state.db"), 0u);
}
