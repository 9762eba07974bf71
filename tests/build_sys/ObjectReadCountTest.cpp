//===- tests/build_sys/ObjectReadCountTest.cpp ----------------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Per-build object I/O stays proportional to what a build must check:
/// an incremental build reads each clean TU's object file exactly once
/// (its scan-time validation against the manifest hash) and never reads
/// back the object of a TU it just recompiled. Link takes the modules
/// the build already validated or stored, and a remote-cache publish
/// of a clean TU serializes its validated module instead of reading
/// the file again.
///
//===----------------------------------------------------------------------===//

#include "build_sys/BuildSystem.h"
#include "build_sys/ObjectCache.h"
#include "driver/Compiler.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>

using namespace sc;
using namespace std::string_literals;

namespace {

/// Forwards to a base filesystem and counts readFile() calls per path.
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
  bool removeFile(const std::string &Path) override {
    return Base.removeFile(Path);
  }
  std::vector<std::string> listFiles() override { return Base.listFiles(); }
  bool renameFile(const std::string &From, const std::string &To) override {
    return Base.renameFile(From, To);
  }
  bool syncFile(const std::string &Path) override {
    return Base.syncFile(Path);
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

constexpr unsigned NumTUs = 8;

std::string tuName(unsigned I) { return "tu"s + std::to_string(I) + ".mc"; }

/// tu0 <- tu1 <- ... <- tu7, and tu7 defines main. \p Salt goes into
/// tu3's function body only.
void writeChain(VirtualFileSystem &FS, int Salt) {
  for (unsigned I = 0; I != NumTUs; ++I) {
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
    FS.writeFile(tuName(I), Src);
  }
}

} // namespace

// A body edit to one TU recompiles only it. Both a resident driver (the
// daemon's warm caches) and a fresh one (a new scbuild process) must
// then read every clean object once and the recompiled one never.
TEST(ObjectReadCount, IncrementalBuildReadsEachCleanObjectOnce) {
  for (bool Resident : {true, false}) {
    SCOPED_TRACE(Resident ? "resident driver" : "fresh driver");
    InMemoryFileSystem Base;
    CountingFileSystem FS(Base);
    writeChain(FS, 1);
    BuildOptions BO;
    BO.Jobs = 2;
    auto Warm = std::make_unique<BuildDriver>(FS, BO);
    ASSERT_TRUE(Warm->build().Success);

    writeChain(FS, 2); // Body edit: only tu3's code changes.
    if (!Resident)
      Warm = std::make_unique<BuildDriver>(FS, BO);
    FS.reset();
    BuildStats S = Warm->build();
    ASSERT_TRUE(S.Success) << S.ErrorText;
    ASSERT_EQ(S.DirtyTUs, std::vector<std::string>{tuName(3)});

    for (unsigned I = 0; I != NumTUs; ++I) {
      const std::string Obj = "out/" + tuName(I) + ".o";
      EXPECT_EQ(FS.reads(Obj), I == 3 ? 0u : 1u) << Obj;
    }
  }
}

TEST(ObjectReadCount, PublishingAValidatedObjectReadsNoFile) {
  InMemoryFileSystem Base;
  CountingFileSystem FS(Base);
  Compiler C{CompilerOptions{}};
  CompileResult R = C.compile("x.mc", "fn main() -> int { return 7; }", {});
  ASSERT_TRUE(R.Success) << R.DiagText;
  std::string Stored;
  const uint64_t Hash =
      ObjectCache(FS, "out").store("x.mc", std::move(R.Object), &Stored);

  // A fresh cache, as in the next process: scan validates the object
  // (one read), then the remote sync asks for its bytes.
  ObjectCache Cache(FS, "out");
  FS.reset();
  ASSERT_NE(Cache.load("x.mc", Hash), nullptr);
  std::string Bytes;
  ASSERT_TRUE(Cache.serializedBytes("x.mc", Hash, Bytes));
  EXPECT_EQ(Bytes, Stored);
  EXPECT_EQ(FS.reads("out/x.mc.o"), 1u);
}
