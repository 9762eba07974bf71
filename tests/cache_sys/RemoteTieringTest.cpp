//===- tests/cache_sys/RemoteTieringTest.cpp - BuildDriver tiering --------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The end-to-end tiering contract of `scbuild --remote-cache`:
//
//  * a cold workspace against a warm sccached compiles nothing — every
//    object arrives verified from the remote tier, and the result is
//    byte-identical to a clean local rebuild (the linked program's
//    observable behavior AND every artifact under out/), including
//    after an LRU eviction/refill cycle has churned the remote store;
//  * a warm builder repopulates a cold fleet cache without recompiling;
//  * any remote failure — daemon absent, daemon dies under a live
//    connection — degrades the build to local-only with exactly one
//    warning and never a failed build, and the trace's `degrade`
//    instant carries the reason as valid JSON;
//  * ObjectCache distinguishes absent from corrupt local objects, so
//    the tier (and these tests) can assert quarantine vs plain miss.
//
//===----------------------------------------------------------------------===//

#include <algorithm>

#include "build_sys/BuildSystem.h"
#include "build_sys/ObjectCache.h"
#include "cache_sys/CacheDaemon.h"
#include "cache_sys/RemoteCacheClient.h"
#include "driver/Compiler.h"
#include "support/FlatJson.h"
#include "support/Hashing.h"
#include "support/Trace.h"
#include "vm/VM.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

using namespace sc;

namespace {

struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/sc-tier-XXXXXX";
    const char *P = ::mkdtemp(Buf);
    EXPECT_NE(P, nullptr);
    Path = P ? P : "";
  }
  ~TempDir() {
    if (!Path.empty()) {
      std::error_code EC;
      std::filesystem::remove_all(Path, EC);
    }
  }
};

struct DaemonFixture {
  TempDir Dir;
  InMemoryFileSystem StoreFS;
  std::unique_ptr<CacheDaemon> Daemon;
  std::thread Serve;
  std::string SockPath;

  explicit DaemonFixture(uint64_t MaxBytes = 0) { restart(MaxBytes); }
  ~DaemonFixture() { stop(); }

  void restart(uint64_t MaxBytes = 0) {
    stop();
    SockPath = Dir.Path + "/cache.sock";
    CacheDaemonConfig Config;
    Config.SocketPath = SockPath;
    Config.MaxBytes = MaxBytes;
    Config.Quiet = true;
    Daemon = std::make_unique<CacheDaemon>(StoreFS, Config);
    std::string Err;
    bool Started = Daemon->start(&Err);
    ASSERT_TRUE(Started) << Err;
    Serve = std::thread([this] { Daemon->serve(); });
  }

  void stop() {
    if (Serve.joinable()) {
      Daemon->requestStop();
      Serve.join();
    }
  }

  CacheStats stats() {
    std::string Err;
    auto Client = RemoteCacheClient::connect(SockPath, &Err);
    EXPECT_TRUE(Client) << Err;
    CacheStats S;
    if (Client) {
      EXPECT_EQ(Client->stats(S), RemoteCacheClient::Result::Hit);
    }
    return S;
  }
};

void renderProject(VirtualFileSystem &FS, uint64_t Seed = 21) {
  ProjectModel Model = ProjectModel::generate(profileByName("small_cli"), Seed);
  Model.renderAll(FS);
}

BuildOptions remoteOptions(const std::string &Socket) {
  BuildOptions Options;
  Options.RemoteCache = Socket;
  return Options;
}

ExecResult runProgram(const BuildDriver &Driver) {
  const MModule *Program = Driver.program();
  EXPECT_NE(Program, nullptr);
  if (!Program)
    return {};
  VM Vm(*Program);
  return Vm.run();
}

/// Asserts the two filesystems hold byte-identical files at identical
/// paths — sources AND every build artifact under out/. The history
/// ledger is excluded: it is telemetry (wall-clock timings, append
/// timestamps), not a build artifact, so byte identity cannot hold.
void expectIdenticalFiles(InMemoryFileSystem &A, InMemoryFileSystem &B,
                          const std::string &Context) {
  auto Prune = [](std::vector<std::string> Files) {
    Files.erase(std::remove(Files.begin(), Files.end(),
                            std::string("out/history.jsonl")),
                Files.end());
    return Files;
  };
  std::vector<std::string> FilesA = Prune(A.listFiles());
  std::vector<std::string> FilesB = Prune(B.listFiles());
  EXPECT_EQ(FilesA, FilesB) << Context << ": file sets differ";
  for (const std::string &Path : FilesA) {
    auto ContentA = A.readFile(Path);
    auto ContentB = B.readFile(Path);
    ASSERT_TRUE(ContentA.has_value()) << Context << ": " << Path;
    if (!ContentB.has_value())
      continue; // Set mismatch already reported above.
    EXPECT_EQ(*ContentA, *ContentB) << Context << ": " << Path;
  }
}

/// The args of the trace's remote `degrade` instant.
struct DegradeArgs {
  std::string Reason;
};

unsigned remoteWarnings(const BuildStats &Stats) {
  unsigned N = 0;
  for (const std::string &W : Stats.Warnings)
    if (W.find("remote cache") != std::string::npos)
      ++N;
  return N;
}

} // namespace

template <> struct sc::JsonFields<DegradeArgs> {
  template <class R, class Fn> static void walk(R &X, Fn Do) {
    Do("reason", X.Reason);
  }
};

TEST(RemoteTiering, ColdWorkspaceAgainstWarmCacheCompilesNothing) {
  DaemonFixture Daemon;

  // Workspace A: cold cache, so everything misses, compiles, publishes.
  InMemoryFileSystem FSA;
  renderProject(FSA);
  BuildDriver A(FSA, remoteOptions(Daemon.SockPath));
  BuildStats SA = A.build();
  ASSERT_TRUE(SA.Success) << SA.ErrorText;
  EXPECT_EQ(SA.FilesCompiled, SA.FilesTotal);
  EXPECT_EQ(SA.RemoteMisses, SA.FilesTotal);
  EXPECT_EQ(SA.RemotePuts, SA.FilesTotal);
  EXPECT_EQ(SA.RemoteHits, 0u);
  EXPECT_EQ(SA.RemoteErrors, 0u);

  // Workspace B: identical sources, no manifest, warm cache — every
  // object arrives from the remote tier, nothing compiles, nothing is
  // even deserialized locally (fetched bytes are parsed once on
  // admission, which is accounted as a RemoteHit, not a parse miss).
  InMemoryFileSystem FSB;
  renderProject(FSB);
  BuildDriver B(FSB, remoteOptions(Daemon.SockPath));
  BuildStats SB = B.build();
  ASSERT_TRUE(SB.Success) << SB.ErrorText;
  EXPECT_EQ(SB.FilesCompiled, 0u);
  EXPECT_EQ(SB.RemoteHits, SB.FilesTotal);
  EXPECT_EQ(SB.RemoteMisses, 0u);
  EXPECT_EQ(SB.ObjectsParsed, 0u);
  EXPECT_EQ(SB.RemoteErrors, 0u);
  EXPECT_EQ(remoteWarnings(SB), 0u);
}

TEST(RemoteTiering, RemoteHitByteIdenticalToLocalRebuild) {
  DaemonFixture Daemon;

  // Publisher fills the cache.
  InMemoryFileSystem FSA;
  renderProject(FSA);
  BuildDriver A(FSA, remoteOptions(Daemon.SockPath));
  ASSERT_TRUE(A.build().Success);

  // Remote-fed workspace vs byte-for-byte-equal workspace built
  // entirely locally.
  InMemoryFileSystem FSRemote, FSLocal;
  renderProject(FSRemote);
  renderProject(FSLocal);
  BuildDriver Remote(FSRemote, remoteOptions(Daemon.SockPath));
  BuildDriver Local(FSLocal, BuildOptions{});
  BuildStats SRemote = Remote.build();
  BuildStats SLocal = Local.build();
  ASSERT_TRUE(SRemote.Success) << SRemote.ErrorText;
  ASSERT_TRUE(SLocal.Success) << SLocal.ErrorText;
  EXPECT_EQ(SRemote.FilesCompiled, 0u);
  EXPECT_EQ(SLocal.FilesCompiled, SLocal.FilesTotal);

  // Both output streams of the linked program: the print trace and the
  // return value must be indistinguishable.
  ExecResult RunRemote = runProgram(Remote);
  ExecResult RunLocal = runProgram(Local);
  EXPECT_EQ(RunRemote.Trapped, RunLocal.Trapped);
  EXPECT_EQ(RunRemote.Output, RunLocal.Output);
  EXPECT_EQ(RunRemote.ReturnValue, RunLocal.ReturnValue);

  // Every artifact under out/ — objects, manifest, persisted state.
  expectIdenticalFiles(FSRemote, FSLocal, "remote-fed vs local rebuild");
}

TEST(RemoteTiering, ByteIdentityHoldsAcrossEvictionRefillCycle) {
  // Learn the project's object volume from a plain local build, then
  // run the daemon with a budget that can only hold part of it.
  InMemoryFileSystem FSProbe;
  renderProject(FSProbe);
  BuildDriver Probe(FSProbe, BuildOptions{});
  BuildStats SProbe = Probe.build();
  ASSERT_TRUE(SProbe.Success);
  ASSERT_GT(SProbe.ObjectBytes, 0u);

  DaemonFixture Daemon((SProbe.ObjectBytes * 2) / 3);

  // Publisher A: the budget evicts its earliest objects as the later
  // ones arrive.
  InMemoryFileSystem FSA;
  renderProject(FSA);
  BuildDriver A(FSA, remoteOptions(Daemon.SockPath));
  ASSERT_TRUE(A.build().Success);
  CacheStats AfterPublish = Daemon.stats();
  EXPECT_GT(AfterPublish.Evictions, 0u) << "budget must actually evict";

  // Workspace B: hits what survived, recompiles what was evicted, and
  // republishes it (the refill half of the cycle).
  InMemoryFileSystem FSB;
  renderProject(FSB);
  BuildDriver B(FSB, remoteOptions(Daemon.SockPath));
  BuildStats SB = B.build();
  ASSERT_TRUE(SB.Success) << SB.ErrorText;
  EXPECT_GT(SB.RemoteHits, 0u) << "some objects must survive the budget";
  EXPECT_GT(SB.RemoteMisses, 0u) << "some objects must have been evicted";
  EXPECT_EQ(SB.RemoteHits + SB.RemoteMisses, SB.FilesTotal);
  EXPECT_EQ(SB.FilesCompiled, SB.RemoteMisses);

  // Workspace C: another mixed fetch against the churned cache.
  InMemoryFileSystem FSC;
  renderProject(FSC);
  BuildDriver C(FSC, remoteOptions(Daemon.SockPath));
  BuildStats SC = C.build();
  ASSERT_TRUE(SC.Success) << SC.ErrorText;

  // However the hits and misses landed, the results are byte-identical
  // to each other and to the never-remote build.
  ExecResult RunB = runProgram(B);
  ExecResult RunC = runProgram(C);
  ExecResult RunProbe = runProgram(Probe);
  EXPECT_EQ(RunB.Output, RunProbe.Output);
  EXPECT_EQ(RunB.ReturnValue, RunProbe.ReturnValue);
  EXPECT_EQ(RunC.Output, RunProbe.Output);
  EXPECT_EQ(RunC.ReturnValue, RunProbe.ReturnValue);
  expectIdenticalFiles(FSB, FSProbe, "evict/refill workspace B vs local");
  expectIdenticalFiles(FSC, FSProbe, "evict/refill workspace C vs local");
}

TEST(RemoteTiering, WarmBuilderPopulatesColdFleetCacheWithoutRecompiling) {
  // A builds entirely locally first — its out/ tree is warm, the
  // remote cache does not exist yet.
  InMemoryFileSystem FSA;
  renderProject(FSA);
  {
    BuildDriver A(FSA, BuildOptions{});
    ASSERT_TRUE(A.build().Success);
  }

  DaemonFixture Daemon;

  // The same workspace, now pointed at the empty daemon: every TU is
  // locally clean, so nothing recompiles — but the sync pass notices
  // the remote is missing everything and publishes it from the local
  // object cache.
  BuildDriver A2(FSA, remoteOptions(Daemon.SockPath));
  BuildStats SA2 = A2.build();
  ASSERT_TRUE(SA2.Success) << SA2.ErrorText;
  EXPECT_EQ(SA2.FilesCompiled, 0u);
  EXPECT_EQ(SA2.RemotePuts, SA2.FilesTotal);
  EXPECT_EQ(SA2.RemoteErrors, 0u);

  // A cold fleet member now fetches everything.
  InMemoryFileSystem FSB;
  renderProject(FSB);
  BuildDriver B(FSB, remoteOptions(Daemon.SockPath));
  BuildStats SB = B.build();
  ASSERT_TRUE(SB.Success) << SB.ErrorText;
  EXPECT_EQ(SB.FilesCompiled, 0u);
  EXPECT_EQ(SB.RemoteHits, SB.FilesTotal);

  // And a second clean build through the warm builder only touches —
  // the fleet's hot set stays warm without re-uploading a byte.
  BuildStats SA3 = A2.build();
  ASSERT_TRUE(SA3.Success);
  EXPECT_EQ(SA3.RemotePuts, 0u);
  EXPECT_EQ(SA3.RemoteErrors, 0u);
}

TEST(RemoteTiering, AbsentDaemonDegradesWithExactlyOneWarning) {
  TempDir Dir;
  InMemoryFileSystem FS;
  renderProject(FS);
  BuildDriver Driver(FS, remoteOptions(Dir.Path + "/nobody.sock"));

  BuildStats S1 = Driver.build();
  ASSERT_TRUE(S1.Success) << S1.ErrorText << " — a dead remote must never "
                                             "fail the build";
  EXPECT_EQ(S1.FilesCompiled, S1.FilesTotal) << "local-only fallback compiles";
  EXPECT_EQ(remoteWarnings(S1), 1u) << "exactly one warning";
  EXPECT_EQ(S1.RemoteErrors, 1u);
  EXPECT_EQ(S1.RemoteHits, 0u);
  EXPECT_EQ(S1.RemotePuts, 0u);

  // The degrade latches for the driver's lifetime: later builds stay
  // local-only silently instead of warning again.
  ASSERT_TRUE(FS.writeFile("src0.mc", *FS.readFile("src0.mc") + "\n"));
  BuildStats S2 = Driver.build();
  ASSERT_TRUE(S2.Success);
  EXPECT_EQ(remoteWarnings(S2), 0u);
  EXPECT_EQ(S2.RemoteErrors, 0u);
}

TEST(RemoteTiering, DegradeTraceReasonQuotingThePathIsValidJson) {
  // Too long for a Unix socket address, so the connect error quotes
  // the path, quote and backslash included.
  std::string Path = "/tmp/sc-\"degrade\"\\";
  Path.resize(120, 'x');
  InMemoryFileSystem FS;
  renderProject(FS);
  TraceRecorder Trace;
  BuildOptions Options = remoteOptions(Path);
  Options.Compiler.Trace = &Trace;
  BuildDriver Driver(FS, Options);
  BuildStats S = Driver.build();
  ASSERT_TRUE(S.Success) << S.ErrorText;
  ASSERT_EQ(remoteWarnings(S), 1u);

  unsigned Degrades = 0;
  for (const TraceEvent &E : Trace.snapshot()) {
    if (std::string(E.Category) != "remote" || E.Name != "degrade")
      continue;
    ++Degrades;
    DegradeArgs Args;
    ASSERT_TRUE(decodeJson(E.ArgsJson, Args)) << E.ArgsJson;
    EXPECT_NE(Args.Reason.find(Path), std::string::npos) << Args.Reason;
    // The warning names the same reason, byte for byte.
    EXPECT_EQ(S.Warnings[0], "remote cache '" + Path + "' is unavailable (" +
                                 Args.Reason + "); continuing local-only");
  }
  EXPECT_EQ(Degrades, 1u);
}

TEST(RemoteTiering, DaemonDeathUnderLiveConnectionDegradesGracefully) {
  DaemonFixture Daemon;
  InMemoryFileSystem FS;
  renderProject(FS);
  BuildDriver Driver(FS, remoteOptions(Daemon.SockPath));

  BuildStats S1 = Driver.build();
  ASSERT_TRUE(S1.Success);
  EXPECT_EQ(S1.RemoteErrors, 0u);

  // The daemon dies while the driver still holds its connection.
  Daemon.stop();

  ASSERT_TRUE(FS.writeFile("src0.mc", *FS.readFile("src0.mc") + "\n"));
  BuildStats S2 = Driver.build();
  ASSERT_TRUE(S2.Success) << S2.ErrorText << " — a dying remote must never "
                                             "fail the build";
  EXPECT_GE(S2.FilesCompiled, 1u) << "the edited TU compiled locally";
  EXPECT_EQ(remoteWarnings(S2), 1u);
  EXPECT_EQ(S2.RemoteErrors, 1u);
}

TEST(RemoteTiering, ObjectCacheDistinguishesAbsentFromCorrupt) {
  InMemoryFileSystem FS;
  Compiler C{CompilerOptions{}};
  CompileResult R = C.compile("x.mc", "fn main() -> int { return 7; }", {});
  ASSERT_TRUE(R.Success) << R.DiagText;

  uint64_t Hash = 0;
  {
    ObjectCache Cache(FS, "out");
    Hash = Cache.store("x.mc", std::move(R.Object));
  }
  std::string ObjPath = "out/x.mc.o";
  ASSERT_TRUE(FS.exists(ObjPath));

  // Fresh cache, file removed: a plain not-found miss.
  {
    ObjectCache Cache(FS, "out");
    std::string Saved = *FS.readFile(ObjPath);
    ASSERT_TRUE(FS.removeFile(ObjPath));
    EXPECT_EQ(Cache.load("x.mc", Hash), nullptr);
    EXPECT_EQ(Cache.loadsNotFound(), 1u);
    EXPECT_EQ(Cache.loadsCorrupt(), 0u);
    ASSERT_TRUE(FS.writeFile(ObjPath, Saved));
  }

  // Fresh cache, file vandalized: a corrupt miss — quarantined, never
  // linked, and counted apart from the cold-cache case.
  {
    ObjectCache Cache(FS, "out");
    ASSERT_TRUE(FS.writeFile(ObjPath, "vandalized bytes"));
    EXPECT_EQ(Cache.load("x.mc", Hash), nullptr);
    EXPECT_EQ(Cache.loadsNotFound(), 0u);
    EXPECT_EQ(Cache.loadsCorrupt(), 1u);
  }
}
