//===- tests/cache_sys/BatchedRemoteTest.cpp - Batched get/touch ----------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The round-trip contract of the remote tier: a build sends its local
// misses as one batched `get` and its clean TUs as one batched `touch`,
// CacheMaxBatch keys per request, so a warm build that compiles nothing
// makes one round trip and a cold one ceil(N / CacheMaxBatch). Within a
// batch every object is verified on its own: a bad one is a miss for
// its TU only. A reply that does not fit its request degrades the tier
// with exactly one warning.
//
//===----------------------------------------------------------------------===//

#include "build_sys/BuildSystem.h"
#include "cache_sys/CacheDaemon.h"
#include "cache_sys/RemoteCacheClient.h"
#include "support/Hashing.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

using namespace sc;

namespace {

struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/sc-batch-XXXXXX";
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

/// An in-process sccached over an in-memory store.
struct CacheFixture {
  TempDir Dir;
  InMemoryFileSystem StoreFS;
  std::unique_ptr<CacheDaemon> Daemon;
  std::thread Serve;
  std::string SockPath;

  CacheFixture() {
    std::signal(SIGPIPE, SIG_IGN);
    SockPath = Dir.Path + "/cache.sock";
    CacheDaemonConfig Config;
    Config.SocketPath = SockPath;
    Config.Quiet = true;
    Daemon = std::make_unique<CacheDaemon>(StoreFS, Config);
    std::string Err;
    EXPECT_TRUE(Daemon->start(&Err)) << Err;
    Serve = std::thread([this] { Daemon->serve(); });
  }
  ~CacheFixture() {
    Daemon->requestStop();
    Serve.join();
  }
};

/// A stand-in sccached for one connection: it answers each request with
/// the frames \p Reply returns for it.
struct ScriptedDaemon {
  using Script = std::function<std::vector<std::string>(const CacheRequest &)>;
  TempDir Dir;
  std::string SockPath;
  UnixSocket Listener;
  std::thread Serve;

  explicit ScriptedDaemon(Script Reply) {
    std::signal(SIGPIPE, SIG_IGN);
    SockPath = Dir.Path + "/fake.sock";
    std::string Err;
    Listener = UnixSocket::listenOn(SockPath, &Err);
    EXPECT_TRUE(Listener.valid()) << Err;
    Serve = std::thread([this, Reply] {
      bool TimedOut = false;
      UnixSocket Conn = Listener.accept(5000, &TimedOut);
      std::string Frame;
      while (Conn.valid() && Conn.recvFrame(Frame, 5000)) {
        CacheRequest Req;
        EXPECT_TRUE(decodeCacheRequest(Frame, Req)) << Frame;
        for (const std::string &Out : Reply(Req))
          Conn.sendFrame(Out);
      }
    });
  }
  ~ScriptedDaemon() { Serve.join(); }
};

/// \p N - 1 leaf TUs and a main that imports them all.
void renderWide(VirtualFileSystem &FS, unsigned N) {
  std::string Main;
  std::string Sum = "0";
  for (unsigned I = 1; I < N; ++I) {
    const std::string Name = "f" + std::to_string(I);
    FS.writeFile(Name + ".mc", "fn " + Name + "() -> int { return " +
                                   std::to_string(I) + "; }\n");
    Main += "import \"" + Name + ".mc\";\n";
    Sum += " + " + Name + "()";
  }
  FS.writeFile("main.mc", Main + "fn main() -> int { return " + Sum + "; }\n");
}

BuildOptions remoteOptions(const std::string &Socket) {
  BuildOptions BO;
  BO.RemoteCache = Socket;
  return BO;
}

unsigned remoteWarnings(const BuildStats &S) {
  unsigned N = 0;
  for (const std::string &W : S.Warnings)
    N += W.find("remote cache") != std::string::npos;
  return N;
}

uint64_t ceilDiv(uint64_t A, uint64_t B) { return (A + B - 1) / B; }

} // namespace

TEST(BatchedRemote, WarmCleanBuildMakesOneRoundTrip) {
  CacheFixture Cache;
  InMemoryFileSystem FS;
  renderWide(FS, 12);
  BuildDriver Driver(FS, remoteOptions(Cache.SockPath));
  BuildStats Cold = Driver.build();
  ASSERT_TRUE(Cold.Success) << Cold.ErrorText;
  EXPECT_EQ(Cold.RemotePuts, 12u);
  // One get for the twelve misses, then one put per object.
  EXPECT_EQ(Cold.RemoteRoundTrips, 1u + 12u);

  const uint64_t Touches0 = Cache.Daemon->store().stats().Touches;
  BuildStats Warm = Driver.build();
  ASSERT_TRUE(Warm.Success) << Warm.ErrorText;
  EXPECT_EQ(Warm.FilesCompiled, 0u);
  EXPECT_EQ(Warm.RemoteRoundTrips, 1u);
  EXPECT_EQ(Warm.RemotePuts, 0u);
  EXPECT_EQ(Warm.RemoteErrors, 0u);
  // The one touch still refreshed both entries of every TU.
  EXPECT_EQ(Cache.Daemon->store().stats().Touches - Touches0, 2u * 12u);
}

TEST(BatchedRemote, ColdMemberFetchesInOneGetPerBatch) {
  CacheFixture Cache;
  for (unsigned N : {5u, static_cast<unsigned>(CacheMaxBatch) + 6u}) {
    SCOPED_TRACE(N);
    InMemoryFileSystem Producer;
    renderWide(Producer, N);
    BuildDriver P(Producer, remoteOptions(Cache.SockPath));
    ASSERT_TRUE(P.build().Success);

    InMemoryFileSystem Member;
    renderWide(Member, N);
    BuildDriver M(Member, remoteOptions(Cache.SockPath));
    BuildStats S = M.build();
    ASSERT_TRUE(S.Success) << S.ErrorText;
    EXPECT_EQ(S.FilesCompiled, 0u);
    EXPECT_EQ(S.RemoteHits, N);
    EXPECT_EQ(S.RemoteRoundTrips, ceilDiv(N, CacheMaxBatch));
  }
}

TEST(BatchedRemote, CorruptObjectInABatchIsAMissForItsTUOnly) {
  CacheFixture Cache;
  InMemoryFileSystem Producer;
  renderWide(Producer, 8);
  BuildDriver P(Producer, remoteOptions(Cache.SockPath));
  ASSERT_TRUE(P.build().Success);

  // Vandalize one stored object: the daemon drops it on get.
  std::string Victim;
  for (const std::string &Path : Cache.StoreFS.listFiles())
    if (Path.find("/obj/") != std::string::npos)
      Victim = Path;
  ASSERT_FALSE(Victim.empty());
  ASSERT_TRUE(Cache.StoreFS.writeFile(Victim, "not the object"));

  InMemoryFileSystem Member;
  renderWide(Member, 8);
  BuildDriver M(Member, remoteOptions(Cache.SockPath));
  BuildStats S = M.build();
  ASSERT_TRUE(S.Success) << S.ErrorText;
  EXPECT_EQ(S.RemoteHits, 7u);
  EXPECT_EQ(S.RemoteMisses, 1u);
  EXPECT_EQ(S.FilesCompiled, 1u);
  EXPECT_EQ(S.RemoteErrors, 0u);
}

TEST(BatchedRemote, ClientRehashesEveryObjectOfABatch) {
  const std::vector<std::string> Objects = {"first object", "second object",
                                            "third object"};
  ScriptedDaemon Fake([&](const CacheRequest &Req) {
    EXPECT_EQ(Req.Operation, CacheRequest::Op::Get);
    EXPECT_EQ(Req.Kind, "entry");
    CacheResponse Resp;
    Resp.Ok = Resp.Found = true;
    Resp.Mask = "111";
    for (const std::string &O : Objects)
      Resp.Digest += hex16(hashString(O));
    // The second object arrives damaged on the wire.
    return std::vector<std::string>{encodeCacheResponse(Resp), Objects[0],
                                    "second objecT", Objects[2]};
  });
  auto Client = RemoteCacheClient::connect(Fake.SockPath, nullptr);
  ASSERT_TRUE(Client);
  std::vector<RemoteCacheClient::Fetched> Got;
  ASSERT_EQ(Client->fetchBatch({1, 2, 3}, Got),
            RemoteCacheClient::Result::Hit);
  ASSERT_EQ(Got.size(), 3u);
  EXPECT_TRUE(Got[0].Hit);
  EXPECT_EQ(Got[0].Bytes, Objects[0]);
  EXPECT_FALSE(Got[1].Hit);
  EXPECT_TRUE(Got[2].Hit);
  EXPECT_EQ(Got[2].Bytes, Objects[2]);
  EXPECT_EQ(Client->roundTrips(), 1u);
  EXPECT_FALSE(Client->failed());
}

TEST(BatchedRemote, WrongLengthMaskDegradesWithOneWarning) {
  // A workspace built locally first, so its next build only touches.
  InMemoryFileSystem FS;
  renderWide(FS, 4);
  {
    BuildDriver Local(FS, BuildOptions{});
    ASSERT_TRUE(Local.build().Success);
  }
  ScriptedDaemon Fake([](const CacheRequest &Req) {
    EXPECT_EQ(Req.Operation, CacheRequest::Op::Touch);
    CacheResponse Resp;
    Resp.Ok = true;
    Resp.Mask = "1"; // Four pairs asked about, one answered.
    return std::vector<std::string>{encodeCacheResponse(Resp)};
  });
  BuildDriver Driver(FS, remoteOptions(Fake.SockPath));
  BuildStats S = Driver.build();
  ASSERT_TRUE(S.Success) << S.ErrorText;
  EXPECT_EQ(S.FilesCompiled, 0u);
  EXPECT_EQ(S.RemoteRoundTrips, 1u);
  EXPECT_EQ(S.RemoteErrors, 1u);
  EXPECT_EQ(S.RemotePuts, 0u);
  EXPECT_EQ(remoteWarnings(S), 1u);
}
