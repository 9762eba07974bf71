//===- tests/cache_sys/CacheDaemonTest.cpp - Daemon service tests ---------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The sccached daemon as a network service: concurrent clients over
// real Unix-domain sockets, verified transfers in both directions,
// socket-ownership arbitration, lifecycle (client-driven shutdown,
// idle timeout), and the client's latched-error contract when the
// daemon dies under it.
//
//===----------------------------------------------------------------------===//

#include "cache_sys/CacheDaemon.h"
#include "cache_sys/CacheProtocol.h"
#include "cache_sys/RemoteCacheClient.h"
#include "support/Hashing.h"
#include "support/Socket.h"

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

using namespace sc;

namespace {

struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/sc-cached-XXXXXX";
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

/// An in-process daemon on a real socket, serving from an in-memory
/// store, with deterministic start/stop.
struct DaemonFixture {
  TempDir Dir;
  InMemoryFileSystem StoreFS;
  std::unique_ptr<CacheDaemon> Daemon;
  std::thread Serve;
  std::string SockPath;

  explicit DaemonFixture(uint64_t MaxBytes = 0, unsigned IdleMs = 0) {
    // SIGPIPE would otherwise kill the whole test binary when a test
    // deliberately talks to a dead peer.
    std::signal(SIGPIPE, SIG_IGN);
    SockPath = Dir.Path + "/cache.sock";
    CacheDaemonConfig Config;
    Config.SocketPath = SockPath;
    Config.MaxBytes = MaxBytes;
    Config.IdleTimeoutMs = IdleMs;
    Config.Quiet = true;
    Daemon = std::make_unique<CacheDaemon>(StoreFS, Config);
    std::string Err;
    bool Started = Daemon->start(&Err);
    EXPECT_TRUE(Started) << Err;
    if (Started)
      Serve = std::thread([this] { Daemon->serve(); });
  }

  ~DaemonFixture() { stop(); }

  void stop() {
    if (Serve.joinable()) {
      Daemon->requestStop();
      Serve.join();
    }
  }

  std::unique_ptr<RemoteCacheClient> client() {
    std::string Err;
    auto C = RemoteCacheClient::connect(SockPath, &Err);
    EXPECT_NE(C, nullptr) << Err;
    return C;
  }
};

} // namespace

TEST(CacheDaemon, PublishThenFetchRoundTrips) {
  DaemonFixture D;
  auto Client = D.client();
  ASSERT_TRUE(Client);

  std::string Bytes = "serialized object bytes";
  uint64_t Digest = hashString(Bytes);
  uint64_t InputKey = 0x1122334455667788ULL;
  ASSERT_EQ(Client->publish(InputKey, Digest, Bytes),
            RemoteCacheClient::Result::Hit);

  uint64_t FetchedDigest = 0;
  std::string Fetched;
  ASSERT_EQ(Client->fetch(InputKey, FetchedDigest, Fetched),
            RemoteCacheClient::Result::Hit);
  EXPECT_EQ(FetchedDigest, Digest);
  EXPECT_EQ(Fetched, Bytes);

  // An input key nobody published is a miss, not an error.
  EXPECT_EQ(Client->fetch(0x9999, FetchedDigest, Fetched),
            RemoteCacheClient::Result::Miss);
  EXPECT_FALSE(Client->failed());
}

TEST(CacheDaemon, TouchReportsMissUntilPublished) {
  DaemonFixture D;
  auto Client = D.client();
  ASSERT_TRUE(Client);

  std::string Bytes = "touchable";
  uint64_t Digest = hashString(Bytes);
  EXPECT_EQ(Client->touchEntry(0x42, Digest), RemoteCacheClient::Result::Miss);
  ASSERT_EQ(Client->publish(0x42, Digest, Bytes),
            RemoteCacheClient::Result::Hit);
  EXPECT_EQ(Client->touchEntry(0x42, Digest), RemoteCacheClient::Result::Hit);
}

TEST(CacheDaemon, AnswersOnlyKindEntry) {
  DaemonFixture D;
  const std::string Bytes = "entries only";
  const uint64_t Digest = hashString(Bytes);
  {
    auto Client = D.client();
    ASSERT_TRUE(Client);
    ASSERT_EQ(Client->publish(0x77, Digest, Bytes),
              RemoteCacheClient::Result::Hit);
  }
  UnixSocket Conn = UnixSocket::connectTo(D.SockPath, nullptr);
  ASSERT_TRUE(Conn.valid());
  auto RoundTrip = [&](CacheRequest::Op Op, const char *Kind, uint64_t Key,
                       CacheResponse &Resp) {
    CacheRequest Req;
    Req.Operation = Op;
    Req.Kind = Kind;
    Req.Key = hex16(Key);
    std::string Frame;
    return Conn.sendFrame(encodeCacheRequest(Req)) &&
           Conn.recvFrame(Frame, 10000) && decodeCacheResponse(Frame, Resp);
  };

  // Get and touch by digest (kind `obj`) are refused, even for a
  // stored object, and leave the connection in sync.
  for (CacheRequest::Op Op : {CacheRequest::Op::Get, CacheRequest::Op::Touch}) {
    CacheResponse Resp;
    ASSERT_TRUE(RoundTrip(Op, "obj", Digest, Resp));
    EXPECT_FALSE(Resp.Ok);
    EXPECT_EQ(Resp.Error, "bad key or kind");
  }

  CacheResponse Resp;
  ASSERT_TRUE(RoundTrip(CacheRequest::Op::Get, "entry", 0x77, Resp));
  EXPECT_TRUE(Resp.Ok);
  EXPECT_TRUE(Resp.Found);
  EXPECT_EQ(Resp.Mask, "1");
  EXPECT_EQ(Resp.Digest, hex16(Digest));
  std::string Object;
  ASSERT_TRUE(Conn.recvFrame(Object, 10000));
  EXPECT_EQ(Object, Bytes);
}

TEST(CacheDaemon, ServesConcurrentClients) {
  DaemonFixture D;
  constexpr int NumClients = 8;
  constexpr int OpsPerClient = 24;
  std::vector<std::thread> Threads;
  std::atomic<int> Failures{0};

  for (int T = 0; T != NumClients; ++T) {
    Threads.emplace_back([&, T] {
      std::string Err;
      auto Client = RemoteCacheClient::connect(D.SockPath, &Err);
      if (!Client) {
        ++Failures;
        return;
      }
      for (int I = 0; I != OpsPerClient; ++I) {
        std::string Bytes =
            "client " + std::to_string(T) + " object " + std::to_string(I) +
            std::string(512, static_cast<char>('a' + T));
        uint64_t Digest = hashString(Bytes);
        uint64_t Key = static_cast<uint64_t>(T) << 32 | I;
        if (Client->publish(Key, Digest, Bytes) !=
            RemoteCacheClient::Result::Hit) {
          ++Failures;
          return;
        }
        uint64_t BackDigest = 0;
        std::string Back;
        if (Client->fetch(Key, BackDigest, Back) !=
                RemoteCacheClient::Result::Hit ||
            Back != Bytes) {
          ++Failures;
          return;
        }
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0);

  // Every object every client published is now fetchable by anyone.
  auto Verifier = D.client();
  ASSERT_TRUE(Verifier);
  for (int T = 0; T != NumClients; ++T) {
    uint64_t Digest = 0;
    std::string Bytes;
    EXPECT_EQ(Verifier->fetch(static_cast<uint64_t>(T) << 32, Digest, Bytes),
              RemoteCacheClient::Result::Hit);
  }
  CacheStats S;
  ASSERT_EQ(Verifier->stats(S), RemoteCacheClient::Result::Hit);
  EXPECT_EQ(S.Entries, static_cast<uint64_t>(NumClients) * OpsPerClient * 2)
      << "one obj + one act entry per publish";
}

TEST(CacheDaemon, EvictsAtBudgetAndCountsIt) {
  // Budget fits roughly three of the 1 KiB objects (plus tiny action
  // entries); publishing eight must evict.
  DaemonFixture D(/*MaxBytes=*/3500);
  auto Client = D.client();
  ASSERT_TRUE(Client);
  for (int I = 0; I != 8; ++I) {
    std::string Bytes(1024, static_cast<char>('A' + I));
    ASSERT_EQ(Client->publish(0x1000 + I, hashString(Bytes), Bytes),
              RemoteCacheClient::Result::Hit);
  }
  CacheStats S;
  ASSERT_EQ(Client->stats(S), RemoteCacheClient::Result::Hit);
  EXPECT_GT(S.Evictions, 0u);
  EXPECT_LE(S.BytesStored, 3500u);

  // The most recent object survived; the oldest was evicted.
  uint64_t Digest = 0;
  std::string Bytes;
  EXPECT_EQ(Client->fetch(0x1000 + 7, Digest, Bytes),
            RemoteCacheClient::Result::Hit);
  EXPECT_EQ(Client->fetch(0x1000 + 0, Digest, Bytes),
            RemoteCacheClient::Result::Miss);
}

TEST(CacheDaemon, SecondDaemonRefusesLiveSocket) {
  DaemonFixture D;
  CacheDaemonConfig Config;
  Config.SocketPath = D.SockPath;
  Config.Quiet = true;
  InMemoryFileSystem OtherFS;
  CacheDaemon Usurper(OtherFS, Config);
  std::string Err;
  EXPECT_FALSE(Usurper.start(&Err));
  EXPECT_NE(Err.find("already serving"), std::string::npos) << Err;

  // The incumbent is unharmed.
  auto Client = D.client();
  ASSERT_TRUE(Client);
  CacheStats S;
  EXPECT_EQ(Client->stats(S), RemoteCacheClient::Result::Hit);
}

TEST(CacheDaemon, ShutdownVerbStopsServerAndUnlinksSocket) {
  DaemonFixture D;
  {
    auto Client = D.client();
    ASSERT_TRUE(Client);
    EXPECT_TRUE(Client->shutdownServer());
  }
  D.Serve.join(); // Returns without requestStop().
  EXPECT_FALSE(std::filesystem::exists(D.SockPath))
      << "socket must be unlinked so future clients fail fast";
  std::string Err;
  EXPECT_EQ(RemoteCacheClient::connect(D.SockPath, &Err), nullptr);
}

TEST(CacheDaemon, IdleTimeoutExpiresServer) {
  DaemonFixture D(/*MaxBytes=*/0, /*IdleMs=*/250);
  D.Serve.join(); // serve() returns on its own — no requestStop().
  EXPECT_FALSE(std::filesystem::exists(D.SockPath));
}

TEST(CacheDaemon, ClientLatchesErrorWhenDaemonDies) {
  DaemonFixture D;
  auto Client = D.client();
  ASSERT_TRUE(Client);
  std::string Bytes = "published before the crash";
  ASSERT_EQ(Client->publish(0x7, hashString(Bytes), Bytes),
            RemoteCacheClient::Result::Hit);

  D.stop(); // The daemon dies with the client mid-conversation.

  uint64_t Digest = 0;
  std::string Back;
  EXPECT_EQ(Client->fetch(0x7, Digest, Back),
            RemoteCacheClient::Result::Error);
  EXPECT_TRUE(Client->failed());
  // Latched: further calls answer Error without touching the socket.
  EXPECT_EQ(Client->fetch(0x7, Digest, Back),
            RemoteCacheClient::Result::Error);
  EXPECT_EQ(Client->publish(0x8, 0x8, "x"), RemoteCacheClient::Result::Error);
}

TEST(CacheDaemon, StoreSurvivesDaemonRestart) {
  TempDir Dir;
  InMemoryFileSystem StoreFS;
  std::string Sock = Dir.Path + "/cache.sock";
  std::string Bytes = "object that outlives its daemon";
  uint64_t Digest = hashString(Bytes);

  auto RunDaemon = [&](auto Body) {
    CacheDaemonConfig Config;
    Config.SocketPath = Sock;
    Config.Quiet = true;
    CacheDaemon Daemon(StoreFS, Config);
    std::string Err;
    ASSERT_TRUE(Daemon.start(&Err)) << Err;
    std::thread Serve([&] { Daemon.serve(); });
    Body();
    Daemon.requestStop();
    Serve.join();
  };

  RunDaemon([&] {
    std::string Err;
    auto Client = RemoteCacheClient::connect(Sock, &Err);
    ASSERT_TRUE(Client) << Err;
    ASSERT_EQ(Client->publish(0x5150, Digest, Bytes),
              RemoteCacheClient::Result::Hit);
  });

  // A second daemon over the same store filesystem re-indexes and
  // serves the first daemon's entries.
  RunDaemon([&] {
    std::string Err;
    auto Client = RemoteCacheClient::connect(Sock, &Err);
    ASSERT_TRUE(Client) << Err;
    uint64_t D = 0;
    std::string Back;
    EXPECT_EQ(Client->fetch(0x5150, D, Back), RemoteCacheClient::Result::Hit);
    EXPECT_EQ(Back, Bytes);
  });
}
