//===- tests/daemon/ServiceBoundsTest.cpp - Daemon resource bounds --------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The bounds support/Service gives both daemons, scbuildd (BuildDaemon)
// and sccached (CacheDaemon), against any peer:
//
//  * soak — thousands of short connections leave neither live threads
//    nor memory mappings behind (finished connection threads are
//    joined, so their stacks are unmapped);
//  * stalled reader — a client that never reads its reply cannot hold
//    a connection thread, or the drain, past the I/O deadline;
//  * connection cap — the connection after MaxConnections idle ones is
//    closed and counted, and service resumes once they leave;
//  * idle rule — time with no request in flight: a parked cache
//    connection does not hold the idle clock, a queued build does.
//
//===----------------------------------------------------------------------===//

#include "build_sys/Daemon.h"
#include "build_sys/DaemonClient.h"
#include "cache_sys/CacheDaemon.h"
#include "cache_sys/CacheProtocol.h"
#include "cache_sys/RemoteCacheClient.h"
#include "support/FileSystem.h"
#include "support/Hashing.h"
#include "support/Metrics.h"
#include "support/Service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace sc;

namespace {

using Clock = std::chrono::steady_clock;
using Ms = std::chrono::milliseconds;

/// Connections per soak: enough that one leaked stack mapping per
/// connection dwarfs any fixed overhead.
constexpr int SoakConnections = 10000;
/// Extra mappings a soak may add over its warmed-up baseline (malloc
/// arenas and the like; a leak adds at least one per connection).
constexpr size_t MapsSlack = 256;
/// Time a drain may take beyond the I/O deadline.
constexpr unsigned DrainSlackMs = 3000;

struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/sc-bounds-XXXXXX";
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

size_t mapsLines() {
  std::ifstream In("/proc/self/maps");
  size_t N = 0;
  for (std::string Line; std::getline(In, Line);)
    ++N;
  return N;
}

size_t liveThreads() {
  std::error_code EC;
  size_t N = 0;
  for (auto It = std::filesystem::directory_iterator("/proc/self/task", EC);
       !EC && It != std::filesystem::directory_iterator(); It.increment(EC))
    ++N;
  return N;
}

/// Polls \p Cond for up to \p TimeoutMs milliseconds.
bool waitFor(const std::function<bool()> &Cond, unsigned TimeoutMs = 5000) {
  const auto Deadline = Clock::now() + Ms(TimeoutMs);
  while (Clock::now() < Deadline) {
    if (Cond())
      return true;
    std::this_thread::sleep_for(Ms(5));
  }
  return Cond();
}

//===----------------------------------------------------------------------===//
// Harnesses
//===----------------------------------------------------------------------===//

/// A daemon's serve() running on a background thread.
struct ServeThread {
  std::thread T;
  std::atomic<bool> Returned{false};

  void start(std::function<int()> Serve) {
    T = std::thread([this, Serve] {
      Serve();
      Returned.store(true);
    });
  }
  /// Joins the thread if serve() returns within \p TimeoutMs; false
  /// otherwise (the thread keeps running for the caller to unblock).
  bool endsWithin(unsigned TimeoutMs) {
    if (!waitFor([&] { return Returned.load(); }, TimeoutMs))
      return false;
    T.join();
    return true;
  }
  void stop(Service &Daemon) {
    if (T.joinable()) {
      Daemon.requestStop();
      T.join();
    }
  }
};

/// An in-process sccached on a real socket over an in-memory store.
struct CacheHarness {
  TempDir Dir;
  InMemoryFileSystem StoreFS;
  std::unique_ptr<CacheDaemon> Daemon;
  ServeThread Serve;

  explicit CacheHarness(unsigned IdleMs = 0) {
    std::signal(SIGPIPE, SIG_IGN);
    CacheDaemonConfig Config;
    Config.SocketPath = Dir.Path + "/cache.sock";
    Config.IdleTimeoutMs = IdleMs;
    Config.Quiet = true;
    Daemon = std::make_unique<CacheDaemon>(StoreFS, Config);
    std::string Err;
    EXPECT_TRUE(Daemon->start(&Err)) << Err;
    Serve.start([this] { return Daemon->serve(); });
  }
  ~CacheHarness() { Serve.stop(*Daemon); }

  const std::string &sock() const { return Daemon->socketPath(); }

  /// One short connection: connect, `stats`, close.
  bool statsRoundTrip() const {
    auto Client = RemoteCacheClient::connect(sock(), nullptr);
    CacheStats S;
    return Client && Client->stats(S) == RemoteCacheClient::Result::Hit;
  }

  uint64_t refused() const {
    for (const auto &[Name, Value] : Daemon->metricsRegistry().counters())
      if (Name == "cache.connections_refused")
        return Value;
    return 0;
  }
};

/// An in-process scbuildd over a two-file project whose program prints
/// \p Prints lines when run. An optional gate holds the builder.
struct BuildHarness {
  TempDir Dir;
  RealFileSystem FS{Dir.Path};
  MetricsRegistry Metrics;
  std::atomic<bool> Gate{true}; // false = builder held.
  std::atomic<int> BuildsStarted{0};
  std::unique_ptr<BuildDaemon> Daemon;
  ServeThread Serve;

  explicit BuildHarness(unsigned IdleMs = 0, int Prints = 1) {
    std::signal(SIGPIPE, SIG_IGN);
    EXPECT_TRUE(FS.writeFile("util.mc",
                             "fn triple(x: int) -> int { return x * 3; }\n"));
    EXPECT_TRUE(FS.writeFile(
        "main.mc", "import \"util.mc\";\n"
                   "fn main() -> int {\n"
                   "  var i = 0;\n"
                   "  while (i < " + std::to_string(Prints) + ") {\n"
                   "    print(triple(i));\n"
                   "    i = i + 1;\n"
                   "  }\n"
                   "  return 0;\n"
                   "}\n"));
    DaemonConfig Config;
    Config.Quiet = true;
    Config.IdleTimeoutMs = IdleMs;
    Config.Build.Compiler.Stateful.SkipMode =
        StatefulConfig::Mode::HeuristicSkip;
    Config.Build.Compiler.Metrics = &Metrics;
    Config.PreBuildHook = [this] {
      BuildsStarted.fetch_add(1);
      while (!Gate.load())
        std::this_thread::sleep_for(Ms(1));
    };
    Daemon = std::make_unique<BuildDaemon>(FS, std::move(Config));
    std::string Err;
    EXPECT_TRUE(Daemon->start(&Err)) << Err;
    Serve.start([this] { return Daemon->serve(); });
  }
  ~BuildHarness() {
    Gate.store(true);
    Serve.stop(*Daemon);
  }

  const std::string &sock() const { return Daemon->socketPath(); }

  /// One request on its own connection; the client's exit code (< 0 on
  /// transport failure).
  int request(const char *Verb, bool Run = false) const {
    DaemonRequest Req;
    Req.Verb = Verb;
    Req.Quiet = true;
    Req.Run = Run;
    DaemonClient C = DaemonClient::connect(sock());
    if (!C.connected())
      return -1;
    return C.roundTrip(Req, nullptr, nullptr, nullptr, nullptr);
  }

  uint64_t refused() {
    return Metrics.counter("daemon.connections_refused").value();
  }
};

//===----------------------------------------------------------------------===//
// Shared checks
//===----------------------------------------------------------------------===//

/// Runs SoakConnections short connections through \p RoundTrip and
/// checks that live threads and memory mappings stay flat.
void expectBoundedSoak(const std::function<bool()> &RoundTrip) {
  for (int I = 0; I != 100; ++I)
    ASSERT_TRUE(RoundTrip()) << "warm-up connection " << I;
  const size_t Maps0 = mapsLines(), Threads0 = liveThreads();
  size_t PeakMaps = Maps0, PeakThreads = Threads0;
  for (int I = 1; I <= SoakConnections; ++I) {
    ASSERT_TRUE(RoundTrip()) << "connection " << I;
    if (I % 500 == 0) {
      PeakMaps = std::max(PeakMaps, mapsLines());
      PeakThreads = std::max(PeakThreads, liveThreads());
    }
  }
  EXPECT_LE(PeakThreads, Threads0 + Service::MaxConnections);
  EXPECT_LE(PeakMaps, Maps0 + MapsSlack)
      << "memory mappings grew with the number of connections served";
}

/// \p Stalled has a reply of \p ReplyFrames frames, many MiB in all,
/// pending and never reads it. Drains the daemon and checks that
/// serve() returns within the I/O deadline plus slack, and that the
/// reply was cut short: the send gave up instead of waiting.
void expectStalledReaderCannotHoldDrain(UnixSocket &Stalled, Service &Daemon,
                                        ServeThread &Serve,
                                        size_t ReplyFrames) {
  // The reply's first bytes arrive: the daemon is now blocked sending.
  ASSERT_TRUE(Stalled.readable(30000));
  Daemon.requestStop();
  if (!Serve.endsWithin(Service::IoTimeoutMs + DrainSlackMs)) {
    ADD_FAILURE() << "a reader that never reads held the drain";
    Stalled.close(); // Unblock the send so the serve thread can end.
    Serve.T.join();
    return;
  }
  size_t Frames = 0;
  std::string Frame;
  while (Stalled.recvFrame(Frame, 2000))
    ++Frames;
  EXPECT_LT(Frames, ReplyFrames) << "the whole reply was sent";
}

/// Holds MaxConnections idle connections, checks the next one is
/// refused and counted, then that service resumes once they close.
void expectCapRefusesThenRecovers(const std::string &Sock, Service &Daemon,
                                  const std::function<bool()> &RoundTrip,
                                  const std::function<uint64_t()> &Refused) {
  std::vector<UnixSocket> Held;
  for (unsigned I = 0; I != Service::MaxConnections; ++I) {
    Held.push_back(UnixSocket::connectTo(Sock, nullptr));
    ASSERT_TRUE(Held.back().valid());
  }
  ASSERT_TRUE(waitFor([&] {
    return Daemon.activeConnections() == Service::MaxConnections;
  }));
  const uint64_t Before = Refused();
  EXPECT_FALSE(RoundTrip()) << "the connection over the cap was served";
  EXPECT_GT(Refused(), Before);
  EXPECT_EQ(Daemon.activeConnections(), Service::MaxConnections);

  Held.clear();
  EXPECT_TRUE(waitFor(RoundTrip)) << "service did not resume under the cap";
}

} // namespace

//===----------------------------------------------------------------------===//
// Soak
//===----------------------------------------------------------------------===//

TEST(ServiceBounds, CacheSoakKeepsThreadsAndMappingsFlat) {
  CacheHarness H;
  expectBoundedSoak([&] { return H.statsRoundTrip(); });
}

TEST(ServiceBounds, BuildDaemonSoakKeepsThreadsAndMappingsFlat) {
  BuildHarness H;
  expectBoundedSoak([&] { return H.request("status") == 0; });
}

//===----------------------------------------------------------------------===//
// Stalled reader
//===----------------------------------------------------------------------===//

TEST(ServiceBounds, CacheStalledReaderCannotHoldTheDrain) {
  CacheHarness H;
  const std::string Object(8u << 20, 'o');
  const uint64_t Digest = hashString(Object);
  {
    auto Client = RemoteCacheClient::connect(H.sock(), nullptr);
    ASSERT_TRUE(Client);
    ASSERT_EQ(Client->publish(0x51a11, Digest, Object),
              RemoteCacheClient::Result::Hit);
  }
  UnixSocket Stalled = UnixSocket::connectTo(H.sock(), nullptr);
  ASSERT_TRUE(Stalled.valid());
  CacheRequest Get;
  Get.Operation = CacheRequest::Op::Get;
  Get.Kind = "obj";
  Get.Key = hex16(Digest);
  ASSERT_TRUE(Stalled.sendFrame(encodeCacheRequest(Get)));
  // Reply: the response header, then the object.
  expectStalledReaderCannotHoldDrain(Stalled, *H.Daemon, H.Serve, 2);
}

TEST(ServiceBounds, BuildDaemonStalledReaderCannotHoldTheDrain) {
  // ~1.5 MB of program output: far more than a socket buffer holds.
  BuildHarness H(/*IdleMs=*/0, /*Prints=*/200000);
  UnixSocket Stalled = UnixSocket::connectTo(H.sock(), nullptr);
  ASSERT_TRUE(Stalled.valid());
  DaemonRequest Req;
  Req.Verb = "build";
  Req.Quiet = true;
  Req.Run = true;
  ASSERT_TRUE(Stalled.sendFrame(encodeRequest(Req)));
  // Reply: the program's output, then the exit frame.
  expectStalledReaderCannotHoldDrain(Stalled, *H.Daemon, H.Serve, 2);
}

//===----------------------------------------------------------------------===//
// Connection cap
//===----------------------------------------------------------------------===//

TEST(ServiceBounds, CacheRefusesOverCapAndRecovers) {
  CacheHarness H;
  expectCapRefusesThenRecovers(
      H.sock(), *H.Daemon, [&] { return H.statsRoundTrip(); },
      [&] { return H.refused(); });
}

TEST(ServiceBounds, BuildDaemonRefusesOverCapAndRecovers) {
  BuildHarness H;
  expectCapRefusesThenRecovers(
      H.sock(), *H.Daemon, [&] { return H.request("status") == 0; },
      [&] { return H.refused(); });
}

//===----------------------------------------------------------------------===//
// Idle rule
//===----------------------------------------------------------------------===//

TEST(ServiceBounds, CacheIdlesOutWithParkedClient) {
  CacheHarness H(/*IdleMs=*/300);
  auto Parked = RemoteCacheClient::connect(H.sock(), nullptr);
  ASSERT_TRUE(Parked);
  CacheStats S;
  ASSERT_EQ(Parked->stats(S), RemoteCacheClient::Result::Hit);
  // The persistent connection stays open and silent: not a request.
  ASSERT_TRUE(H.Serve.endsWithin(5000))
      << "a parked connection held the idle clock";
  EXPECT_FALSE(std::filesystem::exists(H.sock()));
  EXPECT_EQ(Parked->stats(S), RemoteCacheClient::Result::Error);
}

TEST(ServiceBounds, BuildDaemonQueuedBuildHoldsTheIdleClock) {
  BuildHarness H(/*IdleMs=*/200);
  H.Gate.store(false);
  int Codes[2] = {-100, -100};
  std::thread InFlight([&] { Codes[0] = H.request("build"); });
  ASSERT_TRUE(waitFor([&] { return H.BuildsStarted.load() == 1; }));
  std::thread Queued([&] { Codes[1] = H.request("build"); });
  ASSERT_TRUE(waitFor([&] { return H.Daemon->serviceStats().QueueDepth == 1; }));

  // Several idle timeouts pass with one build running, one queued.
  std::this_thread::sleep_for(Ms(1000));
  EXPECT_FALSE(H.Serve.Returned.load())
      << "the daemon idled out under queued work";

  H.Gate.store(true);
  InFlight.join();
  Queued.join();
  EXPECT_EQ(Codes[0], 0);
  EXPECT_EQ(Codes[1], 0);
  // With the work done, the idle timeout applies again.
  EXPECT_TRUE(H.Serve.endsWithin(5000));
}
