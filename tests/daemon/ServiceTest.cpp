//===- tests/daemon/ServiceTest.cpp - Multi-client service tests ----------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The multi-client service contract of BuildDaemon:
//
//  * coalescing — N concurrent identical requests share exactly one
//    compile wave, every waiter receives byte-identical output, and
//    the joins are counted;
//  * admission control — a full queue answers with a structured `busy`
//    frame (queue depth + retry-after), never a hung socket;
//  * per-request deadlines — a request stuck in the queue past the
//    timeout gets a clean error frame pair, not stale work;
//  * disconnect resilience — a client that dies mid-build neither
//    aborts nor wedges the build;
//  * client retry — requestWithRetry backs off (doubling + jitter),
//    honors the daemon's retry-after hint, and eventually either
//    succeeds or surfaces the last failure for in-process fallback;
//  * graceful drain — shutdown finishes the in-flight build, cancels
//    queued work deterministically, and leaves no socket or lock
//    behind so the next plain build just works.
//
// Like DaemonTest, these run real sockets against RealFileSystem in a
// mkdtemp scratch tree.
//
//===----------------------------------------------------------------------===//

#include "build_sys/BuildSystem.h"
#include "build_sys/Daemon.h"
#include "build_sys/DaemonClient.h"
#include "support/FileLock.h"
#include "support/FileSystem.h"
#include "support/Metrics.h"
#include "support/Socket.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace sc;

namespace {

struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/sc-svc-XXXXXX";
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

void writeProject(RealFileSystem &FS) {
  ASSERT_TRUE(FS.writeFile("util.mc",
                           "fn triple(x: int) -> int { return x * 3; }\n"));
  ASSERT_TRUE(FS.writeFile("main.mc", "import \"util.mc\";\n"
                                      "fn main() -> int {\n"
                                      "  print(triple(14));\n"
                                      "  return 0;\n"
                                      "}\n"));
}

/// One captured client round-trip.
struct ClientResult {
  std::string Out, Err;
  int Code = -100;
  DaemonFrame Exit;
  std::string Transport;
};

/// Daemon harness with a gate: the PreBuildHook blocks the builder
/// thread while `Gate` is closed, giving tests a deterministic window
/// in which to pile up queued/coalesced/overflowing requests.
struct ServiceHarness {
  TempDir Dir;
  RealFileSystem FS{Dir.Path};
  std::unique_ptr<BuildDaemon> Daemon;
  std::thread Server;
  int ServeCode = -1;
  std::atomic<bool> Gate{false};    // false = builder blocked.
  std::atomic<int> BuildsStarted{0};

  bool start(DaemonConfig Config = {}, bool Gated = true) {
    Config.Quiet = true;
    Config.Build.Compiler.Stateful.SkipMode =
        StatefulConfig::Mode::HeuristicSkip;
    Config.Build.Compiler.RecordDecisions = true;
    if (Gated)
      Config.PreBuildHook = [this] {
        BuildsStarted.fetch_add(1);
        while (!Gate.load())
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
      };
    Daemon = std::make_unique<BuildDaemon>(FS, std::move(Config));
    std::string Err;
    if (!Daemon->start(&Err)) {
      ADD_FAILURE() << "daemon start failed: " << Err;
      return false;
    }
    Server = std::thread([this] { ServeCode = Daemon->serve(); });
    return true;
  }

  /// Opens the gate so builds flow freely.
  void open() { Gate.store(true); }

  /// Polls until \p Cond or ~5 s pass.
  template <typename Fn> bool waitFor(Fn Cond) {
    for (int I = 0; I != 5000; ++I) {
      if (Cond())
        return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  /// Fires one synchronous build request, capturing everything.
  ClientResult request(bool Run = true, bool Quiet = true) {
    ClientResult R;
    DaemonRequest Req;
    Req.Verb = "build";
    Req.Quiet = Quiet;
    Req.Run = Run;
    DaemonClient C = DaemonClient::connect(Daemon->socketPath());
    EXPECT_TRUE(C.connected());
    R.Code = C.roundTrip(
        Req, [&](const std::string &T) { R.Out += T; },
        [&](const std::string &T) { R.Err += T; }, &R.Exit, &R.Transport);
    return R;
  }

  void stopAndJoin() {
    Daemon->requestStop();
    Server.join();
    EXPECT_EQ(ServeCode, 0);
  }

  ~ServiceHarness() {
    Gate.store(true);
    if (Server.joinable()) {
      Daemon->requestStop();
      Server.join();
    }
  }
};

//===----------------------------------------------------------------------===//
// Coalescing
//===----------------------------------------------------------------------===//

// N concurrent clients on the same dirty state: exactly one extra
// compile wave (the warmup wave plus one shared wave), coalesce count
// N-1, and byte-identical streams for every waiter.
TEST(Service, ConcurrentIdenticalRequestsCoalesceIntoOneWave) {
  ServiceHarness H;
  writeProject(H.FS);
  ASSERT_TRUE(H.start());

  // Warmup request occupies the builder (gate closed), creating the
  // window in which the followers must coalesce.
  std::thread Warmup([&] { H.request(); });
  ASSERT_TRUE(H.waitFor([&] { return H.BuildsStarted.load() == 1; }));

  // Three followers arrive while the builder is busy: the first opens
  // a queued job, the other two join it.
  constexpr int N = 3;
  std::vector<ClientResult> Results(N);
  std::vector<std::thread> Clients;
  for (int I = 0; I != N; ++I)
    Clients.emplace_back([&, I] { Results[I] = H.request(); });
  ASSERT_TRUE(H.waitFor(
      [&] { return H.Daemon->serviceStats().Coalesced == N - 1; }));

  H.open();
  Warmup.join();
  for (auto &T : Clients)
    T.join();

  // Exactly two compile waves total: warmup + one shared.
  DaemonServiceStats S = H.Daemon->serviceStats();
  EXPECT_EQ(S.BuildsServed, 2u);
  EXPECT_EQ(S.Coalesced, static_cast<uint64_t>(N - 1));
  EXPECT_EQ(S.RequestsServed, static_cast<uint64_t>(N + 1));

  // Every waiter: success, byte-identical output ("42\n" from --run,
  // nothing on stderr), and the Coalesced flag on the joiners.
  int CoalescedFlags = 0;
  for (const ClientResult &R : Results) {
    EXPECT_EQ(R.Code, 0) << R.Transport;
    EXPECT_EQ(R.Out, "42\n");
    EXPECT_EQ(R.Err, "");
    EXPECT_TRUE(R.Exit.HasStats);
    CoalescedFlags += R.Exit.Coalesced ? 1 : 0;
  }
  EXPECT_EQ(CoalescedFlags, N - 1);
  H.stopAndJoin();
}

// Coalesced waiters with different rendering options still share the
// wave: same build, per-waiter rendering.
TEST(Service, CoalescedWaitersKeepTheirOwnRendering) {
  ServiceHarness H;
  writeProject(H.FS);
  ASSERT_TRUE(H.start());

  std::thread Warmup([&] { H.request(); });
  ASSERT_TRUE(H.waitFor([&] { return H.BuildsStarted.load() == 1; }));

  ClientResult Loud, QuietR;
  std::thread C1([&] { Loud = H.request(/*Run=*/false, /*Quiet=*/false); });
  std::thread C2([&] { QuietR = H.request(/*Run=*/false, /*Quiet=*/true); });
  ASSERT_TRUE(H.waitFor([&] { return H.Daemon->serviceStats().Coalesced == 1; }));

  H.open();
  Warmup.join();
  C1.join();
  C2.join();

  EXPECT_EQ(Loud.Code, 0);
  EXPECT_EQ(QuietR.Code, 0);
  // The loud waiter got the summary; the quiet one got silence — from
  // the same BuildStats of the same wave.
  EXPECT_NE(Loud.Out.find("files compiled"), std::string::npos);
  EXPECT_EQ(QuietR.Out, "");
  H.stopAndJoin();
}

//===----------------------------------------------------------------------===//
// Admission control
//===----------------------------------------------------------------------===//

TEST(Service, FullQueueAnswersBusyFrame) {
  ServiceHarness H;
  writeProject(H.FS);
  DaemonConfig Config;
  Config.MaxQueue = 1;
  ASSERT_TRUE(H.start(std::move(Config)));

  // Builder busy with the warmup; one job queued; the next distinct
  // request must bounce. (A `clean` build cannot coalesce with the
  // queued incremental one, so it takes the admission path.)
  std::thread Warmup([&] { H.request(); });
  ASSERT_TRUE(H.waitFor([&] { return H.BuildsStarted.load() == 1; }));
  std::thread Queued([&] { H.request(); });
  ASSERT_TRUE(H.waitFor(
      [&] { return H.Daemon->serviceStats().QueueDepth == 1; }));

  DaemonRequest CleanReq;
  CleanReq.Verb = "build";
  CleanReq.Clean = true;
  CleanReq.Quiet = true;
  DaemonClient C = DaemonClient::connect(H.Daemon->socketPath());
  ASSERT_TRUE(C.connected());
  DaemonFrame Busy;
  std::string Err;
  int Code = C.roundTrip(CleanReq, nullptr, nullptr, &Busy, &Err);
  EXPECT_EQ(Code, DaemonClient::BusyRejected);
  EXPECT_EQ(Busy.Type, "busy");
  EXPECT_EQ(Busy.QueueDepth, 1u);
  EXPECT_GT(Busy.RetryAfterMs, 0u);

  DaemonServiceStats S = H.Daemon->serviceStats();
  EXPECT_EQ(S.BusyRejections, 1u);
  EXPECT_EQ(S.QueueHighWater, 1u);

  H.open();
  Warmup.join();
  Queued.join();
  H.stopAndJoin();
}

//===----------------------------------------------------------------------===//
// Per-request deadlines
//===----------------------------------------------------------------------===//

TEST(Service, QueuedRequestPastDeadlineGetsCleanCancellation) {
  ServiceHarness H;
  writeProject(H.FS);
  DaemonConfig Config;
  Config.RequestTimeoutMs = 150;
  ASSERT_TRUE(H.start(std::move(Config)));

  // The warmup occupies the builder *past* the follower's deadline.
  std::thread Warmup([&] { H.request(); });
  ASSERT_TRUE(H.waitFor([&] { return H.BuildsStarted.load() == 1; }));

  // This request queues behind the blocked builder and must be
  // cancelled with the documented frame pair once 150 ms pass.
  ClientResult R;
  std::thread Follower([&] { R = H.request(); });
  Follower.join(); // Completes via timeout; gate still closed.

  EXPECT_EQ(R.Code, 4);
  EXPECT_NE(R.Err.find("timed out"), std::string::npos) << R.Err;
  EXPECT_GE(H.Daemon->serviceStats().RequestTimeouts, 1u);

  // The warmup build itself is unaffected: open the gate, it finishes.
  H.open();
  Warmup.join();
  EXPECT_EQ(H.Daemon->buildsServed(), 1u);
  H.stopAndJoin();
}

//===----------------------------------------------------------------------===//
// Disconnect resilience
//===----------------------------------------------------------------------===//

TEST(Service, ClientDeathMidBuildDoesNotWedgeTheDaemon) {
  ServiceHarness H;
  writeProject(H.FS);
  ASSERT_TRUE(H.start());

  // A raw client sends a build request and dies while the builder is
  // still holding it.
  {
    std::string Err;
    UnixSocket Doomed = UnixSocket::connectTo(H.Daemon->socketPath(), &Err);
    ASSERT_TRUE(Doomed.valid()) << Err;
    DaemonRequest Req;
    Req.Verb = "build";
    Req.Quiet = true;
    ASSERT_TRUE(Doomed.sendFrame(encodeRequest(Req)));
    ASSERT_TRUE(H.waitFor([&] { return H.BuildsStarted.load() == 1; }));
    // Scope exit closes the socket: the client is gone mid-build.
  }

  H.open();
  // The build completes and the lost fan-out is recorded.
  ASSERT_TRUE(H.waitFor([&] { return H.Daemon->buildsServed() == 1; }));
  ASSERT_TRUE(H.waitFor(
      [&] { return H.Daemon->serviceStats().Disconnects == 1; }));

  // The daemon still serves: a healthy client gets a correct (and now
  // warm — nothing re-scanned) build.
  ClientResult R = H.request();
  EXPECT_EQ(R.Code, 0) << R.Transport;
  EXPECT_EQ(R.Out, "42\n");
  EXPECT_TRUE(R.Exit.HasStats);
  EXPECT_EQ(R.Exit.InterfaceScans, 0u);
  EXPECT_EQ(R.Exit.ObjectsParsed, 0u);
  H.stopAndJoin();
}

// A client that left while its request waited in the queue misses its
// cancellation frames: one disconnect, in the service counters and in
// the metrics alike, so `status` and `metrics` agree.
TEST(Service, DeadClientOfATimedOutRequestIsOneDisconnectEverywhere) {
  MetricsRegistry Metrics;
  ServiceHarness H;
  writeProject(H.FS);
  DaemonConfig Config;
  Config.RequestTimeoutMs = 150;
  Config.Build.Compiler.Metrics = &Metrics;
  ASSERT_TRUE(H.start(std::move(Config)));

  std::thread Warmup([&] { H.request(); });
  ASSERT_TRUE(H.waitFor([&] { return H.BuildsStarted.load() == 1; }));
  {
    std::string Err;
    UnixSocket Doomed = UnixSocket::connectTo(H.Daemon->socketPath(), &Err);
    ASSERT_TRUE(Doomed.valid()) << Err;
    DaemonRequest Req;
    Req.Verb = "build";
    Req.Quiet = true;
    ASSERT_TRUE(Doomed.sendFrame(encodeRequest(Req)));
    ASSERT_TRUE(H.waitFor(
        [&] { return H.Daemon->serviceStats().QueueDepth == 1; }));
    // Scope exit closes the socket while the request is still queued.
  }
  ASSERT_TRUE(H.waitFor(
      [&] { return H.Daemon->serviceStats().Disconnects == 1; }));
  EXPECT_EQ(H.Daemon->serviceStats().RequestTimeouts, 1u);
  EXPECT_EQ(H.Daemon->serviceStats().Disconnects,
            Metrics.counter("daemon.disconnects").value());

  H.open();
  Warmup.join();
  H.stopAndJoin();
}

//===----------------------------------------------------------------------===//
// Client retry/backoff
//===----------------------------------------------------------------------===//

TEST(Service, RetryBacksOffWithDoublingAndHonorsBusy) {
  ServiceHarness H;
  writeProject(H.FS);
  DaemonConfig Config;
  Config.MaxQueue = 1;
  ASSERT_TRUE(H.start(std::move(Config)));

  // Fill the service: builder blocked + one queued job.
  std::thread Warmup([&] { H.request(); });
  ASSERT_TRUE(H.waitFor([&] { return H.BuildsStarted.load() == 1; }));
  std::thread Queued([&] { H.request(); });
  ASSERT_TRUE(H.waitFor(
      [&] { return H.Daemon->serviceStats().QueueDepth == 1; }));

  // A clean build cannot coalesce, so it is rejected busy; after the
  // first rejection we open the gate, and a retry must succeed.
  DaemonRequest CleanReq;
  CleanReq.Verb = "build";
  CleanReq.Clean = true;
  CleanReq.Quiet = true;
  DaemonClient::RetryPolicy Policy;
  Policy.Attempts = 6;
  Policy.InitialBackoffMs = 30;
  Policy.JitterSeed = 42;
  std::vector<unsigned> Sleeps;
  Policy.OnBackoff = [&](unsigned, unsigned Ms) {
    Sleeps.push_back(Ms);
    H.open(); // First backoff un-blocks the service.
  };
  DaemonFrame Exit;
  std::string Err;
  int Code = DaemonClient::requestWithRetry(
      H.Daemon->socketPath(), CleanReq, nullptr, nullptr, Policy, &Exit, &Err);
  EXPECT_EQ(Code, 0) << Err;
  EXPECT_GE(Sleeps.size(), 1u);
  EXPECT_GE(H.Daemon->serviceStats().BusyRejections, 1u);

  Warmup.join();
  Queued.join();
  H.stopAndJoin();
}

TEST(Service, RetryExhaustionSurfacesLastFailureForFallback) {
  // No daemon at all: requestWithRetry must come back with
  // TransportError after its bounded attempts — the caller's cue to
  // build in-process.
  TempDir Dir;
  DaemonRequest Req;
  Req.Verb = "build";
  DaemonClient::RetryPolicy Policy;
  Policy.Attempts = 3;
  Policy.InitialBackoffMs = 5;
  Policy.JitterSeed = 7;
  std::vector<unsigned> Sleeps;
  Policy.OnBackoff = [&](unsigned, unsigned Ms) { Sleeps.push_back(Ms); };
  std::string Err;
  int Code = DaemonClient::requestWithRetry(Dir.Path + "/nothing.sock", Req,
                                            nullptr, nullptr, Policy, nullptr,
                                            &Err);
  EXPECT_EQ(Code, DaemonClient::TransportError);
  EXPECT_EQ(Sleeps.size(), 2u); // Attempts-1 backoffs.
  // Doubling schedule with full jitter: sleep N is uniform in
  // [B/2, B] where B doubles from InitialBackoffMs.
  ASSERT_EQ(Sleeps.size(), 2u);
  EXPECT_GE(Sleeps[0], 2u);
  EXPECT_LE(Sleeps[0], 5u);
  EXPECT_GE(Sleeps[1], 5u);
  EXPECT_LE(Sleeps[1], 10u);
  EXPECT_FALSE(Err.empty());
}

//===----------------------------------------------------------------------===//
// Graceful drain
//===----------------------------------------------------------------------===//

TEST(Service, DrainFinishesInFlightAndCancelsQueued) {
  ServiceHarness H;
  writeProject(H.FS);
  ASSERT_TRUE(H.start());

  // In-flight build (gate closed) plus one queued wave behind it.
  ClientResult InFlight, QueuedR;
  std::thread C1([&] { InFlight = H.request(); });
  ASSERT_TRUE(H.waitFor([&] { return H.BuildsStarted.load() == 1; }));
  std::thread C2([&] { QueuedR = H.request(); });
  ASSERT_TRUE(H.waitFor(
      [&] { return H.Daemon->serviceStats().QueueDepth == 1; }));

  // Drain while the builder is held: the queued wave must be cancelled
  // with the documented frame pair; the in-flight build must complete
  // once the gate opens.
  H.Daemon->requestStop();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  H.open();
  H.Server.join();
  EXPECT_EQ(H.ServeCode, 0);
  C1.join();
  C2.join();

  EXPECT_EQ(InFlight.Code, 0) << InFlight.Transport;
  EXPECT_EQ(InFlight.Out, "42\n");
  EXPECT_EQ(QueuedR.Code, 5);
  EXPECT_NE(QueuedR.Err.find("shutting down"), std::string::npos)
      << QueuedR.Err;
  EXPECT_GE(H.Daemon->serviceStats().CancelledOnDrain, 1u);

  // Post-drain invariants: no socket file, lock released — the next
  // plain in-process build succeeds immediately.
  EXPECT_FALSE(std::filesystem::exists(H.Daemon->socketPath()));
  H.Daemon.reset();
  BuildOptions Opts;
  Opts.Compiler.Stateful.SkipMode = StatefulConfig::Mode::HeuristicSkip;
  Opts.LockTimeoutMs = 500;
  BuildDriver Driver(H.FS, Opts);
  BuildStats Stats = Driver.build();
  EXPECT_TRUE(Stats.Success) << Stats.ErrorText;
}

TEST(Service, RequestDuringDrainGetsCleanRejection) {
  ServiceHarness H;
  writeProject(H.FS);
  ASSERT_TRUE(H.start());

  // Hold the builder so drain stays in its cancel window, then stop.
  std::thread Warmup([&] { H.request(); });
  ASSERT_TRUE(H.waitFor([&] { return H.BuildsStarted.load() == 1; }));
  H.Daemon->requestStop();

  // After the drain completes, the socket is gone: a late client
  // cannot even connect (its cue to fall back in-process).
  H.open();
  Warmup.join();
  H.Server.join();
  DaemonClient Late = DaemonClient::connect(H.Daemon->socketPath());
  EXPECT_FALSE(Late.connected());
}

//===----------------------------------------------------------------------===//
// Service counters in status
//===----------------------------------------------------------------------===//

TEST(Service, StatusReportsServiceCounters) {
  ServiceHarness H;
  writeProject(H.FS);
  ASSERT_TRUE(H.start(DaemonConfig(), /*Gated=*/false));

  ClientResult R = H.request();
  ASSERT_EQ(R.Code, 0) << R.Transport;

  DaemonRequest Status;
  Status.Verb = "status";
  std::string Text, Err;
  DaemonClient C = DaemonClient::connect(H.Daemon->socketPath());
  ASSERT_TRUE(C.connected());
  ASSERT_EQ(C.roundTrip(
                Status, [&](const std::string &T) { Text += T; }, nullptr,
                nullptr, &Err),
            0)
      << Err;
  EXPECT_NE(Text.find("builds served 1"), std::string::npos) << Text;
  EXPECT_NE(Text.find("queue depth 0"), std::string::npos) << Text;
  EXPECT_NE(Text.find("coalesced 0"), std::string::npos) << Text;
  EXPECT_NE(Text.find("busy rejections 0"), std::string::npos) << Text;
  EXPECT_NE(Text.find("request timeouts 0"), std::string::npos) << Text;
  H.stopAndJoin();
}

// Regression: daemon.* gauges in the metrics registry were published
// only when a build ran, so a `metrics` scrape (or --metrics-out dump)
// between builds could report whatever depth the last build left
// behind. Both read paths must snapshot the live service state at
// frame-render time.
TEST(Service, MetricsAndStatusRefreshGaugesAtRenderTime) {
  ServiceHarness H;
  writeProject(H.FS);
  MetricsRegistry Metrics;
  DaemonConfig Config;
  Config.Build.Compiler.Metrics = &Metrics;
  ASSERT_TRUE(H.start(std::move(Config), /*Gated=*/false));

  // Poison the gauges the way a stale publisher would leave them.
  Metrics.gauge("daemon.queue_depth").set(999);
  Metrics.gauge("daemon.connections_active").set(999);

  DaemonRequest Req;
  Req.Verb = "metrics";
  std::string Text, Err;
  {
    DaemonClient C = DaemonClient::connect(H.Daemon->socketPath());
    ASSERT_TRUE(C.connected());
    ASSERT_EQ(C.roundTrip(
                  Req, [&](const std::string &T) { Text += T; }, nullptr,
                  nullptr, &Err),
              0)
        << Err;
  }
  // The scrape must carry the true (empty) queue, not the poison.
  EXPECT_NE(Text.find("scbuild_daemon_queue_depth 0"), std::string::npos)
      << Text;
  EXPECT_EQ(Text.find("999"), std::string::npos) << Text;

  // The status verb refreshes the registry too (it renders from live
  // counters, but tools reading the registry afterwards — report-json,
  // metrics-out — must see the same truth).
  Metrics.gauge("daemon.queue_depth").set(999);
  Req.Verb = "status";
  Text.clear();
  {
    DaemonClient C = DaemonClient::connect(H.Daemon->socketPath());
    ASSERT_TRUE(C.connected());
    ASSERT_EQ(C.roundTrip(
                  Req, [&](const std::string &T) { Text += T; }, nullptr,
                  nullptr, &Err),
              0)
        << Err;
  }
  EXPECT_NE(Text.find("queue depth 0"), std::string::npos) << Text;
  EXPECT_EQ(Metrics.gauge("daemon.queue_depth").value(), 0.0);

  H.stopAndJoin();
}

} // namespace
