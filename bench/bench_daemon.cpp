//===- bench/bench_daemon.cpp - Daemon load/latency harness ---------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Load harness for the multi-client build service: genny-style phases
/// ramp N concurrent clients (N = 1/4/8) through edit → build → verify
/// cycles against one in-process BuildDaemon, measuring what a shared
/// service must be measured by — tail latency, not means.
///
/// Per client-count phase:
///  * one warmup (cold) build, excluded from latencies;
///  * R rounds of: apply one scripted edit, then fire N concurrent
///    identical build requests and record each client's end-to-end
///    latency (connect → exit frame).
/// Identical concurrent requests are expected to coalesce into few
/// compile waves; the phase records the daemon's coalesce counter
/// delta and queue-depth high-water mark alongside p50/p95/p99 latency
/// and the per-client fairness spread (slowest client mean / fastest
/// client mean — a fair service keeps this near 1).
///
/// A separate overload phase (MaxQueue=1, non-coalescible alternating
/// clean/incremental requests, deliberate service-time floor) verifies
/// admission control under pressure: some requests MUST bounce with
/// `busy` frames, and every bounced client gets that answer quickly
/// instead of hanging.
///
/// Results land in BENCH_daemon.json for tools/bench_check.py, which
/// gates tail-latency regressions the same way the thread-scaling
/// bench is gated (and SKIPs honestly on constrained/oversubscribed
/// runners, where queueing behavior reflects the runner, not the
/// code).
///
/// The daemon runs in-process (not a forked scbuildd) so the bench can
/// read service counters directly; the socket, framing, threading, and
/// admission paths are exactly the production ones.
///
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

#include "build_sys/Daemon.h"
#include "build_sys/DaemonClient.h"
#include "support/FileSystem.h"
#include "support/RNG.h"
#include "workload/Workload.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace sc;
using namespace sc::bench;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point Start) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             Clock::now() - Start)
      .count();
}

struct TempTree {
  std::string Path;
  TempTree() {
    char Buf[] = "/tmp/sc-benchd-XXXXXX";
    const char *P = ::mkdtemp(Buf);
    Path = P ? P : "";
  }
  ~TempTree() {
    if (!Path.empty()) {
      std::error_code EC;
      std::filesystem::remove_all(Path, EC);
    }
  }
};

/// One daemon lifetime: in-process BuildDaemon served from a thread.
struct LiveDaemon {
  RealFileSystem &FS;
  std::unique_ptr<BuildDaemon> Daemon;
  std::thread Server;

  LiveDaemon(RealFileSystem &FS, unsigned HoldMs, unsigned MaxQueue = 16)
      : FS(FS) {
    DaemonConfig Config;
    Config.Quiet = true;
    Config.Build.Compiler.Stateful.SkipMode =
        StatefulConfig::Mode::HeuristicSkip;
    Config.Build.Compiler.RecordDecisions = true;
    Config.HoldMs = HoldMs;
    Config.MaxQueue = MaxQueue;
    Daemon = std::make_unique<BuildDaemon>(FS, std::move(Config));
    std::string Err;
    if (!Daemon->start(&Err)) {
      std::fprintf(stderr, "daemon start failed: %s\n", Err.c_str());
      std::exit(1);
    }
    Server = std::thread([this] { Daemon->serve(); });
  }
  ~LiveDaemon() {
    Daemon->requestStop();
    Server.join();
  }

  /// One synchronous build request; returns the exit code (or a
  /// DaemonClient error value) and the latency in ms.
  int build(double *LatencyMs, bool Clean = false) {
    DaemonRequest Req;
    Req.Verb = "build";
    Req.Quiet = true;
    Req.Clean = Clean;
    const auto Start = Clock::now();
    DaemonClient C = DaemonClient::connect(Daemon->socketPath());
    int Code = -1;
    if (C.connected())
      Code = C.roundTrip(Req, nullptr, nullptr, nullptr, nullptr);
    if (LatencyMs)
      *LatencyMs = msSince(Start);
    return Code;
  }
};

/// Results of one client-count phase.
struct PhaseResult {
  unsigned Clients = 0;
  unsigned Requests = 0;
  unsigned Failures = 0;
  double P50Ms = 0, P95Ms = 0, P99Ms = 0;
  double FairnessSpread = 1.0;
  uint64_t CoalesceHits = 0;
  uint32_t QueueHighWater = 0;
  uint64_t BusyRejections = 0;
  uint64_t BuildsServed = 0;
};

PhaseResult runPhase(RealFileSystem &FS, ProjectModel &Model, RNG &Rand,
                     unsigned Clients, unsigned Rounds, unsigned HoldMs) {
  LiveDaemon S(FS, HoldMs);
  PhaseResult R;
  R.Clients = Clients;

  // Warmup (cold or post-edit) build, excluded from the measurements.
  double Ignore = 0;
  if (S.build(&Ignore) != 0) {
    std::fprintf(stderr, "warmup build failed (clients=%u)\n", Clients);
    std::exit(1);
  }
  const DaemonServiceStats Before = S.Daemon->serviceStats();

  std::vector<std::vector<double>> PerClient(Clients);
  std::atomic<unsigned> Failures{0};
  for (unsigned Round = 0; Round != Rounds; ++Round) {
    // One scripted edit dirties the tree; N clients then race to
    // request the rebuild. Identical pending requests coalesce.
    Model.applyCommit(Rand, FS);
    std::vector<std::thread> Threads;
    for (unsigned CI = 0; CI != Clients; ++CI)
      Threads.emplace_back([&, CI] {
        double Ms = 0;
        if (S.build(&Ms) != 0)
          Failures.fetch_add(1);
        PerClient[CI].push_back(Ms);
      });
    for (auto &T : Threads)
      T.join();
  }

  std::vector<double> All;
  std::vector<double> ClientMeans;
  for (const auto &Lats : PerClient) {
    double Sum = 0;
    for (double L : Lats) {
      All.push_back(L);
      Sum += L;
    }
    if (!Lats.empty())
      ClientMeans.push_back(Sum / static_cast<double>(Lats.size()));
  }
  R.Requests = static_cast<unsigned>(All.size());
  R.Failures = Failures.load();
  R.P50Ms = percentile(All, 50);
  R.P95Ms = percentile(All, 95);
  R.P99Ms = percentile(All, 99);
  if (ClientMeans.size() > 1) {
    double Min = ClientMeans[0], Max = ClientMeans[0];
    for (double M : ClientMeans) {
      Min = std::min(Min, M);
      Max = std::max(Max, M);
    }
    R.FairnessSpread = Min > 0 ? Max / Min : 1.0;
  }

  const DaemonServiceStats After = S.Daemon->serviceStats();
  R.CoalesceHits = After.Coalesced - Before.Coalesced;
  R.QueueHighWater = After.QueueHighWater;
  R.BusyRejections = After.BusyRejections - Before.BusyRejections;
  R.BuildsServed = After.BuildsServed - Before.BuildsServed;
  return R;
}

} // namespace

int main() {
  banner("DAEMON", "Multi-client build service: load, tail latency, overload");

  const unsigned HardwareThreads =
      std::max(1u, std::thread::hardware_concurrency());
  constexpr unsigned Rounds = 6;
  constexpr unsigned HoldMs = 5; // Service-time floor: queues can form.

  // Medium workload on a real (disk) tree — the daemon protocol runs
  // over a real Unix socket against RealFileSystem.
  ProjectProfile Profile;
  Profile.Name = "daemon-load";
  Profile.NumFiles = 12;
  Profile.MinFuncsPerFile = 4;
  Profile.MaxFuncsPerFile = 8;
  Profile.MaxImportsPerFile = 3;

  const std::vector<unsigned> ClientCounts = {1, 4, 8};
  // More client threads than cores means latency measures the runner's
  // scheduler as much as the service; record it so the regression gate
  // can skip honestly.
  const unsigned MaxClients =
      *std::max_element(ClientCounts.begin(), ClientCounts.end());
  const bool Oversubscribed = MaxClients + 1 > HardwareThreads;

  std::printf("\n%u rounds per phase, %u files, hold %u ms, machine has %u "
              "hardware thread(s)%s\n\n",
              Rounds, Profile.NumFiles, HoldMs, HardwareThreads,
              Oversubscribed ? " (oversubscribed)" : "");

  printRow({"clients", "p50(ms)", "p95(ms)", "p99(ms)", "coalesced",
            "queue-hw", "fairness"});
  std::vector<std::string> JsonRows;
  for (unsigned Clients : ClientCounts) {
    // A fresh tree per phase: phases are independent measurements, not
    // one long-running history.
    TempTree Tree;
    RealFileSystem FS(Tree.Path);
    ProjectModel Model = ProjectModel::generate(Profile, /*Seed=*/42);
    Model.renderAll(FS);
    RNG Rand(1337);

    PhaseResult R = runPhase(FS, Model, Rand, Clients, Rounds, HoldMs);
    if (R.Failures) {
      std::fprintf(stderr, "phase clients=%u had %u failed requests\n",
                   Clients, R.Failures);
      return 1;
    }
    // Keep the phase's build-history ledger before the tree is torn
    // down: `bench_check.py history` validates it (monotone ids,
    // checksummed records) as the ledger's long-run soak artifact.
    {
      std::error_code EC;
      std::filesystem::copy_file(Tree.Path + "/out/history.jsonl",
                                 "BENCH_daemon_history.jsonl",
                                 std::filesystem::copy_options::overwrite_existing,
                                 EC);
    }
    printRow({std::to_string(Clients), fmt(R.P50Ms), fmt(R.P95Ms),
              fmt(R.P99Ms), std::to_string(R.CoalesceHits),
              std::to_string(R.QueueHighWater), fmt(R.FairnessSpread)});
    JsonBuilder Row;
    Row.field("clients", static_cast<uint64_t>(R.Clients))
        .field("requests", static_cast<uint64_t>(R.Requests))
        .field("builds_served", R.BuildsServed)
        .field("build_latency_p50_ms", R.P50Ms)
        .field("build_latency_p95_ms", R.P95Ms)
        .field("build_latency_p99_ms", R.P99Ms)
        .field("queue_high_water", static_cast<uint64_t>(R.QueueHighWater))
        .field("coalesce_hits", R.CoalesceHits)
        .field("busy_rejections", R.BusyRejections)
        .field("fairness_spread", R.FairnessSpread);
    JsonRows.push_back(Row.str());
  }

  //===--- Overload phase --------------------------------------------------===//
  //
  // MaxQueue=1 and alternating clean/incremental requests (which never
  // coalesce with each other) guarantee admission pressure: with the
  // builder held HoldMs per wave, 8 concurrent mismatched requests
  // cannot all fit. Busy answers must be structured and fast.
  uint64_t OverloadBusy = 0, OverloadAccepted = 0;
  double BusyAnswerP95Ms = 0;
  {
    TempTree Tree;
    RealFileSystem FS(Tree.Path);
    ProjectModel Model = ProjectModel::generate(Profile, /*Seed=*/42);
    Model.renderAll(FS);

    LiveDaemon S(FS, /*HoldMs=*/40, /*MaxQueue=*/1);
    double Ignore = 0;
    if (S.build(&Ignore) != 0) {
      std::fprintf(stderr, "overload warmup build failed\n");
      return 1;
    }
    constexpr unsigned OverloadClients = 8;
    std::atomic<uint64_t> Busy{0}, Accepted{0}, Failed{0};
    std::vector<double> BusyLatencies(OverloadClients, 0.0);
    std::vector<std::thread> Threads;
    for (unsigned CI = 0; CI != OverloadClients; ++CI)
      Threads.emplace_back([&, CI] {
        double Ms = 0;
        int Code = S.build(&Ms, /*Clean=*/CI % 2 == 0);
        if (Code == DaemonClient::BusyRejected) {
          Busy.fetch_add(1);
          BusyLatencies[CI] = Ms;
        } else if (Code == 0)
          Accepted.fetch_add(1);
        else
          Failed.fetch_add(1);
      });
    for (auto &T : Threads)
      T.join();
    if (Failed.load()) {
      std::fprintf(stderr, "overload phase had %llu hard failures\n",
                   static_cast<unsigned long long>(Failed.load()));
      return 1;
    }
    OverloadBusy = Busy.load();
    OverloadAccepted = Accepted.load();
    std::vector<double> BusyOnly;
    for (unsigned CI = 0; CI != OverloadClients; ++CI)
      if (BusyLatencies[CI] > 0)
        BusyOnly.push_back(BusyLatencies[CI]);
    BusyAnswerP95Ms = percentile(BusyOnly, 95);
    std::printf("\noverload: %llu accepted, %llu busy-rejected "
                "(busy answer p95 %.2f ms)\n",
                static_cast<unsigned long long>(OverloadAccepted),
                static_cast<unsigned long long>(OverloadBusy),
                BusyAnswerP95Ms);
  }

  JsonBuilder Overload;
  Overload.field("clients", static_cast<uint64_t>(8))
      .field("max_queue", static_cast<uint64_t>(1))
      .field("accepted", OverloadAccepted)
      .field("busy_rejections", OverloadBusy)
      .field("busy_answer_p95_ms", BusyAnswerP95Ms);

  JsonBuilder Out;
  Out.field("experiment", std::string("daemon"))
      .field("hardware_threads", static_cast<uint64_t>(HardwareThreads))
      .field("oversubscribed", static_cast<uint64_t>(Oversubscribed ? 1 : 0))
      .field("rounds", static_cast<uint64_t>(Rounds))
      .field("files", static_cast<uint64_t>(Profile.NumFiles))
      .field("hold_ms", static_cast<uint64_t>(HoldMs))
      .raw("runs", jsonArray(JsonRows))
      .raw("overload", Overload.str());
  writeBenchJson("BENCH_daemon.json", Out.str());
  return 0;
}
