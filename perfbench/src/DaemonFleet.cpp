//===- perfbench/src/DaemonFleet.cpp - daemon-fleet workload --------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// daemon-fleet: developer trees (json_lib, 30 files) served by
/// in-process BuildDaemons whose remote tier is one in-process
/// CacheDaemon. Per round an untimed teammate BuildDriver applies the
/// next commit and publishes its objects; the developer tree then takes
/// the same commit and three client threads request a build at once.
/// They coalesce or find a no-op, and every dirty TU is a remote hit,
/// so the socket, queue, warm caches and remote round trips carry the
/// load while the compiler does nothing. A "build" here is one client
/// request, timed from connect to the exit frame. Three such projects
/// take turns, round by round.
///
/// The traced run adds a plain twin of every developer tree, served by
/// a daemon with no telemetry attached, which takes the same commits
/// and the same requests; trace.overhead_ratio compares the two.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "build_sys/Daemon.h"
#include "build_sys/DaemonClient.h"
#include "cache_sys/CacheDaemon.h"
#include "support/RNG.h"
#include "workload/Workload.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>

using namespace sc;

namespace perfbench {

namespace {

constexpr unsigned Clients = 3;
/// Projects per run, taking turns round by round. As in the in-process
/// workloads, averaging over three keeps one project's shape from
/// setting the run's result. Coprime with OracleEveryRounds, so the
/// oracle samples every project in turn.
constexpr unsigned Trees = 3;
constexpr unsigned OracleEveryRounds = 10;

/// Keeps every event the daemon's recorder streams out (the daemon
/// flushes its recorder after each build).
class MemorySink : public TraceSink {
public:
  bool event(const std::string &EventJson) override {
    std::lock_guard<std::mutex> L(Mu);
    Events.push_back(EventJson);
    return true;
  }

  /// Events received since the previous call.
  std::vector<std::string> takeNew() {
    std::lock_guard<std::mutex> L(Mu);
    std::vector<std::string> New(Events.begin() + static_cast<long>(Taken),
                                 Events.end());
    Taken = Events.size();
    return New;
  }

  /// Everything received, as a JSON array (strictly valid JSON).
  std::string toJson() const {
    std::lock_guard<std::mutex> L(Mu);
    std::string J = "[\n";
    for (size_t I = 0; I != Events.size(); ++I)
      J += (I ? ",\n" : "") + Events[I];
    return J + "\n]\n";
  }

private:
  mutable std::mutex Mu;
  std::vector<std::string> Events;
  size_t Taken = 0;
};

/// The string value of `"Key":"..."` in one trace-event object, as the
/// recorder renders it (names here never contain escapes).
std::string stringField(const std::string &J, const std::string &Key) {
  const std::string Pat = "\"" + Key + "\":\"";
  const size_t At = J.find(Pat);
  if (At == std::string::npos)
    return "";
  const size_t Begin = At + Pat.size();
  return J.substr(Begin, J.find('"', Begin) - Begin);
}

double numberField(const std::string &J, const std::string &Key) {
  const std::string Pat = "\"" + Key + "\":";
  const size_t At = J.find(Pat);
  return At == std::string::npos
             ? 0
             : std::strtod(J.c_str() + At + Pat.size(), nullptr);
}

std::string argsField(const std::string &J) {
  const size_t At = J.find("\"args\":");
  return At == std::string::npos ? "" : J.substr(At + 7);
}

/// One client request's outcome.
struct Reply {
  int Code = DaemonClient::TransportError;
  DaemonFrame Exit;
  double Ms = 0;
  std::string Out;
  std::string Err;
};

Reply request(const std::string &Socket, unsigned Jobs, bool RunProgram) {
  DaemonRequest Req;
  Req.Verb = "build";
  Req.Quiet = true;
  Req.Run = RunProgram;
  Req.Jobs = Jobs;
  Reply Rep;
  const double T0 = nowMs();
  DaemonClient C = DaemonClient::connect(Socket);
  if (C.connected())
    Rep.Code = C.roundTrip(
        Req, [&](const std::string &S) { Rep.Out += S; },
        [&](const std::string &S) { Rep.Err += S; }, &Rep.Exit, &Rep.Err);
  Rep.Ms = nowMs() - T0;
  return Rep;
}

std::string describe(const Reply &Rep) {
  if (Rep.Code == DaemonClient::BusyRejected)
    return "refused (busy)";
  if (Rep.Code == DaemonClient::TransportError)
    return "transport error: " + Rep.Err;
  return "exit code " + std::to_string(Rep.Code) + ": " + Rep.Err;
}

/// A developer tree served by its own in-process build daemon, with
/// its edit stream.
struct DevTree {
  /// Signalled by the daemon's pre-build hook each time a build starts.
  std::mutex StartMu;
  std::condition_variable StartCV;
  uint64_t BuildsStarted = 0;

  std::unique_ptr<RealFileSystem> FS;
  std::unique_ptr<ProjectModel> Model;
  std::unique_ptr<BuildDaemon> Daemon;
  std::thread Thread;
  RNG Rand{0};

  DevTree() = default;
  DevTree(const DevTree &) = delete;
  DevTree &operator=(const DevTree &) = delete;
  ~DevTree() { stop(); }

  void stop() {
    if (Daemon) {
      Daemon->requestStop();
      if (Thread.joinable())
        Thread.join();
      Daemon.reset();
    }
    Model.reset();
    FS.reset();
  }

  uint64_t buildsStarted() {
    std::lock_guard<std::mutex> L(StartMu);
    return BuildsStarted;
  }

  /// Waits until more than \p Seen builds have started; false after a
  /// generous timeout (the daemon is wedged).
  bool waitForBuildStart(uint64_t Seen) {
    std::unique_lock<std::mutex> L(StartMu);
    return StartCV.wait_for(L, std::chrono::seconds(30),
                            [&] { return BuildsStarted > Seen; });
  }

  /// Renders the project under \p Dir, serves it with a daemon whose
  /// driver uses \p Options and the cache daemon at \p CacheSocket, and
  /// makes it warm: a cold build, then a no-op whose ledger record
  /// fills the ledger. False (with \p Err) on any failure.
  bool start(const std::string &Dir, const ProjectProfile &Profile,
             uint64_t Seed, const BuildOptions &Options,
             const std::string &CacheSocket, unsigned Jobs,
             std::string &Err) {
    FS = std::make_unique<RealFileSystem>(Dir);
    Model =
        std::make_unique<ProjectModel>(ProjectModel::generate(Profile, Seed));
    Model->renderAll(*FS);
    Rand = RNG(editSeed(Seed));
    DaemonConfig DC;
    DC.Quiet = true;
    DC.PreBuildHook = [this] {
      {
        std::lock_guard<std::mutex> L(StartMu);
        ++BuildsStarted;
      }
      StartCV.notify_all();
    };
    DC.Build = Options;
    DC.Build.RemoteCache = CacheSocket;
    Daemon = std::make_unique<BuildDaemon>(*FS, std::move(DC));
    if (!Daemon->start(&Err))
      return false;
    Thread = std::thread([this] { Daemon->serve(); });
    for (const char *What : {"cold", "no-op"}) {
      Reply Rep = request(Daemon->socketPath(), Jobs, /*RunProgram=*/false);
      if (Rep.Code != 0) {
        Err = std::string(What) + " build: " + describe(Rep);
        return false;
      }
    }
    if (!prefillLedger(*FS, Options.OutDir, Options.HistoryLimit)) {
      Err = "could not prefill the build-history ledger";
      return false;
    }
    return true;
  }
};

/// One project of the fleet: the teammate's tree and driver, the
/// developer's tree and daemon and, in the traced run, the developer's
/// plain twin.
struct Project {
  std::unique_ptr<RealFileSystem> TeamFS;
  std::unique_ptr<ProjectModel> TeamModel;
  std::unique_ptr<BuildDriver> Team;
  RNG TeamRand{0};
  DevTree Dev, Plain;

  void stop() {
    Dev.stop();
    Plain.stop();
    Team.reset();
    TeamModel.reset();
    TeamFS.reset();
  }

  /// Builds the teammate's tree cold, publishing every object to the
  /// cache daemon at \p CacheSocket, then brings the developer's daemon
  /// up; false (with \p Err) on any failure.
  bool start(const std::string &Dir, const ProjectProfile &Profile,
             uint64_t Seed, const BuildOptions &DevOptions,
             const std::string &CacheSocket, unsigned Jobs,
             std::string &Err) {
    TeamFS = std::make_unique<RealFileSystem>(Dir + "/t");
    TeamModel =
        std::make_unique<ProjectModel>(ProjectModel::generate(Profile, Seed));
    TeamModel->renderAll(*TeamFS);
    TeamRand = RNG(editSeed(Seed));
    BuildOptions TO = benchBuildOptions(Jobs);
    TO.RemoteCache = CacheSocket;
    Team = std::make_unique<BuildDriver>(*TeamFS, TO);
    BuildStats TS = Team->build();
    if (!TS.Success) {
      Err = "teammate cold build failed: " + TS.ErrorText;
      return false;
    }
    if (!Dev.start(Dir + "/d", Profile, Seed, DevOptions, CacheSocket, Jobs,
                   Err)) {
      Err = "developer " + Err;
      return false;
    }
    return true;
  }
};

/// The cache daemon and the projects that share it. Members are torn
/// down in dependency order by stop().
struct Fleet {
  std::string Dir, CacheSocket;
  std::unique_ptr<RealFileSystem> StoreFS;
  std::unique_ptr<CacheDaemon> Cache;
  std::thread CacheThread;
  Project Projects[Trees];

  Fleet() = default;
  Fleet(const Fleet &) = delete;
  Fleet &operator=(const Fleet &) = delete;
  ~Fleet() { stop(); }

  void stop() {
    // Clients of the cache (the build daemons, the teammate drivers)
    // close their connections before the cache drains.
    for (Project &P : Projects)
      P.stop();
    if (Cache) {
      Cache->requestStop();
      if (CacheThread.joinable())
        CacheThread.join();
      Cache.reset();
    }
    StoreFS.reset();
    if (!Dir.empty()) {
      std::error_code EC;
      std::filesystem::remove_all(Dir, EC);
    }
    Dir.clear();
  }

  /// Brings the cache daemon and every project up; project K of seed S
  /// is generated from seed S * Trees + K. False (with \p Err) on any
  /// failure.
  bool start(const std::string &D, const ProjectProfile &Profile,
             uint64_t Seed, const BuildOptions &DevOptions, unsigned Jobs,
             std::string &Err) {
    Dir = D;
    resetDir(Dir);
    CacheDaemonConfig CC;
    CC.SocketPath = CacheSocket = Dir + "/c.sock";
    CC.Quiet = true;
    StoreFS = std::make_unique<RealFileSystem>(Dir + "/store");
    Cache = std::make_unique<CacheDaemon>(*StoreFS, CC);
    if (!Cache->start(&Err))
      return false;
    CacheThread = std::thread([this] { Cache->serve(); });
    for (unsigned K = 0; K != Trees; ++K)
      if (!Projects[K].start(Dir + "/" + std::to_string(K), Profile,
                             Seed * Trees + K, DevOptions, CacheSocket, Jobs,
                             Err))
        return false;
    return true;
  }

  /// Starts every project's plain twin (traced run only).
  bool startPlainTwins(const ProjectProfile &Profile, uint64_t Seed,
                       unsigned Jobs, std::string &Err) {
    for (unsigned K = 0; K != Trees; ++K)
      if (!Projects[K].Plain.start(Dir + "/" + std::to_string(K) + "/p",
                                   Profile, Seed * Trees + K,
                                   benchBuildOptions(Jobs), CacheSocket, Jobs,
                                   Err))
        return false;
    return true;
  }
};

/// One round of Clients requests against \p D, each timed from connect
/// to exit frame and recorded as one build. The first client's request
/// starts a build; the other two are released once it has started, so
/// they always coalesce with each other into one no-op build behind it.
/// Releasing all three at once would leave the coalescing pattern to
/// thread-start races, and the median would jump between two modes from
/// run to run.
std::vector<Reply> requestRound(Run &R, DevTree &D, unsigned Round,
                                bool Telemetry) {
  const std::string Where = "round " + std::to_string(Round) + ": ";
  const std::string Socket = D.Daemon->socketPath();
  const unsigned Jobs = R.options().Jobs;
  std::vector<Reply> Replies(Clients);
  const double C0 = processCpuMs();
  const uint64_t Started = D.buildsStarted();
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != Clients; ++C) {
    if (C == 1 && !D.waitForBuildStart(Started))
      R.fail(Where + "the daemon never started a build");
    Threads.emplace_back([&, C] {
      Replies[C] = request(Socket, Jobs, /*RunProgram=*/false);
    });
  }
  for (std::thread &T : Threads)
    T.join();
  const double Cpu = processCpuMs() - C0;
  for (const Reply &Rep : Replies) {
    R.addBuild(Rep.Ms, Cpu / Clients, Telemetry);
    if (Rep.Code != 0)
      R.fail(Where + describe(Rep));
  }
  R.calibrate();
  return Replies;
}

/// Runs the daemon's linked program (an untimed `--run` request) and
/// compares its printed values and exit code with the reference
/// interpreter over the developer tree.
void checkOracle(Run &R, Project &P, unsigned Round, bool CostCheckpoint) {
  TraceSpan Span(&R.benchTrace(), "bench", "oracle");
  const std::string Where = "round " + std::to_string(Round) + ": ";
  ExecResult Ref;
  std::string Why;
  if (!referenceRun(*P.Dev.FS, P.Team->options().OutDir, Ref, Why)) {
    R.oracle(false, Where + Why);
    return;
  }
  Reply Rep;
  {
    TraceSpan VmSpan(&R.benchTrace(), "bench", "vm-run");
    Rep = request(P.Dev.Daemon->socketPath(), R.options().Jobs,
                  /*RunProgram=*/true);
  }
  if (Rep.Code < 0) {
    R.oracle(false, Where + describe(Rep));
    return;
  }
  // A failed build answers with an exit code too; only a successful
  // build's exit code is the program's.
  const BuildStats Built = P.Dev.Daemon->lastBuildStats();
  if (!Rep.Exit.HasStats || !Built.Success) {
    R.fail(Where + "the oracle's build failed: " + Built.ErrorText);
    return;
  }
  std::vector<int64_t> Printed;
  const char *Cur = Rep.Out.c_str();
  while (*Cur) {
    char *End = nullptr;
    const long long V = std::strtoll(Cur, &End, 10);
    if (End == Cur)
      break;
    Printed.push_back(V);
    Cur = End;
  }
  // The daemon hands the program's return value back as a process exit
  // code, so only its low eight bits can be compared.
  const int Want = static_cast<int>(Ref.ReturnValue.value_or(0) & 0xff);
  const bool Trapped = Rep.Err.find("scbuild: trap:") != std::string::npos;
  if (Ref.Trapped || Trapped || Printed != Ref.Output || Rep.Code != Want) {
    R.oracle(false, Where + "daemon program printed " +
                        std::to_string(Printed.size()) + " value(s), exit " +
                        std::to_string(Rep.Code) + "; reference printed " +
                        std::to_string(Ref.Output.size()) + ", exit " +
                        std::to_string(Want) + " " + Rep.Err);
    return;
  }
  R.oracle(true, "");
  // The daemon links exactly the objects the teammate compiled and
  // published (it compiles nothing itself), so the teammate's program
  // is the daemon's program.
  if (CostCheckpoint && P.Team->program()) {
    VM Machine(*P.Team->program());
    const ExecResult X = Machine.run();
    const uint64_t Stateless = statelessColdCost(
        *P.TeamFS, P.Team->options().OutDir, R.options().Jobs);
    if (!Stateless)
      R.fail(Where + "the cold Stateless build failed");
    else
      R.addCostCheckpoint(X, Stateless);
  }
}

/// Folds one traced round: the daemon's streamed build spans, the exit
/// frames (one non-coalesced frame per server build) and the service
/// counter deltas. Each phase span is charged to the build span that
/// contains it.
void foldRound(Run &R, unsigned Round, const std::vector<std::string> &Events,
               const std::vector<Reply> &Replies,
               const DaemonServiceStats &Before,
               const DaemonServiceStats &After) {
  const std::string Where = "round " + std::to_string(Round);
  struct ServerBuild {
    double BeginMs, Ms, PartsMs = 0;
  };
  std::vector<ServerBuild> Builds;
  std::vector<std::pair<double, double>> Phases; // (start, duration) in ms
  for (const std::string &E : Events) {
    if (stringField(E, "ph") != "X")
      continue;
    const std::string Cat = stringField(E, "cat");
    const std::string Name = stringField(E, "name");
    const double BeginMs = numberField(E, "ts") / 1e3;
    const double Ms = numberField(E, "dur") / 1e3;
    R.foldEvent(Cat, Name, Ms, argsField(E));
    if (Cat != "build")
      continue;
    if (Name == "build") {
      Builds.push_back({BeginMs, Ms});
      R.addLayerBuild();
      R.layer("build.wall_ms", Ms);
      continue;
    }
    const char *Layer = Name == "scan"                                ? "scan.ms"
                        : Name == "compile"                           ? "compile.wall_ms"
                        : Name == "link"                              ? "link.ms"
                        : Name == "stateSave" || Name == "stateLoad" ? "state.io_ms"
                                                                      : nullptr;
    if (Layer) {
      R.layer(Layer, Ms);
      Phases.emplace_back(BeginMs, Ms);
    }
  }
  std::sort(Builds.begin(), Builds.end(),
            [](const ServerBuild &A, const ServerBuild &B) {
              return A.BeginMs < B.BeginMs;
            });
  for (const auto &[BeginMs, Ms] : Phases) {
    auto In = std::find_if(Builds.begin(), Builds.end(),
                           [&](const ServerBuild &B) {
                             return B.BeginMs <= BeginMs &&
                                    BeginMs <= B.BeginMs + B.Ms;
                           });
    if (In == Builds.end())
      R.fail(Where + ": a phase span lies outside every build span");
    else
      In->PartsMs += Ms;
  }
  for (const ServerBuild &B : Builds)
    R.addUnattributed(B.Ms - B.PartsMs, Where);

  size_t ServerBuilds = 0;
  for (const Reply &Rep : Replies) {
    const DaemonFrame &X = Rep.Exit;
    const bool DidWork = X.Compiled + X.RemoteHits > 0;
    // Client latency minus the server build that answered it: the
    // first build of the round did the work, later ones were no-ops.
    if (!Builds.empty())
      R.layer("daemon.overhead_ms",
              Rep.Ms - (DidWork ? Builds.front().Ms : Builds.back().Ms));
    R.layer("daemon.requests", 1);
    if (X.Coalesced)
      continue;
    ++ServerBuilds;
    R.layer("scan.hits", static_cast<double>(X.ScanCacheHits));
    R.layer("scan.misses", static_cast<double>(X.InterfaceScans));
    R.layer("scan.dirty_tus", static_cast<double>(X.Compiled + X.RemoteHits));
    R.layer("link.objects_parsed", static_cast<double>(X.ObjectsParsed));
    R.layer("remote.hits", static_cast<double>(X.RemoteHits));
    R.layer("remote.misses", static_cast<double>(X.RemoteMisses));
    R.layer("remote.puts", static_cast<double>(X.RemotePuts));
    R.layer("remote.errors", static_cast<double>(X.RemoteErrors));
  }
  if (Builds.size() != ServerBuilds)
    R.fail(Where + ": " + std::to_string(Builds.size()) +
           " build span(s) for " + std::to_string(ServerBuilds) +
           " server build(s)");
  R.layer("daemon.coalesced",
          static_cast<double>(After.Coalesced - Before.Coalesced));
  R.layer("daemon.builds",
          static_cast<double>(After.BuildsServed - Before.BuildsServed));
  R.layer("daemon.busy",
          static_cast<double>(After.BusyRejections - Before.BusyRejections));
}

} // namespace

int runDaemonFleet(Run &R) {
  const RunOptions &O = R.options();
  const ProjectProfile Profile = profileByName("json_lib");
  // The sink outlives the recorder that streams into it.
  MemorySink Sink;
  TraceRecorder Trace(/*StartEnabled=*/false);
  MetricsRegistry Metrics;
  BuildOptions BO = benchBuildOptions(O.Jobs);
  if (O.Trace) {
    Trace.setSink(&Sink);
    BO.Compiler.Trace = &Trace;
    BO.Compiler.Metrics = &Metrics;
  }
  const std::string Root = std::string(WorkDir) + "/" + O.Workload;
  resetDir(Root);

  // Set-up, repeated: cache daemon, then for every project the
  // teammate's cold build and publish, the developer tree, its build
  // daemon and the developer's cold build.
  Fleet F;
  std::string Err;
  for (unsigned K = 0; K != Setups; ++K) {
    F.stop();
    const double T0 = nowMs();
    if (!F.start(Root + "/f" + std::to_string(K), Profile, O.Seed, BO, O.Jobs,
                 Err)) {
      R.fail("set-up failed: " + Err);
      F.stop();
      return R.finish();
    }
    R.addSetupSeconds((nowMs() - T0) / 1e3);
  }
  if (O.Trace && !F.startPlainTwins(Profile, O.Seed, O.Jobs, Err)) {
    R.fail("plain twin set-up failed: " + Err);
    F.stop();
    return R.finish();
  }
  for (Project &P : F.Projects)
    checkOracle(R, P, 0, /*CostCheckpoint=*/false);

  TraceRecorder &Bench = R.benchTrace();
  R.startClock();
  unsigned Round = 0;
  for (; R.more(Round * Clients); ++Round) {
    Project &P = F.Projects[Round % Trees];
    const std::string Where = "round " + std::to_string(Round) + ": ";
    // The teammate lands the commit first and publishes its objects.
    std::vector<std::string> TeamChanged, Changed;
    BuildStats TS;
    {
      TraceSpan Span(&Bench, "bench", "teammate");
      TeamChanged = P.TeamModel->applyCommit(P.TeamRand, *P.TeamFS);
      TS = P.Team->build();
    }
    if (!TS.Success)
      R.fail(Where + "teammate build failed: " + TS.ErrorText);
    const double E0 = nowMs();
    {
      TraceSpan Span(&Bench, "bench", "edit");
      Changed = P.Dev.Model->applyCommit(P.Dev.Rand, *P.Dev.FS);
    }
    R.addEditMs(nowMs() - E0);
    if (Changed != TeamChanged)
      R.fail(Where + "the developer and teammate edit streams diverged");

    // Only the round's own builds are traced: not the teammate's, the
    // plain twin's or the oracle's.
    Trace.setEnabled(O.Trace);
    const uint64_t Steals0 = counterValue(Metrics, "pool.steals");
    const uint64_t Park0 = counterValue(Metrics, "pool.park_wait_ns");
    const DaemonServiceStats Before = P.Dev.Daemon->serviceStats();
    std::vector<Reply> Replies;
    {
      TraceSpan Span(&Bench, "bench", "round-trips");
      Replies = requestRound(R, P.Dev, Round, O.Trace);
    }
    const DaemonServiceStats After = P.Dev.Daemon->serviceStats();
    Trace.setEnabled(false);

    uint64_t Compiled = 0, RemoteHits = 0;
    for (const Reply &Rep : Replies)
      if (!Rep.Exit.Coalesced) {
        Compiled += Rep.Exit.Compiled;
        RemoteHits += Rep.Exit.RemoteHits;
      }
    if (O.Trace) {
      foldRound(R, Round, Sink.takeNew(), Replies, Before, After);
      R.layer("pool.steals", static_cast<double>(
                                 counterValue(Metrics, "pool.steals") - Steals0));
      R.layer("pool.park_wait_ns",
              static_cast<double>(counterValue(Metrics, "pool.park_wait_ns") -
                                  Park0));
      // The plain twin takes the same commit and the same requests.
      if (P.Plain.Model->applyCommit(P.Plain.Rand, *P.Plain.FS) != Changed)
        R.fail(Where + "the plain twin's edit stream diverged");
      requestRound(R, P.Plain, Round, /*Telemetry=*/false);
    }
    // Coalescing is timing-dependent; the log keeps only what repeats:
    // the edit, the teammate's work, and the per-round totals of the
    // daemon's builds (every build is represented by one non-coalesced
    // frame).
    R.log("round " + std::to_string(Round) + " edit=" + joined(Changed) +
          " team_dirty=" + joined(TS.DirtyTUs) +
          " team_run=" + std::to_string(TS.Skip.PassesRun) +
          " team_skipped=" + std::to_string(TS.Skip.PassesSkipped) +
          " daemon_compiled=" + std::to_string(Compiled) +
          " remote_hits=" + std::to_string(RemoteHits));

    if ((Round + 1) % OracleEveryRounds == 0)
      checkOracle(R, P, Round, R.wantCostCheckpoint());
  }
  if (Round % OracleEveryRounds != 0)
    checkOracle(R, F.Projects[(Round - 1) % Trees], Round - 1,
                /*CostCheckpoint=*/false);
  R.notePeakRss();

  if (O.Trace) {
    const double Requests = R.sumOf("daemon.requests");
    R.setLayer("daemon.overhead_ms", R.sumOf("daemon.overhead_ms") / Requests);
    R.setLayer("daemon.coalesced_ratio", R.sumOf("daemon.coalesced") / Requests);
    R.setLayer("daemon.builds_per_request", R.sumOf("daemon.builds") / Requests);
    R.setLayer("daemon.busy_rejections", R.sumOf("daemon.busy"));
    for (const auto &[Name, V] : Metrics.gauges())
      if (Name == "build.state_db_bytes")
        R.setLayer("state.db_bytes", V);
    std::ofstream(Root + "/daemon-trace.json") << Sink.toJson();
  }

  return R.finish();
}

} // namespace perfbench
