//===- build_sys/Daemon.cpp - Multi-client build service -----------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "build_sys/Daemon.h"

#include "build_sys/BuildFacts.h"
#include "build_sys/Explain.h"
#include "support/FileSystem.h"
#include "support/FlatJson.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "vm/VM.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>

#include <unistd.h>

using namespace sc;

//===----------------------------------------------------------------------===//
// Wire codec: one field list per message (support/FlatJson.h).
//===----------------------------------------------------------------------===//

namespace sc {

template <> struct JsonFields<DaemonRequest> {
  template <class R, class Fn> static void walk(R &X, Fn Do) {
    Do("verb", X.Verb);
    Do("clean", X.Clean);
    Do("quiet", X.Quiet);
    Do("run", X.Run);
    Do("runArgs", X.RunArgs);
    Do("opt", X.Opt);
    Do("mode", X.Mode);
    Do("reuse", X.Reuse);
    Do("jobs", X.Jobs);
    Do("query", X.Query);
  }
};

// A frame carries its build facts when it has stats; reading any of
// them says it does.
template <> struct JsonFields<DaemonFrame> {
  template <class F, class Fn> static void walk(F &X, Fn Do) {
    constexpr JsonField S = JsonField::Sparse;
    Do("type", X.Type);
    Do("text", X.Text);
    Do("code", X.Code);
    Do("queueDepth", X.QueueDepth, S);
    Do("retryAfterMs", X.RetryAfterMs, S);
    Do("coalesced", X.Coalesced, S);
    forEachFrameFact(X, [&](auto Member, auto &V) {
      Do(buildFactOf(Member).Path, V, X.HasStats);
    });
  }
};

} // namespace sc

std::string sc::encodeRequest(const DaemonRequest &R) { return encodeJson(R); }

bool sc::decodeRequest(const std::string &Json, DaemonRequest &R) {
  return decodeJson(Json, R);
}

std::string sc::encodeFrame(const DaemonFrame &F) { return encodeJson(F); }

bool sc::decodeFrame(const std::string &Json, DaemonFrame &F) {
  return decodeJson(Json, F);
}

//===----------------------------------------------------------------------===//
// Shared output rendering
//===----------------------------------------------------------------------===//

RenderedOutcome sc::renderBuildOutcome(const BuildStats &Stats, bool Stateful,
                                       bool Quiet) {
  RenderedOutcome R;
  for (const std::string &W : Stats.Warnings)
    R.Err += "scbuild: warning: " + W + "\n";
  if (!Stats.Success) {
    R.Err += Stats.ErrorText + "\n";
    R.Code = 1;
    return R;
  }
  if (Quiet)
    return R;
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "scbuild: %u/%u files compiled in %.1f ms "
                "(scan %.1f, compile %.1f, link %.1f, state %.1f)\n",
                Stats.FilesCompiled, Stats.FilesTotal, Stats.TotalUs / 1000,
                Stats.ScanUs / 1000, Stats.CompileUs / 1000,
                Stats.LinkUs / 1000, Stats.StateIOUs / 1000);
  R.Out += Buf;
  if (Stateful) {
    std::snprintf(
        Buf, sizeof(Buf),
        "scbuild: passes run %llu, skipped %llu; "
        "functions reused %llu; state db %.1f KB\n",
        static_cast<unsigned long long>(Stats.Skip.PassesRun),
        static_cast<unsigned long long>(Stats.Skip.PassesSkipped),
        static_cast<unsigned long long>(Stats.Skip.FunctionsReused),
        Stats.StateDBBytes / 1024.0);
    R.Out += Buf;
  }
  // Only builds that exercised the remote tier mention it: a plain
  // local build's output stays byte-for-byte what it always was.
  if (Stats.RemoteHits || Stats.RemoteMisses || Stats.RemotePuts) {
    std::snprintf(
        Buf, sizeof(Buf),
        "scbuild: remote cache: %llu hit(s), %llu miss(es), %llu put(s)\n",
        static_cast<unsigned long long>(Stats.RemoteHits),
        static_cast<unsigned long long>(Stats.RemoteMisses),
        static_cast<unsigned long long>(Stats.RemotePuts));
    R.Out += Buf;
  }
  return R;
}

void sc::renderRunOutcome(RenderedOutcome &R, const ExecResult &Exec) {
  if (Exec.Trapped) {
    R.Err += "scbuild: trap: " + Exec.TrapReason + "\n";
    R.Code = 1;
    return;
  }
  char Buf[32];
  for (int64_t V : Exec.Output) {
    std::snprintf(Buf, sizeof(Buf), "%lld\n", static_cast<long long>(V));
    R.Out += Buf;
  }
  R.Code = static_cast<int>(Exec.ReturnValue.value_or(0) & 0xff);
}

//===----------------------------------------------------------------------===//
// BuildDaemon
//===----------------------------------------------------------------------===//

namespace {
/// An outcome that is only an error message and an exit code.
RenderedOutcome failure(std::string Text, int Code) {
  RenderedOutcome R;
  R.Err = std::move(Text);
  R.Code = Code;
  return R;
}

/// The metric of each BuildDaemon::Event, in enumerator order.
constexpr const char *EventMetrics[] = {
    "daemon.builds_served",    "daemon.requests_served",
    "daemon.coalesced",        "daemon.busy_rejections",
    "daemon.request_timeouts", "daemon.disconnects",
    "daemon.cancelled_on_drain"};
} // namespace

std::string sc::daemonSocketPath(const std::string &HostRoot,
                                 const std::string &OutDir) {
  return HostRoot + "/" + OutDir + "/.daemon.sock";
}

BuildDaemon::BuildDaemon(RealFileSystem &FS, DaemonConfig Config)
    : Service({"scbuildd", "daemon", Config.Build.Compiler.Metrics,
               Config.IdleTimeoutMs, Config.MetricsOut, Config.Quiet}),
      FS(FS), Config(std::move(Config)) {
  this->Config.Build.ExternalLock = true;
}

// A daemon destroyed without serve() having drained (start() failed, or
// a test tore it down early) still joins its builder and connection
// threads before their captured `this` dies. The lifetime lock
// releases in its own destructor.
BuildDaemon::~BuildDaemon() { shutdown(); }

bool BuildDaemon::start(std::string *Err) {
  const std::string LockPath = Config.Build.OutDir + "/.lock";
  // The lifetime lock. Acquiring it also creates <OutDir> (exclusive
  // create makes parent directories), so the socket bind below has a
  // directory to land in.
  Lock = FileLock::acquire(FS, LockPath, Config.Build.LockTimeoutMs,
                           Config.Build.LockBackoffMs, "daemon");
  if (!Lock.held()) {
    if (Err) {
      *Err = "could not acquire '" + LockPath + "'";
      if (auto Owner = FileLock::probe(FS, LockPath); Owner && Owner->Alive)
        *Err += Owner->Tag == "daemon"
                    ? " — a daemon (pid " + std::to_string(Owner->Pid) +
                          ") already serves this tree"
                    : " — held by live process " + std::to_string(Owner->Pid);
    }
    return false;
  }
  // Holding the lock proves no live daemon owns this tree, so a
  // leftover socket file is debris from a dead one, which listen()
  // removes.
  if (!listen(daemonSocketPath(FS.root(), Config.Build.OutDir), Err)) {
    Lock = FileLock();
    return false;
  }
  Driver = std::make_unique<BuildDriver>(FS, Config.Build);
  chat("scbuildd: pid %ld serving '%s' (socket %s)\n",
       static_cast<long>(::getpid()), FS.root().c_str(),
       socketPath().c_str());
  return true;
}

int BuildDaemon::serve() {
  Builder = std::thread([this] { builderMain(); });
  const int Code = run();
  // The last spans hit disk before the lock releases, and the registry
  // (read by --report-json) shows the drained state.
  if (TraceRecorder *T = Config.Build.Compiler.Trace)
    T->flush();
  publishGauges();
  return Code;
}

void BuildDaemon::drain() {
  // Queued (not yet started) builds are cancelled deterministically:
  // each waiter gets a clean err + exit(5) frame pair, never a dropped
  // connection.
  {
    std::lock_guard<std::mutex> L(Mu);
    Draining = true;
    size_t Cancelled = 0;
    for (auto &Job : Queue) {
      Cancelled += Job->Waiters.size();
      cancelJob(*Job, 5,
                "scbuild: error: daemon is shutting down; queued build "
                "cancelled\n");
    }
    Queue.clear();
    if (Cancelled) {
      countEvent(Event::CancelledOnDrain, Cancelled);
      chat("scbuildd: drain cancelled %zu queued request(s)\n", Cancelled);
    }
  }
  JobsCV.notify_all();
  DoneCV.notify_all();
  // The in-flight build (if any) runs to completion and fans out; the
  // builder then sees Draining and exits.
  if (Builder.joinable())
    Builder.join();
}

DaemonServiceStats BuildDaemon::serviceStats() const {
  DaemonServiceStats S;
  S.BuildsServed = count(Event::BuildsServed);
  S.RequestsServed = count(Event::RequestsServed);
  S.Coalesced = count(Event::Coalesced);
  S.BusyRejections = count(Event::BusyRejections);
  S.RequestTimeouts = count(Event::RequestTimeouts);
  S.Disconnects = count(Event::Disconnects);
  S.CancelledOnDrain = count(Event::CancelledOnDrain);
  S.QueueHighWater = QueueHighWater.load();
  S.ActiveConnections = activeConnections();
  {
    std::lock_guard<std::mutex> L(Mu);
    S.QueueDepth = static_cast<uint32_t>(Queue.size());
  }
  return S;
}

void BuildDaemon::countEvent(Event E, uint64_t N) {
  static_assert(std::size(EventMetrics) ==
                static_cast<size_t>(Event::NumEvents));
  Events[static_cast<size_t>(E)].fetch_add(N);
  if (MetricsRegistry *M = Config.Build.Compiler.Metrics)
    M->counter(EventMetrics[static_cast<size_t>(E)]).add(N);
}

BuildStats BuildDaemon::lastBuildStats() const {
  std::lock_guard<std::mutex> L(Mu);
  return LastStats;
}

void BuildDaemon::publishGauges() {
  MetricsRegistry *M = Config.Build.Compiler.Metrics;
  if (!M)
    return;
  uint32_t Depth;
  {
    std::lock_guard<std::mutex> L(Mu);
    Depth = static_cast<uint32_t>(Queue.size());
  }
  M->gauge("daemon.queue_depth").set(Depth);
  M->gauge("daemon.queue_high_water").max(QueueHighWater.load());
  M->gauge("daemon.connections_active").set(activeConnections());
}

std::string BuildDaemon::metricsText() {
  MetricsRegistry *M = Config.Build.Compiler.Metrics;
  if (!M)
    return "# scbuildd: no metrics registry configured\n";
  // Gauges are refreshed at render time, never reported from their
  // last publish: a queue that drained since the last build must read
  // as drained (see the status verb, which follows the same rule).
  publishGauges();
  return MetricsTextExporter::render(*M);
}

std::string BuildDaemon::statusText() const {
  DaemonServiceStats S = serviceStats();
  std::string T = "scbuildd: pid " + std::to_string(::getpid()) +
                  " serving '" + FS.root() + "', builds served " +
                  std::to_string(S.BuildsServed) + "\n";
  T += "scbuildd: service: requests " + std::to_string(S.RequestsServed) +
       ", active connections " + std::to_string(S.ActiveConnections) +
       ", queue depth " + std::to_string(S.QueueDepth) + " (high water " +
       std::to_string(S.QueueHighWater) + ")\n";
  T += "scbuildd: service: coalesced " + std::to_string(S.Coalesced) +
       ", busy rejections " + std::to_string(S.BusyRejections) +
       ", request timeouts " + std::to_string(S.RequestTimeouts) +
       ", disconnects " + std::to_string(S.Disconnects) + "\n";
  DaemonFrame Last;
  {
    std::lock_guard<std::mutex> L(Mu);
    Last = LastExit;
  }
  if (Last.HasStats) {
    T += "scbuildd: last build: compiled " + std::to_string(Last.Compiled) +
         "/" + std::to_string(Last.Total) + ", interface scans " +
         std::to_string(Last.InterfaceScans) + " (cache hits " +
         std::to_string(Last.ScanCacheHits) + "), objects parsed " +
         std::to_string(Last.ObjectsParsed) + "\n";
    if (Last.RemoteHits || Last.RemoteMisses || Last.RemotePuts ||
        Last.RemoteErrors)
      T += "scbuildd: last build remote cache: hits " +
           std::to_string(Last.RemoteHits) + ", misses " +
           std::to_string(Last.RemoteMisses) + ", puts " +
           std::to_string(Last.RemotePuts) + ", errors " +
           std::to_string(Last.RemoteErrors) + "\n";
  }
  return T;
}

//===----------------------------------------------------------------------===//
// Builder thread: the only code that touches the resident driver.
//===----------------------------------------------------------------------===//

void BuildDaemon::cancelJob(BuildJob &Job, int Code, const std::string &Text) {
  // Caller holds Mu. The job is (being removed) from the queue; its
  // waiters wake on DoneCV and stream the cancellation frame pair.
  Job.Cancelled = true;
  Job.CancelCode = Code;
  Job.CancelText = Text;
  Job.Done = true;
}

void BuildDaemon::runJob(const std::shared_ptr<BuildJob> &Job) {
  // The job left the queue before this call, so its waiter list is
  // frozen (coalescing only joins *queued* jobs) — safe to read
  // without Mu.
  if (Config.HoldMs)
    std::this_thread::sleep_for(std::chrono::milliseconds(Config.HoldMs));
  if (Config.PreBuildHook)
    Config.PreBuildHook();

  if (Job->Clean)
    Driver->clean();
  BuildStats Stats = Driver->build();
  countEvent(Event::BuildsServed);
  countEvent(Event::RequestsServed, Job->Waiters.size());

  const bool Stateful = Config.Build.Compiler.Stateful.SkipMode !=
                        StatefulConfig::Mode::Stateless;
  DaemonFrame X;
  X.HasStats = true;
  forEachFrameFact(X, [&](auto Member, auto &V) { V = Stats.*Member; });

  // One compile wave fans out to every waiter. Waiters may differ in
  // Quiet/Run/RunArgs — those shape rendering, not the build — so each
  // gets its own rendered outcome from the same BuildStats.
  Job->Outcomes.resize(Job->Waiters.size());
  Job->ExitFrames.resize(Job->Waiters.size());
  for (size_t I = 0; I != Job->Waiters.size(); ++I) {
    const DaemonRequest &Req = Job->Waiters[I];
    RenderedOutcome R = renderBuildOutcome(Stats, Stateful, Req.Quiet);
    if (Stats.Success && Req.Run) {
      VM Machine(*Driver->program());
      renderRunOutcome(R, Machine.run("main", Req.RunArgs));
    }
    DaemonFrame Exit = X;
    Exit.Code = R.Code;
    Exit.Coalesced = I > 0;
    Job->Outcomes[I] = std::move(R);
    Job->ExitFrames[I] = Exit;
  }

  // With a streaming sink attached (scbuildd --trace-stream), push this
  // build's spans out now — the trace stays live and readable while the
  // daemon keeps running. A sinkless recorder (kept for the history
  // ledger's span aggregates) is cleared instead: the build already
  // folded its spans into the history record, and letting rings wrap
  // across builds would miscount later builds' drops.
  if (TraceRecorder *T = Config.Build.Compiler.Trace)
    if (T->flush() == 0)
      T->clear();

  {
    std::lock_guard<std::mutex> L(Mu);
    LastExit = X;
    LastStats = Stats;
    Job->Done = true;
  }
  DoneCV.notify_all();
}

void BuildDaemon::builderMain() {
  for (;;) {
    std::shared_ptr<BuildJob> Job;
    {
      std::unique_lock<std::mutex> L(Mu);
      JobsCV.wait(L, [&] { return !Queue.empty() || Draining || stopping(); });
      // Once a stop is requested, no *new* build starts — whatever is
      // still queued belongs to the drain, which answers every waiter
      // with a deterministic cancellation frame. (The build we may
      // have just finished was the "in-flight" one the drain lets
      // complete.)
      if (Draining || stopping())
        return;
      if (Queue.empty())
        continue;
      Job = Queue.front();
      Queue.pop_front();
      // Dequeue-time deadline check: the waiters' own wait_until
      // usually fires first, but a wakeup race can leave an expired
      // job at the head of the queue.
      if (Config.RequestTimeoutMs && !Job->Cancelled &&
          std::chrono::steady_clock::now() - Job->EnqueuedAt >
              std::chrono::milliseconds(Config.RequestTimeoutMs)) {
        countEvent(Event::RequestTimeouts, Job->Waiters.size());
        cancelJob(*Job, 4,
                  "scbuild: error: build request timed out in the daemon "
                  "queue\n");
        L.unlock();
        DoneCV.notify_all();
        publishGauges();
        continue;
      }
      if (Job->Cancelled) {
        // A waiter-side timeout or drain beat us to it; waiters are
        // already being answered.
        continue;
      }
    }
    publishGauges();
    runJob(Job);
  }
}

//===----------------------------------------------------------------------===//
// Connection threads
//===----------------------------------------------------------------------===//

bool BuildDaemon::sendOutcome(UnixSocket &Conn, const RenderedOutcome &R,
                              DaemonFrame Exit) {
  auto SendText = [&](const char *Type, const std::string &Text) {
    DaemonFrame F;
    F.Type = Type;
    F.Text = Text;
    return Text.empty() || send(Conn, encodeFrame(F));
  };
  Exit.Code = R.Code;
  return SendText("err", R.Err) && SendText("out", R.Out) &&
         send(Conn, encodeFrame(Exit));
}

void BuildDaemon::handleBuildRequest(UnixSocket &Conn,
                                     const DaemonRequest &Req) {
  const CompilerOptions &CO = Config.Build.Compiler;
  if (Req.Opt != static_cast<int>(CO.Opt) ||
      Req.Mode != static_cast<int>(CO.Stateful.SkipMode) ||
      Req.Reuse != CO.Stateful.ReuseFunctionCode) {
    // The resident caches are only valid for the daemon's own
    // configuration; silently building with ours would not be the
    // build the user asked for. (A -j mismatch is fine: concurrency
    // never changes outputs.)
    sendOutcome(Conn,
                failure("scbuild: error: daemon (pid " +
                            std::to_string(::getpid()) +
                            ") was started with a different compiler "
                            "configuration; restart it with the flags you "
                            "want, or drop --daemon\n",
                        1));
    return;
  }

  // Admission: coalesce with a pending identical build, or queue a new
  // job, or bounce with a structured busy frame.
  std::shared_ptr<BuildJob> Job;
  size_t WaiterIdx = 0;
  {
    std::unique_lock<std::mutex> L(Mu);
    if (Draining || stopping()) {
      L.unlock();
      sendOutcome(Conn, failure("scbuild: error: daemon is shutting down; "
                                "build not started\n",
                                5));
      return;
    }
    // Coalescing key: everything that shapes the driver's work. Opt,
    // Mode, and Reuse already match the daemon config (checked above),
    // so only Clean distinguishes two pending builds. A job already
    // *started* is never joined — it may have read files an
    // intervening edit since changed; the new request must get its own
    // wave. Queued-but-not-started jobs will observe the same
    // workspace state as this request, so sharing is sound.
    for (auto &Pending : Queue) {
      if (!Pending->Cancelled && Pending->Clean == Req.Clean) {
        Job = Pending;
        WaiterIdx = Job->Waiters.size();
        Job->Waiters.push_back(Req);
        countEvent(Event::Coalesced);
        break;
      }
    }
    if (!Job) {
      if (Queue.size() >= Config.MaxQueue) {
        const uint32_t Depth = static_cast<uint32_t>(Queue.size());
        L.unlock();
        countEvent(Event::BusyRejections);
        DaemonFrame B;
        B.Type = "busy";
        B.Code = 3;
        B.QueueDepth = Depth;
        // Suggested backoff: roughly one queued build's service time
        // per position, floored so a zero-hold daemon still spreads
        // retries out.
        B.RetryAfterMs = (Depth + 1) * std::max(Config.HoldMs, 25u);
        send(Conn, encodeFrame(B));
        return;
      }
      Job = std::make_shared<BuildJob>();
      Job->Clean = Req.Clean;
      Job->Waiters.push_back(Req);
      Job->EnqueuedAt = std::chrono::steady_clock::now();
      Queue.push_back(Job);
      const uint32_t Depth = static_cast<uint32_t>(Queue.size());
      uint32_t HW = QueueHighWater.load();
      while (Depth > HW && !QueueHighWater.compare_exchange_weak(HW, Depth))
        ;
    }
  }
  JobsCV.notify_one();
  publishGauges();

  // Wait for the builder to finish (or cancel) the wave. The request
  // deadline applies only while the job is *queued*: once the build
  // starts it runs to completion (its artifacts are wanted regardless).
  {
    std::unique_lock<std::mutex> L(Mu);
    if (Config.RequestTimeoutMs) {
      const auto Deadline =
          Job->EnqueuedAt + std::chrono::milliseconds(Config.RequestTimeoutMs);
      while (!Job->Done) {
        if (DoneCV.wait_until(L, Deadline) == std::cv_status::timeout &&
            !Job->Done) {
          auto It = std::find(Queue.begin(), Queue.end(), Job);
          if (It != Queue.end()) {
            // Still queued past the deadline: cancel the whole wave
            // (every waiter shares the enqueue time).
            Queue.erase(It);
            countEvent(Event::RequestTimeouts, Job->Waiters.size());
            cancelJob(*Job, 4,
                      "scbuild: error: build request timed out in the daemon "
                      "queue\n");
            DoneCV.notify_all();
          }
          // Started but not Done: keep waiting without a deadline.
          while (!Job->Done)
            DoneCV.wait(L);
        }
      }
    } else {
      DoneCV.wait(L, [&] { return Job->Done; });
    }
  }
  publishGauges();

  if (Job->Cancelled) {
    if (!sendOutcome(Conn, failure(Job->CancelText, Job->CancelCode)))
      countEvent(Event::Disconnects);
    return;
  }
  if (!sendOutcome(Conn, Job->Outcomes[WaiterIdx],
                   Job->ExitFrames[WaiterIdx])) {
    // The client died while its build ran. The build itself completed
    // and its artifacts/state persist — only this fan-out is lost.
    countEvent(Event::Disconnects);
    chat("scbuildd: client disconnected before its result was delivered\n");
  }
}

void BuildDaemon::serveConnection(UnixSocket &Conn) {
  // One request per connection; it is in flight from accept to its
  // last frame, queue wait included.
  RequestScope InFlight(*this);
  publishGauges();
  std::string Payload;
  if (!nextFrame(Conn, Payload, IoTimeoutMs))
    return; // Client vanished or stalled; drop the connection.
  DaemonRequest Req;
  if (!decodeRequest(Payload, Req)) {
    sendOutcome(Conn,
                failure("scbuild: error: daemon received a malformed "
                        "request\n",
                        2));
    return;
  }

  RenderedOutcome R;
  if (Req.Verb == "build") {
    handleBuildRequest(Conn, Req);
    return;
  }
  if (Req.Verb == "status") {
    // Refresh the registry gauges at frame-render time: the queue may
    // have drained (or filled) since the last build published them,
    // and a status snapshot must describe now, not then.
    publishGauges();
    R.Out = statusText();
  } else if (Req.Verb == "metrics") {
    R.Out = metricsText();
  } else if (Req.Verb == "explain") {
    bool OK = false;
    std::string Text = explainQuery(FS, Config.Build.OutDir, Req.Query, &OK);
    if (OK)
      R.Out = std::move(Text);
    else
      R = failure(std::move(Text), 1);
  } else if (Req.Verb == "shutdown") {
    sendOutcome(Conn, R);
    chat("scbuildd: shutdown requested, draining\n");
    requestStop();
    return;
  } else {
    R = failure("scbuild: error: daemon does not understand verb '" +
                    Req.Verb + "'\n",
                2);
  }
  sendOutcome(Conn, R);
}
