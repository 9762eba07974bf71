//===- build_sys/BuildDriver.cpp - Incremental build orchestration -------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// build() = scan -> import DAG -> dirty set -> parallel compile ->
/// link -> persist. See BuildSystem.h for the phase-by-phase contract.
///
//===----------------------------------------------------------------------===//

#include "build_sys/BuildSystem.h"

#include "build_sys/DepVerifier.h"

#include "build_sys/DependencyScanner.h"
#include "build_sys/Explain.h"
#include "build_sys/History.h"
#include "build_sys/ImportGraph.h"
#include "build_sys/Manifest.h"
#include "build_sys/ObjectCache.h"
#include "build_sys/Scheduler.h"
#include "cache_sys/RemoteCacheClient.h"
#include "codegen/ObjectFile.h"
#include "support/AtomicFile.h"
#include "support/ContentionStats.h"
#include "support/FileLock.h"
#include "support/Hashing.h"
#include "support/Metrics.h"
#include "support/SamplingProfiler.h"
#include "support/TaskPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>
#include <tuple>
#include <utility>

using namespace sc;

namespace {

bool isSourcePath(const std::string &Path, const std::string &OutDir) {
  if (Path.size() < 3 || Path.compare(Path.size() - 3, 3, ".mc") != 0)
    return false;
  return Path.compare(0, OutDir.size() + 1, OutDir + "/") != 0;
}

void addSkipStats(StatefulStats &Sum, const StatefulStats &S) {
  Sum.PassesRun += S.PassesRun;
  Sum.PassesSkipped += S.PassesSkipped;
  Sum.FunctionsMatched += S.FunctionsMatched;
  Sum.FunctionsRefreshed += S.FunctionsRefreshed;
  Sum.FunctionsReused += S.FunctionsReused;
}

/// Appends a persistence warning, with the filesystem's error detail
/// (errno text or injected fault) when it has one.
void warn(BuildStats &S, VirtualFileSystem &FS, std::string Text) {
  std::string Err = FS.lastError();
  if (!Err.empty())
    Text += " (" + Err + ")";
  S.Warnings.push_back(std::move(Text));
}

} // namespace

namespace sc {

class BuildDriverImpl {
public:
  BuildDriverImpl(VirtualFileSystem &FS, BuildOptions Options)
      : FS(FS), Options(std::move(Options)),
        Objects(FS, this->Options.OutDir),
        Pool(std::make_unique<TaskPool>(std::max(1u, this->Options.Jobs))) {}

  BuildStats build();
  void clean();

  const MModule *program() const {
    return Program ? &*Program : nullptr;
  }
  const BuildStateDB &stateDB() const { return DB; }
  const BuildOptions &options() const { return Opts(); }

private:
  const BuildOptions &Opts() const { return Options; }

  bool stateful() const {
    return Options.Compiler.Stateful.SkipMode !=
           StatefulConfig::Mode::Stateless;
  }

  std::string statePath() const { return Options.OutDir + "/state.db"; }
  std::string manifestPath() const {
    return Options.OutDir + "/manifest.bin";
  }
  std::string lockPath() const { return Options.OutDir + "/.lock"; }
  std::string decisionsPath() const {
    return Options.OutDir + "/decisions.bin";
  }
  std::string historyPath() const {
    return Options.OutDir + "/history.jsonl";
  }

  TraceRecorder *trace() const { return Options.Compiler.Trace; }
  bool tracing() const { return trace() && trace()->enabled(); }

  /// Mirrors the finished BuildStats into the metrics registry (the
  /// machine-readable face of the same numbers). Counters accumulate
  /// across the driver's builds; gauges describe the latest one.
  void publishMetrics(const BuildStats &S);

  /// Appends this build's record to the history ledger
  /// (build_sys/History.h). Runs on every exit path — success,
  /// failure, and read-only degrade alike: history is observation
  /// data, not build state, so a read-only build may still record
  /// itself (worst case it loses a ledger race against the lock
  /// owner's append; rename atomicity keeps the file well-formed).
  /// Any ledger failure costs one warning, never the build.
  void appendHistory(BuildStats &S, uint64_t BuildStartNs);

  /// Objects compiled under a different optimization level or compiler
  /// version must not be trusted; this hash is recorded per manifest
  /// entry. Skip *policy* is deliberately excluded — all policies are
  /// semantically interchangeable, like real incremental builds that
  /// mix objects from differently-warmed compiler runs.
  uint64_t configHash() const {
    HashBuilder H;
    H.addU32(static_cast<uint32_t>(Options.Compiler.Opt));
    H.addU32(Options.Compiler.CompilerVersion);
    return H.digest();
  }

  /// Writes the manifest (always) and the state DB (stateful only);
  /// called on every exit path so even failed builds leave their
  /// completed work persisted. Write failures surface as warnings on
  /// \p S, never as build failures; read-only builds skip all writes.
  /// Returns the state DB size. Timed as the stateSave span, charged
  /// to S.StateIOUs.
  uint64_t persist(BuildStats &S);

  /// Runs stateLoad, scan, compile, remote sync, link, dependency
  /// verification and persist, each phase a timed scope that charges
  /// its BuildStats field. Returns at the first failing phase with
  /// S.ErrorText set; every scope has closed by then.
  void runPhases(BuildStats &S);

  VirtualFileSystem &FS;
  BuildOptions Options;

  BuildStateDB DB;
  DependencyScanner Scanner;
  BuildManifest Manifest;
  ObjectCache Objects;
  std::optional<MModule> Program;

  /// One work-stealing pool per driver, sized by Options.Jobs and
  /// shared by both parallelism levels: TU-level compile jobs and the
  /// intra-TU function-pass tasks they fan out.
  std::unique_ptr<TaskPool> Pool;

  /// Per-driver memo of pre-optimization fingerprints (see
  /// FingerprintMemo); avoids re-hashing functions of TUs recompiled
  /// only because a dependency's implementation changed.
  FingerprintMemo FPMemo;

  /// Lock-contention and pool-scheduling counters sampled at build()
  /// entry; publishMetrics() publishes the per-build DELTAS as lock.*
  /// and pool.* metrics (the counters themselves are cumulative — the
  /// contention ones process-wide, the pool ones per driver).
  struct HotPathSnapshots {
    ContentionSnapshot Constants, SharedUsers, Stateful, FPMemo, StateDB,
        Analysis;
    TaskPoolStats Pool;
  };
  HotPathSnapshots BuildStartSnap;

  HotPathSnapshots captureHotPathSnapshots() const {
    HotPathSnapshots Snap;
    Snap.Constants = snapshot(constantUniquingContention());
    Snap.SharedUsers = snapshot(sharedUseContention());
    Snap.Stateful = snapshot(statefulPolicyContention());
    Snap.FPMemo = snapshot(fingerprintMemoContention());
    Snap.StateDB = snapshot(stateDBContention());
    Snap.Analysis = snapshot(analysisSlotContention());
    Snap.Pool = Pool->stats();
    return Snap;
  }

  /// Persisted state is loaded once per driver; later builds trust the
  /// in-memory copies and only write.
  bool PersistentLoaded = false;

  /// Set per build() call: true when the advisory lock could not be
  /// acquired and this build must not write anything.
  bool ReadOnlyBuild = false;

  /// Decision logs of the TUs this build recompiled (only populated
  /// when Options.Compiler.RecordDecisions); persist() writes them to
  /// decisions.bin wholesale, giving the file last-build semantics.
  std::vector<std::pair<std::string, TUDecisionLog>> PendingDecisions;

  //===--- Remote object-cache tier ---------------------------------------===//

  /// The input key naming what a TU's object deterministically depends
  /// on — the `act` key under which sccached maps these inputs to an
  /// object digest. Content + effective imports + config is exactly
  /// the dirty test's identity, so "remote hit" and "would not have
  /// recompiled locally" agree about what the object is.
  uint64_t inputKey(uint64_t ContentHash, uint64_t ImportsEffectiveHash,
                    uint64_t Config) const {
    HashBuilder H;
    H.addU64(ContentHash);
    H.addU64(ImportsEffectiveHash);
    H.addU64(Config);
    return H.digest();
  }

  /// Returns the usable remote client, connecting on first use; null
  /// when the tier is off or has degraded. Degradation is for the
  /// driver's lifetime and warns exactly once.
  RemoteCacheClient *remote(BuildStats &S);
  void degradeRemote(BuildStats &S, const std::string &Why);

  std::unique_ptr<RemoteCacheClient> Remote;
  bool RemoteTried = false;    ///< connect() attempted (success or not).
  bool RemoteDisabled = false; ///< Tier off for this driver's lifetime.
};

} // namespace sc

uint64_t BuildDriverImpl::persist(BuildStats &S) {
  TraceSpan Save(trace(), "build", "stateSave", &S.StateIOUs);
  // Nothing may be written; report the in-memory state size.
  if (ReadOnlyBuild)
    return stateful() ? DB.sizeBytes() : 0;
  uint64_t StateBytes = 0;
  if (!Manifest.saveToFile(FS, manifestPath()))
    warn(S, FS,
         "failed to persist '" + manifestPath() +
             "'; the next build recomputes its dirty set from scratch");
  if (stateful()) {
    std::string Bytes = DB.serialize();
    StateBytes = Bytes.size();
    if (!atomicWriteFile(FS, statePath(), Bytes))
      warn(S, FS,
           "failed to persist '" + statePath() +
               "'; the next build starts with cold compiler state");
  }
  if (Options.Compiler.RecordDecisions && stateful()) {
    if (!atomicWriteFile(FS, decisionsPath(),
                         serializeDecisions(PendingDecisions)))
      warn(S, FS,
           "failed to persist '" + decisionsPath() +
               "'; `scbuild --explain` will describe an older build");
  }
  if (!Objects.allStoresPersisted())
    warn(S, FS,
         "one or more object files could not be written under '" +
             Options.OutDir + "'; affected TUs recompile next build");
  return StateBytes;
}

RemoteCacheClient *BuildDriverImpl::remote(BuildStats &S) {
  if (Options.RemoteCache.empty() || RemoteDisabled)
    return nullptr;
  if (!RemoteTried) {
    RemoteTried = true;
    std::string Err;
    Remote = RemoteCacheClient::connect(Options.RemoteCache, &Err);
    if (!Remote) {
      degradeRemote(S, "could not connect" + (Err.empty() ? "" : ": " + Err));
      return nullptr;
    }
  }
  if (Remote && Remote->failed()) {
    // A mid-build failure latched in the client; fold it into the
    // driver-lifetime degrade if a caller sees it before we did.
    degradeRemote(S, "connection failed");
    return nullptr;
  }
  return Remote.get();
}

void BuildDriverImpl::degradeRemote(BuildStats &S, const std::string &Why) {
  if (RemoteDisabled)
    return;
  RemoteDisabled = true;
  Remote.reset();
  ++S.RemoteErrors;
  S.Warnings.push_back("remote cache '" + Options.RemoteCache +
                       "' is unavailable (" + Why +
                       "); continuing local-only");
  if (tracing())
    trace()->instant("remote", "degrade", "{\"reason\":\"" + Why + "\"}");
}

void BuildDriverImpl::publishMetrics(const BuildStats &S) {
  MetricsRegistry *M = Options.Compiler.Metrics;
  if (!M)
    return;
  M->counter("build.builds").add(1);
  M->counter("build.files_compiled").add(S.FilesCompiled);
  M->counter("build.passes_run").add(S.Skip.PassesRun);
  M->counter("build.passes_skipped").add(S.Skip.PassesSkipped);
  M->counter("build.functions_reused").add(S.Skip.FunctionsReused);
  M->counter("build.state_tus_salvaged").add(S.StateTUsSalvaged);
  M->counter("build.state_tus_dropped").add(S.StateTUsDropped);
  M->counter("build.interface_scans").add(S.InterfaceScans);
  M->counter("build.scan_cache_hits").add(S.ScanCacheHits);
  M->counter("build.objects_parsed").add(S.ObjectsParsed);
  M->counter("build.temp_files_swept").add(S.TempFilesSwept);
  M->counter("build.remote_hits").add(S.RemoteHits);
  M->counter("build.remote_misses").add(S.RemoteMisses);
  M->counter("build.remote_puts").add(S.RemotePuts);
  M->counter("build.remote_errors").add(S.RemoteErrors);
  M->counter("build.warnings").add(S.Warnings.size());
  if (Options.VerifyDeps) {
    // Registered only when the verifier runs, so builds without it
    // keep their metrics page (and the tests over it) unchanged.
    M->counter("build.deps_tus_checked").add(S.DepsTUsChecked);
    M->counter("build.deps_missing").add(S.DepsMissing);
    M->counter("build.deps_redundant").add(S.DepsRedundant);
  }
  M->gauge("build.files_total").set(S.FilesTotal);
  M->gauge("build.scan_us").set(S.ScanUs);
  M->gauge("build.compile_us").set(S.CompileUs);
  M->gauge("build.link_us").set(S.LinkUs);
  M->gauge("build.state_io_us").set(S.StateIOUs);
  M->gauge("build.total_us").set(S.TotalUs);
  M->gauge("build.state_db_bytes").set(static_cast<double>(S.StateDBBytes));
  M->gauge("build.object_bytes").set(static_cast<double>(S.ObjectBytes));

  // Lock-wait and pool-scheduling deltas for this build: contention on
  // the compiler's shared structures as first-class, regression-
  // trackable numbers (docs/OBSERVABILITY.md "Lock-wait metrics").
  const HotPathSnapshots Now = captureHotPathSnapshots();
  auto PublishLock = [&](const char *Family, const ContentionSnapshot &Before,
                         const ContentionSnapshot &After) {
    std::string P = std::string("lock.") + Family;
    M->counter(P + ".acquisitions").add(After.Acquisitions -
                                        Before.Acquisitions);
    M->counter(P + ".contended").add(After.Contended - Before.Contended);
    M->counter(P + ".wait_ns").add(After.WaitNs - Before.WaitNs);
  };
  PublishLock("constants", BuildStartSnap.Constants, Now.Constants);
  PublishLock("shared_users", BuildStartSnap.SharedUsers, Now.SharedUsers);
  PublishLock("statefulpolicy", BuildStartSnap.Stateful, Now.Stateful);
  PublishLock("fpmemo", BuildStartSnap.FPMemo, Now.FPMemo);
  PublishLock("statedb", BuildStartSnap.StateDB, Now.StateDB);
  PublishLock("analysis_slots", BuildStartSnap.Analysis, Now.Analysis);
  const TaskPoolStats &P0 = BuildStartSnap.Pool;
  const TaskPoolStats &P1 = Now.Pool;
  M->counter("pool.tasks_executed").add(P1.TasksExecuted - P0.TasksExecuted);
  M->counter("pool.steal_attempts").add(P1.StealAttempts - P0.StealAttempts);
  M->counter("pool.steals").add(P1.Steals - P0.Steals);
  M->counter("pool.helped_tasks").add(P1.HelpedTasks - P0.HelpedTasks);
  M->counter("pool.spin_iterations").add(P1.SpinIterations -
                                         P0.SpinIterations);
  M->counter("pool.parks").add(P1.Parks - P0.Parks);
  M->counter("pool.park_wait_ns").add(P1.ParkWaitNs - P0.ParkWaitNs);
  M->counter("build.trace_events_dropped").add(S.TraceEventsDropped);
}

void BuildDriverImpl::appendHistory(BuildStats &S, uint64_t BuildStartNs) {
  if (Options.HistoryLimit == 0)
    return;
  const uint64_t UnixMs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  std::vector<TraceEvent> Events;
  if (tracing())
    Events = trace()->snapshot();
  HistoryRecord R = makeHistoryRecord(S, Options.Compiler.Metrics, Events,
                                      BuildStartNs, UnixMs);
  uint64_t Skipped = 0;
  if (BuildHistory::append(FS, historyPath(), R, Options.HistoryLimit,
                           &Skipped))
    S.BuildId = R.BuildId;
  else
    warn(S, FS,
         "failed to append build record to '" + historyPath() +
             "'; cross-build history loses this build");
  S.HistoryRecordsSkipped = Skipped;
  if (Skipped)
    warn(S, FS,
         "skipped " + std::to_string(Skipped) + " damaged record(s) in '" +
             historyPath() +
             "' (torn by an earlier crash); surviving records were kept");
  if (MetricsRegistry *M = Options.Compiler.Metrics) {
    M->counter("build.history_appends").add(S.BuildId ? 1 : 0);
    M->counter("build.history_records_skipped").add(Skipped);
  }
}

BuildStats BuildDriverImpl::build() {
  BuildStats S;
  BuildStartSnap = captureHotPathSnapshots();

  // Wall-time sampling overlay: started per build so its aggregates
  // land inside this build's trace window (and history record). It
  // must start before BuildSpan below is constructed — TraceSpan only
  // pushes its sampling frame when sampling is already on, and the
  // "build" frame is what roots the main thread's sampled stacks.
  const uint64_t TraceDropped0 = tracing() ? trace()->droppedEvents() : 0;
  std::unique_ptr<SamplingProfiler> Profiler;
  if (Options.ProfileSampleHz && tracing()) {
    Profiler =
        std::make_unique<SamplingProfiler>(*trace(), Options.ProfileSampleHz);
    Profiler->start();
  }

  TraceSpan BuildSpan(trace(), "build", "build");
  PendingDecisions.clear();

  // Advisory lock: one writing build per state directory. On timeout
  // degrade to a read-only build — correct output, nothing persisted —
  // rather than interleave writes with the other process. A provably
  // dead owner's stale lock is reclaimed inside acquire(). A lock held
  // by a *live daemon* is recognized up front: the daemon keeps the
  // lock for its whole lifetime, so waiting out the timeout would be
  // pointless — degrade immediately with a diagnostic that names the
  // daemon and the way in. When the caller itself is the daemon
  // (ExternalLock), the lock is already held above this call.
  FileLock Lock;
  bool DaemonOwned = false;
  long DaemonPid = 0;
  if (!Options.ExternalLock) {
    if (auto Owner = FileLock::probe(FS, lockPath());
        Owner && Owner->Alive && Owner->Tag == "daemon") {
      DaemonOwned = true;
      DaemonPid = Owner->Pid;
    }
    if (!DaemonOwned) {
      TraceSpan LockSpan(trace(), "build", "lock");
      Lock = FileLock::acquire(FS, lockPath(), Options.LockTimeoutMs,
                               Options.LockBackoffMs);
      if (tracing())
        LockSpan.args(std::string("{\"held\":") +
                      (Lock.held() ? "true" : "false") + ",\"reclaimed\":" +
                      (Lock.reclaimedStale() ? "true" : "false") + "}");
    }
  }
  ReadOnlyBuild = !Options.ExternalLock && !Lock.held();
  S.ReadOnly = ReadOnlyBuild;
  if (DaemonOwned)
    S.Warnings.push_back(
        "the build daemon (pid " + std::to_string(DaemonPid) + ") owns '" +
        lockPath() +
        "'; running read-only — build through it with `scbuild --daemon`, "
        "or stop it with `scbuild --daemon-shutdown`");
  else if (ReadOnlyBuild)
    S.Warnings.push_back(
        "another build holds '" + lockPath() +
        "'; running read-only (nothing will be persisted; delete the "
        "lock file if its owner is gone)");
  else if (Lock.reclaimedStale()) {
    S.Warnings.push_back(
        "reclaimed stale lock '" + lockPath() + "' left by dead process " +
        std::to_string(Lock.reclaimedPid()) +
        " (its build did not exit cleanly; artifacts were already "
        "integrity-checked on load)");
    if (tracing())
      trace()->instant("build", "lockReclaimed",
                       "{\"pid\":" + std::to_string(Lock.reclaimedPid()) +
                           "}");
  }
  Objects.setWritable(!ReadOnlyBuild);
  Objects.resetStoreStatus();

  // Sweep staging debris (`*.tmp.<pid>.<n>` orphans) left under OutDir
  // by a crash between temp-write and rename; without this they leak
  // forever. Safe exactly because we hold the build lock — no other
  // cooperating process can be mid-stage right now.
  if (!ReadOnlyBuild) {
    S.TempFilesSwept = sweepAtomicTemps(FS, Options.OutDir);
    if (S.TempFilesSwept && tracing())
      trace()->instant("build", "tempSweep",
                       "{\"removed\":" + std::to_string(S.TempFilesSwept) +
                           "}");
  }

  // Warm-cache accounting: deltas of the resident caches' lifetime
  // counters across this build() call.
  const uint64_t ScanHits0 = Scanner.cacheHits();
  const uint64_t ScanMisses0 = Scanner.cacheMisses();
  const uint64_t Parses0 = Objects.deserializations();

  runPhases(S);
  S.TotalUs = static_cast<double>(BuildSpan.elapsedNs()) / 1000.0;

  // The one exit path (error or success): cache-counter deltas,
  // profiler teardown, trace-drop accounting (exactly one warning when
  // the ring overflowed), metrics publication, and the history-ledger
  // append. The build span itself closes after all of it.
  S.ScanCacheHits = Scanner.cacheHits() - ScanHits0;
  S.InterfaceScans = Scanner.cacheMisses() - ScanMisses0;
  S.ObjectsParsed = Objects.deserializations() - Parses0;
  if (Profiler)
    Profiler->stop(); // Folds sample aggregates into the trace.
  if (tracing()) {
    S.TraceEventsDropped = trace()->droppedEvents() - TraceDropped0;
    if (S.TraceEventsDropped)
      warn(S, FS,
           "trace ring overflowed; " + std::to_string(S.TraceEventsDropped) +
               " event(s) were dropped — the emitted trace is truncated "
               "(oldest events lost first)");
  }
  publishMetrics(S);
  appendHistory(S, BuildSpan.startNs());
  return S;
}

void BuildDriverImpl::runPhases(BuildStats &S) {
  if (!PersistentLoaded) {
    TraceSpan Load(trace(), "build", "stateLoad", &S.StateIOUs);
    if (stateful()) {
      // Missing store: quiet cold build. Damaged store: cold build
      // with a warning. Partially damaged store: per-segment salvage —
      // only the corrupt TUs go cold.
      StateLoadReport Rep;
      bool Existed = FS.exists(statePath());
      bool Loaded = DB.loadFromFile(FS, statePath(), &Rep);
      if (Existed && !Loaded)
        warn(S, FS,
             "state '" + statePath() +
                 "' was unreadable or damaged; starting cold");
      if (Rep.salvaged()) {
        S.StateTUsSalvaged = Rep.TUsLoaded;
        S.StateTUsDropped = Rep.TUsDropped;
        S.Warnings.push_back(
            "salvaged " + std::to_string(Rep.TUsLoaded) +
            " TU record(s) from damaged '" + statePath() + "'; dropped " +
            std::to_string(Rep.TUsDropped) +
            " corrupt record(s) (those TUs compile cold)");
        if (tracing())
          trace()->instant("state", "salvage",
                           "{\"tus_loaded\":" +
                               std::to_string(Rep.TUsLoaded) +
                               ",\"tus_dropped\":" +
                               std::to_string(Rep.TUsDropped) + "}");
      }
    }
    bool ManifestExisted = FS.exists(manifestPath());
    if (!Manifest.loadFromFile(FS, manifestPath())) {
      Manifest.clear();
      if (ManifestExisted)
        warn(S, FS,
             "manifest '" + manifestPath() +
                 "' was unreadable or damaged; full recompile");
    }
    PersistentLoaded = true;
  }
  Scanner.trim();

  //===--- Scan: sources, interfaces, import DAG, dirty set ---------------===//

  TraceSpan ScanSpan(trace(), "build", "scan", &S.ScanUs);
  std::map<std::string, std::string> Sources;
  for (const std::string &Path : FS.listFiles()) {
    if (!isSourcePath(Path, Options.OutDir))
      continue;
    if (std::optional<std::string> Content = FS.readFile(Path))
      Sources.emplace(Path, std::move(*Content));
  }
  S.FilesTotal = static_cast<unsigned>(Sources.size());

  // Files that disappeared since the last build: drop every trace —
  // manifest entry, compiler state, cached object — so they neither
  // link nor haunt the state DB. This must run before any graph-error
  // exit below: a deleted file usually breaks its importers, and
  // pruning only on clean builds would leave the deleted TU's ghost
  // state in place for as long as the project stayed broken.
  std::vector<std::string> Gone;
  for (const auto &[Path, Entry] : Manifest.entries())
    if (!Sources.count(Path))
      Gone.push_back(Path);
  for (const std::string &Path : Gone) {
    Manifest.remove(Path);
    DB.remove(Path);
    Objects.invalidate(Path);
  }

  std::map<std::string, const ScanResult *> Scans;
  for (const auto &[Path, Content] : Sources)
    Scans[Path] = &Scanner.scan(Path, Content);

  ImportGraph Graph = ImportGraph::build(Scans);
  if (!Graph.valid()) {
    S.ErrorText = "build error: " + Graph.error();
    return;
  }

  // An import that resolves to no source file (deleted, or never
  // present) fails exactly its importers — every other TU still
  // builds. The failed TUs are forgotten in the manifest so they are
  // retried next build; the "missing:" sentinel the graph folds into
  // their hashes means the *appearance* of the absent file dirties
  // them even though their own content never changed.
  std::vector<std::pair<std::string, std::string>> Failures;
  std::set<std::string> Unbuildable;
  for (const std::string &Path : Graph.topologicalOrder()) {
    const std::vector<std::string> &Missing = Graph.missingImports(Path);
    if (Missing.empty())
      continue;
    Unbuildable.insert(Path);
    std::string Diag;
    for (const std::string &Dep : Missing)
      Diag += "build error: " + Path + ": missing import '" + Dep +
              "' (not a source file of this project)\n";
    Failures.emplace_back(Path, std::move(Diag));
    Manifest.remove(Path);
  }

  const uint64_t Config = configHash();
  std::vector<std::string> Dirty;
  /// Locally-clean TUs, remembered so the remote-sync pass can keep
  /// the fleet cache warm: (path, input key, object digest).
  std::vector<std::tuple<std::string, uint64_t, uint64_t>> CleanTUs;
  for (const std::string &Path : Graph.topologicalOrder()) {
    if (Unbuildable.count(Path))
      continue;
    const ScanResult *SR = Scans.at(Path);
    const ManifestEntry *E = Manifest.lookup(Path);
    const uint64_t ImportsEff = Graph.importsEffectiveHash(Path);
    bool NeedsCompile =
        !E || E->ConfigHash != Config || E->ContentHash != SR->ContentHash ||
        E->ImportsEffectiveHash != ImportsEff ||
        // Missing/vandalized/corrupt object: self-heal by recompiling.
        !Objects.load(Path, E->ObjectHash);
    if (!NeedsCompile) {
      CleanTUs.emplace_back(Path, inputKey(SR->ContentHash, ImportsEff, Config),
                            E->ObjectHash);
      continue;
    }
    // Local miss: before scheduling a compile, ask the remote tier.
    // A verified remote hit is admitted into the local object cache
    // and recorded in the manifest exactly as a compile would have —
    // the TU then links from the fetched object and skips the
    // compiler entirely.
    if (RemoteCacheClient *RC = remote(S)) {
      const uint64_t Key = inputKey(SR->ContentHash, ImportsEff, Config);
      TraceSpan Fetch(trace(), "remote", "fetch");
      uint64_t Digest = 0;
      std::string Bytes;
      RemoteCacheClient::Result R = RC->fetch(Key, Digest, Bytes);
      if (R == RemoteCacheClient::Result::Hit &&
          Objects.storeFetched(Path, std::move(Bytes), Digest)) {
        ++S.RemoteHits;
        ManifestEntry NE;
        NE.ContentHash = SR->ContentHash;
        NE.ImportsEffectiveHash = ImportsEff;
        NE.ObjectHash = Digest;
        NE.ConfigHash = Config;
        Manifest.update(Path, NE);
        if (tracing())
          Fetch.args("{\"path\":\"" + Path + "\",\"hit\":true}");
        continue;
      }
      if (R == RemoteCacheClient::Result::Error) {
        degradeRemote(S, "request failed mid-build");
      } else {
        // Miss — or a fetched object that failed to decode, which the
        // client's verification makes equivalent to one.
        ++S.RemoteMisses;
        if (tracing())
          Fetch.args("{\"path\":\"" + Path + "\",\"hit\":false}");
      }
    }
    Dirty.push_back(Path);
  }
  S.DirtyTUs = Dirty;
  if (tracing())
    ScanSpan.args("{\"files\":" + std::to_string(S.FilesTotal) +
                  ",\"dirty\":" + std::to_string(Dirty.size()) + "}");
  ScanSpan.end();

  //===--- Compile: dirty TUs in topological order, Jobs workers ----------===//

  TraceSpan CompileSpan(trace(), "build", "compile", &S.CompileUs);
  std::vector<CompileJob> Jobs;
  Jobs.reserve(Dirty.size());
  for (const std::string &Path : Dirty) {
    CompileJob J;
    J.Path = Path;
    J.Source = &Sources.at(Path);
    for (const std::string &Dep : Graph.imports(Path)) {
      const ModuleInterface &Iface = Scans.at(Dep)->Interface;
      J.Imports.insert(J.Imports.end(), Iface.begin(), Iface.end());
    }
    Jobs.push_back(std::move(J));
  }
  CompilerOptions CO = Options.Compiler;
  CO.Workers = Pool.get();
  CO.FPMemo = &FPMemo;
  std::vector<CompileResult> Results =
      compileInParallel(Jobs, CO, stateful() ? &DB : nullptr, *Pool);
  if (tracing())
    CompileSpan.args("{\"jobs\":" + std::to_string(Jobs.size()) + "}");
  CompileSpan.end();

  // Fault containment: a failed TU never aborts the others — the whole
  // wave already ran, every successful TU's object and state are kept,
  // and only the failed TUs are forgotten (retried next build).
  // Diagnostics are emitted in TU-key-sorted order (missing-import
  // failures from above included) so the error text is deterministic
  // at any -j.
  struct PendingPublish {
    std::string Path;
    uint64_t Key;
    uint64_t Digest;
    std::string Bytes;
  };
  std::vector<PendingPublish> ToPublish;
  for (size_t I = 0; I != Results.size(); ++I) {
    CompileResult &R = Results[I];
    S.CompilePhases.accumulate(R.Timings);
    addSkipStats(S.Skip, R.SkipStats);
    if (CO.RecordDecisions && R.Success)
      PendingDecisions.emplace_back(Jobs[I].Path, std::move(R.Decisions));
    if (!R.Success) {
      Failures.emplace_back(Jobs[I].Path, std::move(R.DiagText));
      // Forget the TU so the next build retries it from scratch.
      Manifest.remove(Jobs[I].Path);
      continue;
    }
    ++S.FilesCompiled;
    const bool WantPublish = !Options.RemoteCache.empty() && !RemoteDisabled;
    std::string PubBytes;
    ManifestEntry E;
    E.ContentHash = Scans.at(Jobs[I].Path)->ContentHash;
    E.ImportsEffectiveHash = Graph.importsEffectiveHash(Jobs[I].Path);
    E.ObjectHash = Objects.store(Jobs[I].Path, std::move(R.Object),
                                 WantPublish ? &PubBytes : nullptr);
    E.ConfigHash = Config;
    Manifest.update(Jobs[I].Path, E);
    if (WantPublish)
      ToPublish.push_back(
          {Jobs[I].Path,
           inputKey(E.ContentHash, E.ImportsEffectiveHash, Config),
           E.ObjectHash, std::move(PubBytes)});
  }
  std::sort(Failures.begin(), Failures.end());
  std::string Errors;
  for (auto &[Path, Diag] : Failures)
    Errors += Diag;

  //===--- Remote sync: publish new objects, keep the hot set warm --------===//

  // Runs even when some TUs failed — the successful objects are valid
  // and worth sharing, mirroring how persist() keeps completed work.
  // Two duties: publish what this build compiled, and touch-or-publish
  // the locally-clean TUs so an already-warm builder still populates a
  // cold fleet cache (without recompiling anything). Any failure
  // degrades the tier and abandons the rest of the sync.
  if (remote(S)) {
    TraceSpan Sync(trace(), "remote", "sync");
    uint64_t Touched = 0;
    for (PendingPublish &P : ToPublish) {
      RemoteCacheClient *RC = remote(S);
      if (!RC)
        break;
      if (RC->publish(P.Key, P.Digest, P.Bytes) ==
          RemoteCacheClient::Result::Error) {
        degradeRemote(S, "publish failed mid-build");
        break;
      }
      ++S.RemotePuts;
    }
    for (auto &[Path, Key, Digest] : CleanTUs) {
      RemoteCacheClient *RC = remote(S);
      if (!RC)
        break;
      RemoteCacheClient::Result R = RC->touchEntry(Key, Digest);
      if (R == RemoteCacheClient::Result::Error) {
        degradeRemote(S, "touch failed mid-build");
        break;
      }
      ++Touched;
      if (R == RemoteCacheClient::Result::Miss) {
        // The remote lacks (part of) this TU; publish from the local
        // object file or in-memory copy — no recompile needed.
        std::string Bytes;
        if (!Objects.serializedBytes(Path, Digest, Bytes))
          continue; // Local copy unavailable; the remote stays cold.
        if (RC->publish(Key, Digest, Bytes) ==
            RemoteCacheClient::Result::Error) {
          degradeRemote(S, "publish failed mid-build");
          break;
        }
        ++S.RemotePuts;
      }
    }
    if (tracing())
      Sync.args("{\"published\":" + std::to_string(S.RemotePuts) +
                ",\"touched\":" + std::to_string(Touched) + "}");
  }

  if (!Errors.empty()) {
    S.StateDBBytes = persist(S);
    S.ErrorText = std::move(Errors);
    return;
  }

  //===--- Link: all objects into one program image -----------------------===//

  TraceSpan LinkSpan(trace(), "build", "link", &S.LinkUs);
  // Every TU reaching link was, this build, either validated against
  // its disk bytes at scan or stored/fetched: link from those in-memory
  // modules instead of reading and hashing each object a second time.
  std::vector<const MModule *> LinkSet;
  LinkSet.reserve(Graph.topologicalOrder().size());
  std::string LinkErrors;
  uint64_t ObjectBytes = 0;
  for (const std::string &Path : Graph.topologicalOrder()) {
    const ManifestEntry *E = Manifest.lookup(Path);
    const MModule *Obj = E ? Objects.resident(Path, E->ObjectHash) : nullptr;
    if (!Obj) {
      LinkErrors += "build error: object for '" + Path +
                    "' vanished during the build\n";
      continue;
    }
    LinkSet.push_back(Obj);
    ObjectBytes += Objects.objectBytes(Path);
  }
  LinkResult Linked;
  if (LinkErrors.empty())
    Linked = linkObjects(LinkSet);
  if (tracing())
    LinkSpan.args("{\"objects\":" + std::to_string(LinkSet.size()) + "}");
  LinkSpan.end();

  if (!LinkErrors.empty() || !Linked.succeeded()) {
    for (const std::string &E : Linked.Errors)
      LinkErrors += "link error: " + E + "\n";
    S.StateDBBytes = persist(S);
    S.ErrorText = std::move(LinkErrors);
    return;
  }
  Program = std::move(*Linked.Program);
  S.ObjectBytes = ObjectBytes;

  //===--- Verify deps (opt-in): declared graph vs actual accesses --------===//

  if (Options.VerifyDeps) {
    std::map<std::string, std::vector<std::string>> Declared;
    for (const std::string &Path : Graph.topologicalOrder())
      Declared[Path] = Graph.imports(Path);
    std::string PlantErr;
    std::optional<DepVerifyPlant> Plant =
        DepVerifier::loadPlant(FS, Options.OutDir, &PlantErr);
    if (!PlantErr.empty())
      warn(S, FS, "ignoring malformed dependency plant: " + PlantErr);
    DepVerifyReport Rep =
        DepVerifier::verify(FS, Declared, Plant ? &*Plant : nullptr);
    S.DepsTUsChecked = Rep.TUsChecked;
    S.DepsMissing = Rep.NumMissing;
    S.DepsRedundant = Rep.NumRedundant;
    for (const DepFinding &F : Rep.Findings)
      S.DepFindings.push_back(F.reason());
    if (tracing())
      trace()->instant("build", "verifyDeps",
                       "{\"tus\":" + std::to_string(Rep.TUsChecked) +
                           ",\"missing\":" + std::to_string(Rep.NumMissing) +
                           ",\"redundant\":" +
                           std::to_string(Rep.NumRedundant) + "}");
  }

  //===--- Persist: manifest + compiler state -----------------------------===//

  S.StateDBBytes = persist(S);
  S.Success = true;
}

void BuildDriverImpl::clean() {
  for (const std::string &Path : FS.listFiles())
    if (Path.compare(0, Options.OutDir.size() + 1, Options.OutDir + "/") ==
        0)
      FS.removeFile(Path);
  DB.clear();
  Manifest.clear();
  Objects.clearMemory();
  Scanner.clear();
  Program.reset();
  // Nothing left on disk worth loading.
  PersistentLoaded = true;
}

//===----------------------------------------------------------------------===//
// Public facade
//===----------------------------------------------------------------------===//

BuildDriver::BuildDriver(VirtualFileSystem &FS, BuildOptions Options)
    : Impl(std::make_unique<BuildDriverImpl>(FS, std::move(Options))) {}

BuildDriver::~BuildDriver() = default;

BuildStats BuildDriver::build() { return Impl->build(); }

void BuildDriver::clean() { Impl->clean(); }

const MModule *BuildDriver::program() const { return Impl->program(); }

const BuildStateDB &BuildDriver::stateDB() const { return Impl->stateDB(); }

const BuildOptions &BuildDriver::options() const { return Impl->options(); }
