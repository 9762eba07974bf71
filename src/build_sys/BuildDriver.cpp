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

#include "build_sys/BuildFacts.h"
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
#include "support/FileLock.h"
#include "support/FlatJson.h"
#include "support/Hashing.h"
#include "support/Metrics.h"
#include "support/TaskPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <map>
#include <optional>
#include <set>
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

  /// Publishes this build's pool.* deltas. Runs before the ledger
  /// append, which snapshots them into the record; the build.* facts
  /// are published after it (publishBuildFacts).
  void publishPoolStats();

  /// Appends this build's record to the history ledger
  /// (build_sys/History.h) on every exit path, success and failure
  /// alike, but never from a read-only build: the ledger belongs to the
  /// lock owner, and an unlocked rewrite could drop the owner's record.
  /// Any ledger failure costs one warning, never the build.
  void appendHistory(BuildStats &S, uint64_t BuildStartNs);

  /// Atomically writes \p Bytes to \p Path, unless the file still holds
  /// what this driver last wrote or loaded there: the same bytes (by
  /// hash) and a stat unchanged since. False when a needed write failed.
  bool persistFile(const std::string &Path, const std::string &Bytes);

  /// Reads \p Path for a load, remembering its bytes' hash and the stat
  /// taken before the read (also returned in \p StatOut) for
  /// persistFile().
  std::optional<std::string> loadPersisted(const std::string &Path,
                                           std::optional<FileStat> *StatOut);

  /// Each file persistFile() wrote or loadPersisted() read: its bytes'
  /// hash and its stat right after the write or before the read.
  std::map<std::string, std::pair<uint64_t, FileStat>> Persisted;

  /// The ledger as this driver last wrote it (History.h); a no-op build
  /// in a resident driver appends without re-checking old records.
  HistoryTail LedgerTail;

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

  /// The pool's cumulative scheduling counters at build() entry;
  /// publishPoolStats() publishes the per-build deltas as pool.*.
  TaskPoolStats PoolAtBuildStart;

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
  // A skipped manifest write leaves the file, and so the racy
  // threshold, as this driver last wrote it.
  if (persistFile(manifestPath(), Manifest.serialize()))
    Manifest.markWritten(FS.stat(manifestPath()));
  else
    warn(S, FS,
         "failed to persist '" + manifestPath() +
             "'; the next build recomputes its dirty set from scratch");
  if (stateful()) {
    std::string Bytes = DB.serialize();
    StateBytes = Bytes.size();
    if (!persistFile(statePath(), Bytes))
      warn(S, FS,
           "failed to persist '" + statePath() +
               "'; the next build starts with cold compiler state");
  }
  if (Options.Compiler.RecordDecisions && stateful()) {
    if (!persistFile(decisionsPath(), serializeDecisions(PendingDecisions)))
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

bool BuildDriverImpl::persistFile(const std::string &Path,
                                  const std::string &Bytes) {
  const uint64_t Hash = hashString(Bytes);
  auto It = Persisted.find(Path);
  if (It != Persisted.end() && It->second.first == Hash &&
      FS.stat(Path) == It->second.second)
    return true;
  if (It != Persisted.end())
    Persisted.erase(It);
  if (!atomicWriteFile(FS, Path, Bytes))
    return false;
  if (std::optional<FileStat> St = FS.stat(Path))
    Persisted[Path] = {Hash, *St};
  return true;
}

std::optional<std::string>
BuildDriverImpl::loadPersisted(const std::string &Path,
                               std::optional<FileStat> *StatOut) {
  const std::optional<FileStat> St = FS.stat(Path);
  std::optional<std::string> Bytes = FS.readFile(Path);
  if (Bytes && St)
    Persisted[Path] = {hashString(*Bytes), *St};
  if (StatOut)
    *StatOut = St;
  return Bytes;
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
  RemoteDisabled = true; // The latched client stays for its counters.
  ++S.RemoteErrors;
  S.Warnings.push_back("remote cache '" + Options.RemoteCache +
                       "' is unavailable (" + Why +
                       "); continuing local-only");
  if (tracing()) {
    // Why may quote a host path (a too-long socket path, say).
    std::string Args = "{\"reason\":";
    appendJsonString(Args, Why);
    trace()->instant("remote", "degrade", Args + "}");
  }
}

const std::string &BuildFact::metric() const {
  static const std::map<std::string_view, std::string> Names = [] {
    std::map<std::string_view, std::string> N;
    const BuildStats Probe;
    forEachBuildFact(Probe, [&](const BuildFact &F, const auto &) {
      std::string Name = "build." + std::string(F.Path);
      std::replace(Name.begin() + 6, Name.end(), '.', '_');
      N.emplace(F.Path, std::move(Name));
    });
    return N;
  }();
  return Names.at(Path);
}

void sc::publishBuildFacts(const BuildStats &S, MetricsRegistry &M) {
  forEachBuildFact(S, [&](const BuildFact &F, const auto &V) {
    if (F.Kind == FactKind::Counter)
      M.counter(F.metric()).add(static_cast<uint64_t>(V));
    else
      M.gauge(F.metric()).set(static_cast<double>(V));
  });
  M.counter("build.builds").add(1);
  M.counter("build.warnings").add(S.Warnings.size());
  M.counter("build.history_appends").add(S.BuildId ? 1 : 0);
}

void BuildDriverImpl::publishPoolStats() {
  MetricsRegistry *M = Options.Compiler.Metrics;
  if (!M)
    return;
  const TaskPoolStats &P0 = PoolAtBuildStart;
  const TaskPoolStats P1 = Pool->stats();
  M->counter("pool.tasks_executed").add(P1.TasksExecuted - P0.TasksExecuted);
  M->counter("pool.steal_attempts").add(P1.StealAttempts - P0.StealAttempts);
  M->counter("pool.steals").add(P1.Steals - P0.Steals);
  M->counter("pool.helped_tasks").add(P1.HelpedTasks - P0.HelpedTasks);
  M->counter("pool.spin_iterations").add(P1.SpinIterations -
                                         P0.SpinIterations);
  M->counter("pool.parks").add(P1.Parks - P0.Parks);
  M->counter("pool.park_wait_ns").add(P1.ParkWaitNs - P0.ParkWaitNs);
}

void BuildDriverImpl::appendHistory(BuildStats &S, uint64_t BuildStartNs) {
  if (Options.HistoryLimit == 0 || ReadOnlyBuild)
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
  if (BuildHistory::append(FS, historyPath(), R, Options.HistoryLimit,
                           nullptr, &LedgerTail))
    S.BuildId = R.BuildId;
  else
    warn(S, FS,
         "failed to append build record to '" + historyPath() +
             "'; cross-build history loses this build");
  S.HistoryRecordsSkipped = R.HistoryRecordsSkipped;
  if (S.HistoryRecordsSkipped)
    warn(S, FS,
         "skipped " + std::to_string(S.HistoryRecordsSkipped) +
             " damaged record(s) in '" + historyPath() +
             "' (torn by an earlier crash); surviving records were kept");
}

BuildStats BuildDriverImpl::build() {
  BuildStats S;
  PoolAtBuildStart = Pool->stats();

  const uint64_t TraceDropped0 = tracing() ? trace()->droppedEvents() : 0;
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

  // Warm-cache accounting: deltas of the resident caches' lifetime
  // counters across this build() call.
  const uint64_t ScanHits0 = Scanner.cacheHits();
  const uint64_t ScanMisses0 = Scanner.cacheMisses();
  const uint64_t Parses0 = Objects.deserializations();
  const uint64_t ObjectReads0 = Objects.objectReads();
  auto RoundTrips = [&] { return Remote ? Remote->roundTrips() : 0; };
  const uint64_t RoundTrips0 = RoundTrips();

  runPhases(S);
  S.TotalUs = static_cast<double>(BuildSpan.elapsedNs()) / 1000.0;

  // The one exit path (error or success): cache-counter deltas,
  // trace-drop accounting (exactly one warning when the ring
  // overflowed), the history-ledger append, and metrics publication —
  // the build.* facts last, so they count what the append added. The
  // build span itself closes after all of it.
  S.ScanCacheHits = Scanner.cacheHits() - ScanHits0;
  S.InterfaceScans = Scanner.cacheMisses() - ScanMisses0;
  S.ObjectsParsed = Objects.deserializations() - Parses0;
  S.ObjectsRead = Objects.objectReads() - ObjectReads0;
  S.RemoteRoundTrips = RoundTrips() - RoundTrips0;
  if (tracing()) {
    S.TraceEventsDropped = trace()->droppedEvents() - TraceDropped0;
    if (S.TraceEventsDropped)
      warn(S, FS,
           "trace ring overflowed; " + std::to_string(S.TraceEventsDropped) +
               " event(s) were dropped — the emitted trace is truncated "
               "(oldest events lost first)");
  }
  publishPoolStats();
  appendHistory(S, BuildSpan.startNs());
  if (MetricsRegistry *M = Options.Compiler.Metrics)
    publishBuildFacts(S, *M);
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
      std::optional<std::string> Bytes = loadPersisted(statePath(), nullptr);
      bool Loaded = Bytes && DB.deserialize(*Bytes, &Rep);
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
    std::optional<FileStat> ManifestStat;
    std::optional<std::string> Bytes =
        loadPersisted(manifestPath(), &ManifestStat);
    if (Bytes && Manifest.deserialize(*Bytes)) {
      Manifest.markWritten(ManifestStat);
    } else {
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
  // One listing serves the temp sweep and the source scan.
  const std::vector<std::string> Files = FS.listFiles();

  // Sweep staging debris (`*.tmp.<pid>.<n>` orphans) left under OutDir
  // by a crash between temp-write and rename; without this they leak
  // forever. Safe exactly because we hold the build lock — no other
  // cooperating process can be mid-stage right now.
  if (!ReadOnlyBuild) {
    S.TempFilesSwept = sweepAtomicTemps(FS, Options.OutDir, Files);
    if (S.TempFilesSwept && tracing())
      trace()->instant("build", "tempSweep",
                       "{\"removed\":" + std::to_string(S.TempFilesSwept) +
                           "}");
  }

  // A source that is stat-clean against its manifest entry keeps the
  // recorded content hash, and when the scanner still holds the result
  // for that hash the file is not read at all. Any other source is read
  // and scanned, hashed unless stat-clean. The stat is taken before the
  // read, so a file changed in between fails the next build's stat
  // check. Bytes read are kept for this build's compile jobs only.
  std::map<std::string, const ScanResult *> Scans;
  std::map<std::string, FileStat> SourceStats;
  std::map<std::string, std::string> SourceBytes;
  for (const std::string &Path : Files) {
    if (!isSourcePath(Path, Options.OutDir))
      continue;
    const std::optional<FileStat> St = FS.stat(Path);
    const ManifestEntry *E = Manifest.lookup(Path);
    const bool StatClean = E && Manifest.statClean(St, E->SourceStat);
    const ScanResult *SR = StatClean ? Scanner.lookup(E->ContentHash) : nullptr;
    if (!SR) {
      std::optional<std::string> Content = FS.readFile(Path);
      if (!Content)
        continue;
      ++S.SourcesRead;
      SR = StatClean ? &Scanner.scan(Path, *Content, E->ContentHash)
                     : &Scanner.scan(Path, *Content);
      SourceBytes.emplace(Path, std::move(*Content));
    }
    Scans.emplace(Path, SR);
    SourceStats.emplace(Path, St.value_or(FileStat{}));
  }
  S.FilesTotal = static_cast<unsigned>(Scans.size());

  // Files that disappeared since the last build: drop every trace —
  // manifest entry, compiler state, cached object — so they neither
  // link nor haunt the state DB. This must run before any graph-error
  // exit below: a deleted file usually breaks its importers, and
  // pruning only on clean builds would leave the deleted TU's ghost
  // state in place for as long as the project stayed broken.
  std::vector<std::string> Gone;
  for (const auto &[Path, Entry] : Manifest.entries())
    if (!Scans.count(Path))
      Gone.push_back(Path);
  for (const std::string &Path : Gone) {
    Manifest.remove(Path);
    DB.remove(Path);
    Objects.invalidate(Path);
  }

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
  /// the fleet cache warm: their paths, input keys and object digests.
  std::vector<std::string> CleanPaths;
  std::vector<uint64_t> CleanKeys, CleanDigests;
  std::vector<uint64_t> DirtyKeys; // Input key of each Dirty TU.
  for (const std::string &Path : Graph.topologicalOrder()) {
    if (Unbuildable.count(Path))
      continue;
    const ScanResult *SR = Scans.at(Path);
    const ManifestEntry *E = Manifest.lookup(Path);
    const uint64_t ImportsEff = Graph.importsEffectiveHash(Path);
    bool NeedsCompile = !E || E->ConfigHash != Config ||
                        E->ContentHash != SR->ContentHash ||
                        E->ImportsEffectiveHash != ImportsEff;
    if (!NeedsCompile) {
      // Missing/vandalized/corrupt object: self-heal by recompiling. A
      // stat-clean object is not hashed, and not read when resident.
      const std::optional<FileStat> ObjStat =
          FS.stat(Objects.objectPath(Path));
      NeedsCompile = !Objects.load(Path, E->ObjectHash,
                                   Manifest.statClean(ObjStat, E->ObjectStat));
      if (!NeedsCompile) {
        // Confirmed unchanged: record the stats this build saw, so the
        // next build can trust them. Only here — a TU compiled or
        // fetched is recorded without stats until a later build
        // confirms it, so a cold build's manifest holds no stats.
        ManifestEntry Seen = *E;
        Seen.SourceStat = SourceStats.at(Path);
        Seen.ObjectStat =
            Objects.onDisk(Path) ? ObjStat.value_or(FileStat{}) : FileStat{};
        Manifest.update(Path, Seen);
        CleanPaths.push_back(Path);
        CleanKeys.push_back(inputKey(SR->ContentHash, ImportsEff, Config));
        CleanDigests.push_back(Seen.ObjectHash);
        continue;
      }
    }
    Dirty.push_back(Path);
    DirtyKeys.push_back(inputKey(SR->ContentHash, ImportsEff, Config));
  }

  // Local misses: before scheduling compiles, ask the remote tier for
  // all of them in one batch. A verified remote hit is admitted into
  // the local object cache and recorded in the manifest exactly as a
  // compile would have — the TU then links from the fetched object and
  // skips the compiler entirely. A miss, or a fetched object that
  // failed to verify or decode, stays dirty.
  if (RemoteCacheClient *RC = Dirty.empty() ? nullptr : remote(S)) {
    TraceSpan Fetch(trace(), "remote", "fetch");
    std::vector<RemoteCacheClient::Fetched> Got;
    if (RC->fetchBatch(DirtyKeys, Got) == RemoteCacheClient::Result::Error) {
      degradeRemote(S, "request failed mid-build");
    } else {
      std::vector<std::string> Missed;
      for (size_t I = 0; I != Dirty.size(); ++I) {
        const std::string &Path = Dirty[I];
        RemoteCacheClient::Fetched &F = Got[I];
        if (!F.Hit ||
            !Objects.storeFetched(Path, std::move(F.Bytes), F.Digest)) {
          ++S.RemoteMisses;
          Missed.push_back(Path);
          continue;
        }
        ++S.RemoteHits;
        ManifestEntry NE;
        NE.ContentHash = Scans.at(Path)->ContentHash;
        NE.ImportsEffectiveHash = Graph.importsEffectiveHash(Path);
        NE.ObjectHash = F.Digest;
        NE.ConfigHash = Config;
        Manifest.update(Path, NE);
      }
      Dirty = std::move(Missed);
    }
    if (tracing())
      Fetch.args("{\"tus\":" + std::to_string(DirtyKeys.size()) +
                 ",\"hits\":" + std::to_string(S.RemoteHits) + "}");
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
    // A stat-clean source whose scan result was resident is read only
    // now that it compiles.
    auto Src = SourceBytes.find(Path);
    if (Src == SourceBytes.end()) {
      std::optional<std::string> Content = FS.readFile(Path);
      if (!Content) {
        Failures.emplace_back(Path, "build error: " + Path +
                                        ": could not read the source\n");
        Manifest.remove(Path);
        continue;
      }
      ++S.SourcesRead;
      Src = SourceBytes.emplace(Path, std::move(*Content)).first;
    }
    CompileJob J;
    J.Path = Path;
    J.Source = &Src->second;
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
    // The hash of the bytes compiled: a source read only now differs
    // from its scan when it changed during the build, and then the
    // manifest must not vouch for the scanned content.
    E.ContentHash = hashString(*Jobs[I].Source);
    E.ImportsEffectiveHash = Graph.importsEffectiveHash(Jobs[I].Path);
    E.ObjectHash = Objects.store(Jobs[I].Path, std::move(R.Object),
                                 WantPublish ? &PubBytes : nullptr);
    E.ConfigHash = Config;
    Manifest.update(Jobs[I].Path, E);
    if (WantPublish)
      ToPublish.push_back(
          {inputKey(E.ContentHash, E.ImportsEffectiveHash, Config),
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
  // the locally-clean TUs, all in one batch, so an already-warm builder
  // still populates a cold fleet cache (without recompiling anything).
  // Any failure degrades the tier and abandons the rest of the sync.
  if (remote(S)) {
    TraceSpan Sync(trace(), "remote", "sync");
    // Publishes one object; false once the tier has degraded.
    auto Publish = [&](uint64_t Key, uint64_t Digest, const std::string &B) {
      RemoteCacheClient *RC = remote(S);
      if (!RC)
        return false;
      if (RC->publish(Key, Digest, B) == RemoteCacheClient::Result::Error) {
        degradeRemote(S, "publish failed mid-build");
        return false;
      }
      ++S.RemotePuts;
      return true;
    };
    for (PendingPublish &P : ToPublish)
      if (!Publish(P.Key, P.Digest, P.Bytes))
        break;
    std::vector<RemoteCacheClient::Fetched> Present;
    RemoteCacheClient *RC = CleanKeys.empty() ? nullptr : remote(S);
    if (RC && RC->touchBatch(CleanKeys, CleanDigests, Present) ==
                  RemoteCacheClient::Result::Error) {
      degradeRemote(S, "touch failed mid-build");
      Present.clear();
    }
    for (size_t I = 0; I != Present.size(); ++I) {
      // The remote lacks (part of) this TU; publish from the local
      // object file or in-memory copy — no recompile needed. A TU whose
      // local copy is unavailable leaves the remote cold.
      std::string Bytes;
      if (!Present[I].Hit &&
          Objects.serializedBytes(CleanPaths[I], CleanDigests[I], Bytes) &&
          !Publish(CleanKeys[I], CleanDigests[I], Bytes))
        break;
    }
    if (tracing())
      Sync.args("{\"published\":" + std::to_string(S.RemotePuts) +
                ",\"touched\":" + std::to_string(Present.size()) + "}");
  }

  if (!Errors.empty()) {
    S.StateDBBytes = persist(S);
    S.ErrorText = std::move(Errors);
    return;
  }

  //===--- Link: all objects into one program image -----------------------===//

  TraceSpan LinkSpan(trace(), "build", "link", &S.LinkUs);
  // Every TU reaching link was, this build, either validated at scan
  // (its disk bytes hashed, or its file stat-clean) or stored/fetched:
  // link from those in-memory modules instead of reading each object a
  // second time.
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
