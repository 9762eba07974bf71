//===- tests/observability/BuildTelemetryTest.cpp --------------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// End-to-end telemetry: a real BuildDriver over an in-memory project
/// with a TraceRecorder + MetricsRegistry attached must produce the
/// full event vocabulary (phase spans, per-TU compile spans, per-pass
/// spans, skip instants with dormancy verdicts), a versioned build
/// report, and a replayable decision log — and stale build locks left
/// by dead processes must be reclaimed.
///
//===----------------------------------------------------------------------===//

#include "build_sys/BuildReport.h"
#include "build_sys/BuildSystem.h"
#include "codegen/ObjectFile.h"
#include "build_sys/Explain.h"
#include "support/FileLock.h"
#include "support/FileSystem.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include <sys/wait.h>
#include <unistd.h>

using namespace sc;

namespace {

void writeProject(VirtualFileSystem &FS) {
  FS.writeFile("alpha.mc", R"(
    fn twice(x: int) -> int { return x + x; }
    fn quad(x: int) -> int { return twice(twice(x)); }
  )");
  FS.writeFile("bravo.mc", R"(
    import "alpha.mc";
    fn inc(x: int) -> int { return quad(x) + 1; }
  )");
  FS.writeFile("charlie.mc", R"(
    import "bravo.mc";
    fn main() -> int { return inc(10); }
  )");
}

BuildOptions telemetryOptions(TraceRecorder *Trace, MetricsRegistry *Metrics) {
  BuildOptions BO;
  BO.Compiler.Stateful.SkipMode = StatefulConfig::Mode::HeuristicSkip;
  BO.Compiler.Trace = Trace;
  BO.Compiler.Metrics = Metrics;
  BO.Compiler.RecordDecisions = true;
  BO.LockTimeoutMs = 50;
  BO.LockBackoffMs = 2;
  return BO;
}

size_t countCategory(const std::vector<TraceEvent> &Events, const char *Cat) {
  size_t N = 0;
  for (const TraceEvent &E : Events)
    if (std::string(E.Category) == Cat)
      ++N;
  return N;
}

bool hasSpan(const std::vector<TraceEvent> &Events, const std::string &Name) {
  for (const TraceEvent &E : Events)
    if (E.K == TraceEvent::Kind::Span && E.Name == Name)
      return true;
  return false;
}

} // namespace

TEST(BuildTelemetry, ColdBuildEmitsFullSpanVocabulary) {
  InMemoryFileSystem FS;
  writeProject(FS);
  TraceRecorder Trace;
  MetricsRegistry Metrics;
  BuildDriver Driver(FS, telemetryOptions(&Trace, &Metrics));
  BuildStats S = Driver.build();
  ASSERT_TRUE(S.Success) << S.ErrorText;

  std::vector<TraceEvent> Events = Trace.snapshot();
  // One span per build phase.
  EXPECT_TRUE(hasSpan(Events, "build"));
  EXPECT_TRUE(hasSpan(Events, "scan"));
  EXPECT_TRUE(hasSpan(Events, "compile"));
  EXPECT_TRUE(hasSpan(Events, "link"));
  EXPECT_TRUE(hasSpan(Events, "stateLoad"));
  EXPECT_TRUE(hasSpan(Events, "stateSave"));
  // One compile span per recompiled TU, plus its phase breakdown.
  EXPECT_TRUE(hasSpan(Events, "compile:alpha.mc"));
  EXPECT_TRUE(hasSpan(Events, "compile:bravo.mc"));
  EXPECT_TRUE(hasSpan(Events, "compile:charlie.mc"));
  EXPECT_TRUE(hasSpan(Events, "frontend:alpha.mc"));
  EXPECT_TRUE(hasSpan(Events, "middle:alpha.mc"));
  EXPECT_TRUE(hasSpan(Events, "backend:alpha.mc"));
  // Every executed pass got a span; a cold build skips nothing.
  EXPECT_EQ(countCategory(Events, "pass"), S.Skip.PassesRun);
  EXPECT_GT(S.Skip.PassesRun, 0u);
  // Cold-build reason codes ride on the pass spans.
  bool SawColdReason = false;
  for (const TraceEvent &E : Events)
    if (std::string(E.Category) == "pass" &&
        E.ArgsJson.find("ran:cold-state") != std::string::npos)
      SawColdReason = true;
  EXPECT_TRUE(SawColdReason);
}

TEST(BuildTelemetry, IncrementalBuildEmitsSkipInstantsWithVerdicts) {
  InMemoryFileSystem FS;
  writeProject(FS);
  TraceRecorder Trace;
  MetricsRegistry Metrics;
  BuildDriver Driver(FS, telemetryOptions(&Trace, &Metrics));
  ASSERT_TRUE(Driver.build().Success);

  // Touch charlie.mc without changing main()'s body: main's records
  // match, so its dormant passes are skipped — each with an instant.
  FS.writeFile("charlie.mc", R"(
    import "bravo.mc";
    fn main() -> int { return inc(10); }
    fn extra() -> int { return 7; }
  )");
  Trace.clear();
  BuildStats S2 = Driver.build();
  ASSERT_TRUE(S2.Success) << S2.ErrorText;
  EXPECT_EQ(S2.FilesCompiled, 1u);
  EXPECT_GT(S2.Skip.PassesSkipped, 0u);

  std::vector<TraceEvent> Events = Trace.snapshot();
  EXPECT_EQ(countCategory(Events, "pass.skip"), S2.Skip.PassesSkipped);
  size_t DormantInstants = 0;
  for (const TraceEvent &E : Events)
    if (std::string(E.Category) == "pass.skip") {
      EXPECT_EQ(E.K, TraceEvent::Kind::Instant);
      EXPECT_NE(E.ArgsJson.find("\"reason\""), std::string::npos);
      if (E.ArgsJson.find("skipped:dormant") != std::string::npos)
        ++DormantInstants;
    }
  EXPECT_GT(DormantInstants, 0u);
  // Only the touched TU recompiled.
  EXPECT_TRUE(hasSpan(Events, "compile:charlie.mc"));
  EXPECT_FALSE(hasSpan(Events, "compile:alpha.mc"));
}

TEST(BuildTelemetry, MetricsAndReportDescribeTheBuild) {
  InMemoryFileSystem FS;
  writeProject(FS);
  TraceRecorder Trace;
  MetricsRegistry Metrics;
  BuildDriver Driver(FS, telemetryOptions(&Trace, &Metrics));
  BuildStats S = Driver.build();
  ASSERT_TRUE(S.Success) << S.ErrorText;
  ASSERT_TRUE(Driver.build().Success); // No-op incremental build.

  // Counters accumulate across builds; gauges describe the latest.
  EXPECT_EQ(Metrics.counter("build.builds").value(), 2u);
  EXPECT_EQ(Metrics.counter("build.files_compiled").value(), 3u);
  EXPECT_DOUBLE_EQ(Metrics.gauge("build.files_total").value(), 3.0);
  EXPECT_GT(Metrics.counter("build.passes_run").value(), 0u);
  EXPECT_GT(Metrics.gauge("build.total_us").value(), 0.0);

  const std::string Report = buildReportJson(S, &Metrics);
  EXPECT_NE(Report.find("\"schema\": \"scbuild-report\""), std::string::npos);
  EXPECT_NE(Report.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(Report.find("\"success\": true"), std::string::npos);
  EXPECT_NE(Report.find("\"files\": {\"compiled\": 3, \"total\": 3}"),
            std::string::npos);
  EXPECT_NE(Report.find("\"phases_us\""), std::string::npos);
  EXPECT_NE(Report.find("\"compile_phases_us\""), std::string::npos);
  EXPECT_NE(Report.find("\"passes\""), std::string::npos);
  EXPECT_NE(Report.find("\"state\""), std::string::npos);
  EXPECT_NE(Report.find("\"metrics\""), std::string::npos);
  EXPECT_NE(Report.find("build.builds"), std::string::npos);
}

TEST(BuildTelemetry, DecisionLogHasLastBuildSemantics) {
  InMemoryFileSystem FS;
  writeProject(FS);
  MetricsRegistry Metrics;
  BuildDriver Driver(FS, telemetryOptions(nullptr, &Metrics));
  ASSERT_TRUE(Driver.build().Success);
  ASSERT_TRUE(FS.exists("out/decisions.bin"));

  // After the cold build every TU has decisions.
  bool OK = false;
  std::string Text = explainQuery(FS, "out", "alpha.mc", &OK);
  EXPECT_TRUE(OK) << Text;
  EXPECT_NE(Text.find("cold"), std::string::npos);

  // Rebuild with one touched TU: the log now describes only that TU.
  FS.writeFile("charlie.mc", R"(
    import "bravo.mc";
    fn main() -> int { return inc(10); }
    fn extra() -> int { return 7; }
  )");
  ASSERT_TRUE(Driver.build().Success);
  OK = false;
  Text = explainQuery(FS, "out", "charlie.mc", &OK);
  EXPECT_TRUE(OK) << Text;
  EXPECT_NE(Text.find("main"), std::string::npos);
  OK = false;
  Text = explainQuery(FS, "out", "alpha.mc", &OK);
  EXPECT_TRUE(OK) << Text; // Up to date is not an error...
  EXPECT_NE(Text.find("was not recompiled"), std::string::npos);
}

TEST(BuildTelemetry, UntracedBuildWritesNoDecisionLogWhenDisabled) {
  InMemoryFileSystem FS;
  writeProject(FS);
  MetricsRegistry Metrics;
  BuildOptions BO = telemetryOptions(nullptr, &Metrics);
  BO.Compiler.RecordDecisions = false;
  BuildDriver Driver(FS, BO);
  ASSERT_TRUE(Driver.build().Success);
  EXPECT_FALSE(FS.exists("out/decisions.bin"));
}

TEST(BuildTelemetry, TracingDoesNotPerturbOutputAtAnyJobCount) {
  // Telemetry observes the build, it never steers it: the linked
  // program and persisted state must be byte-identical with tracing
  // on at any -j, and identical to an untraced build.
  std::string Reference, ReferenceState;
  {
    InMemoryFileSystem FS;
    writeProject(FS);
    MetricsRegistry Metrics;
    BuildDriver Driver(FS, telemetryOptions(nullptr, &Metrics));
    ASSERT_TRUE(Driver.build().Success);
    ASSERT_TRUE(Driver.program() != nullptr);
    Reference = writeObject(*Driver.program());
    ReferenceState = FS.readFile("out/state.db").value_or("");
  }
  ASSERT_FALSE(Reference.empty());
  for (unsigned Jobs : {1u, 4u, 8u}) {
    InMemoryFileSystem FS;
    writeProject(FS);
    TraceRecorder Trace;
    MetricsRegistry Metrics;
    BuildOptions BO = telemetryOptions(&Trace, &Metrics);
    BO.Jobs = Jobs;
    BuildDriver Driver(FS, BO);
    ASSERT_TRUE(Driver.build().Success) << "-j" << Jobs;
    ASSERT_TRUE(Driver.program() != nullptr);
    EXPECT_EQ(writeObject(*Driver.program()), Reference) << "-j" << Jobs;
    EXPECT_EQ(FS.readFile("out/state.db").value_or(""), ReferenceState)
        << "-j" << Jobs;
    EXPECT_GT(Trace.snapshot().size(), 0u);
  }
}

//===--- Build statistics are the span durations --------------------------===//

namespace {

struct SpanSum {
  uint64_t Ns = 0;
  unsigned Count = 0;
};

/// Total duration and count of the spans of category \p Cat named
/// \p Name — or, when \p Name ends in ':', named with that prefix.
SpanSum sumSpans(const std::vector<TraceEvent> &Events, const char *Cat,
                 const std::string &Name) {
  const bool Prefix = Name.back() == ':';
  SpanSum Sum;
  for (const TraceEvent &E : Events)
    if (E.K == TraceEvent::Kind::Span && std::string(E.Category) == Cat &&
        (Prefix ? E.Name.compare(0, Name.size(), Name) == 0
                : E.Name == Name)) {
      Sum.Ns += E.DurNs;
      ++Sum.Count;
    }
  return Sum;
}

/// \p Us (a stats field) must be the summed span time, within 1 ns per
/// window.
void expectSameTime(double Us, SpanSum Sum, const char *What) {
  EXPECT_NEAR(Us * 1000.0, static_cast<double>(Sum.Ns),
              std::max(1u, Sum.Count))
      << What << " over " << Sum.Count << " span(s)";
}

/// Every timed field of \p S is the duration of its span(s) in
/// \p Events, and the build phases fit inside the whole build.
void expectStatsAreSpanDurations(const BuildStats &S,
                                 const std::vector<TraceEvent> &Events) {
  for (const char *Phase : {"scan", "compile", "link", "stateSave"})
    EXPECT_EQ(sumSpans(Events, "build", Phase).Count, 1u) << Phase;
  expectSameTime(S.ScanUs, sumSpans(Events, "build", "scan"), "scan");
  expectSameTime(S.CompileUs, sumSpans(Events, "build", "compile"),
                 "compile");
  expectSameTime(S.LinkUs, sumSpans(Events, "build", "link"), "link");
  const SpanSum Load = sumSpans(Events, "build", "stateLoad");
  const SpanSum Save = sumSpans(Events, "build", "stateSave");
  expectSameTime(S.StateIOUs, {Load.Ns + Save.Ns, Load.Count + Save.Count},
                 "stateLoad + stateSave");

  const PhaseTimings &P = S.CompilePhases;
  expectSameTime(P.FrontendUs, sumSpans(Events, "compile.phase", "frontend:"),
                 "frontend");
  expectSameTime(P.StateUs, sumSpans(Events, "compile.phase", "state:"),
                 "state");
  expectSameTime(P.MiddleUs, sumSpans(Events, "compile.phase", "middle:"),
                 "middle");
  expectSameTime(P.BackendUs, sumSpans(Events, "compile.phase", "backend:"),
                 "backend");

  EXPECT_LE(S.ScanUs + S.CompileUs + S.LinkUs + S.StateIOUs, S.TotalUs);
}

void editCharlie(VirtualFileSystem &FS, int Extra) {
  FS.writeFile("charlie.mc", R"(
    import "bravo.mc";
    fn main() -> int { return inc(10); }
    fn extra() -> int { return )" + std::to_string(Extra) + R"(; }
  )");
}

} // namespace

TEST(BuildTelemetry, PhaseStatsAreTheirSpanDurations) {
  InMemoryFileSystem FS;
  writeProject(FS);
  TraceRecorder Trace;
  MetricsRegistry Metrics;
  {
    BuildDriver Driver(FS, telemetryOptions(&Trace, &Metrics));
    BuildStats Cold = Driver.build();
    ASSERT_TRUE(Cold.Success) << Cold.ErrorText;
    std::vector<TraceEvent> Events = Trace.snapshot();
    EXPECT_EQ(sumSpans(Events, "build", "stateLoad").Count, 1u);
    {
      SCOPED_TRACE("cold build");
      expectStatsAreSpanDurations(Cold, Events);
    }

    editCharlie(FS, 7);
    Trace.clear();
    BuildStats Incremental = Driver.build();
    ASSERT_TRUE(Incremental.Success) << Incremental.ErrorText;
    EXPECT_EQ(Incremental.FilesCompiled, 1u);
    SCOPED_TRACE("incremental build");
    expectStatsAreSpanDurations(Incremental, Trace.snapshot());
  }
  {
    // Another holder owns the build lock: a fresh driver loads state,
    // compiles the edit, and persists nothing.
    FileLock Other = FileLock::acquire(FS, "out/.lock", 0);
    ASSERT_TRUE(Other.held());
    editCharlie(FS, 8);
    Trace.clear();
    BuildDriver Driver(FS, telemetryOptions(&Trace, &Metrics));
    BuildStats ReadOnly = Driver.build();
    ASSERT_TRUE(ReadOnly.Success) << ReadOnly.ErrorText;
    EXPECT_TRUE(ReadOnly.ReadOnly);
    EXPECT_EQ(ReadOnly.FilesCompiled, 1u);
    SCOPED_TRACE("read-only build");
    expectStatsAreSpanDurations(ReadOnly, Trace.snapshot());
  }
}

TEST(BuildTelemetry, ImportCycleBuildEmitsItsScanSpan) {
  InMemoryFileSystem FS;
  FS.writeFile("a.mc", "import \"b.mc\";\nfn fa() -> int { return 1; }");
  FS.writeFile("b.mc", "import \"a.mc\";\nfn fb() -> int { return 2; }");
  TraceRecorder Trace;
  MetricsRegistry Metrics;
  BuildDriver Driver(FS, telemetryOptions(&Trace, &Metrics));
  BuildStats S = Driver.build();
  ASSERT_FALSE(S.Success);
  EXPECT_NE(S.ErrorText.find("cycle"), std::string::npos) << S.ErrorText;
  const SpanSum Scan = sumSpans(Trace.snapshot(), "build", "scan");
  EXPECT_EQ(Scan.Count, 1u);
  expectSameTime(S.ScanUs, Scan, "scan");
}

TEST(BuildTelemetry, SemaFailureEmitsItsFrontendSpan) {
  InMemoryFileSystem FS;
  writeProject(FS);
  FS.writeFile("delta.mc", "fn broken() -> int { return nowhere; }");
  TraceRecorder Trace;
  MetricsRegistry Metrics;
  BuildDriver Driver(FS, telemetryOptions(&Trace, &Metrics));
  BuildStats S = Driver.build();
  ASSERT_FALSE(S.Success);
  EXPECT_NE(S.ErrorText.find("delta.mc"), std::string::npos) << S.ErrorText;
  std::vector<TraceEvent> Events = Trace.snapshot();
  EXPECT_EQ(sumSpans(Events, "compile.phase", "frontend:delta.mc").Count, 1u);
  EXPECT_EQ(sumSpans(Events, "compile.phase", "middle:delta.mc").Count, 0u);
  expectSameTime(S.CompilePhases.FrontendUs,
                 sumSpans(Events, "compile.phase", "frontend:"), "frontend");
}

TEST(BuildTelemetry, ReadOnlyBuildEmitsItsStateSaveSpan) {
  InMemoryFileSystem FS;
  writeProject(FS);
  MetricsRegistry Metrics;
  ASSERT_TRUE(BuildDriver(FS, telemetryOptions(nullptr, &Metrics))
                  .build()
                  .Success);
  FileLock Other = FileLock::acquire(FS, "out/.lock", 0);
  ASSERT_TRUE(Other.held());
  TraceRecorder Trace;
  BuildDriver Driver(FS, telemetryOptions(&Trace, &Metrics));
  BuildStats S = Driver.build();
  ASSERT_TRUE(S.Success) << S.ErrorText;
  ASSERT_TRUE(S.ReadOnly);
  std::vector<TraceEvent> Events = Trace.snapshot();
  const SpanSum Load = sumSpans(Events, "build", "stateLoad");
  const SpanSum Save = sumSpans(Events, "build", "stateSave");
  EXPECT_EQ(Save.Count, 1u);
  expectSameTime(S.StateIOUs, {Load.Ns + Save.Ns, Load.Count + Save.Count},
                 "stateLoad + stateSave");
}

//===--- Stale-lock auto-recovery -----------------------------------------===//

namespace {

/// A PID that verifiably belonged to a dead process: fork a child that
/// exits immediately, then reap it.
long deadChildPid() {
  pid_t Child = ::fork();
  if (Child == 0)
    ::_exit(0);
  if (Child < 0)
    return 0;
  int Status = 0;
  ::waitpid(Child, &Status, 0);
  return Child;
}

/// VFS decorator that runs \p Hook immediately before forwarding the
/// first renameFile — a deterministic stand-in for "another process
/// acted in the probe→rename window" of the stale-lock reclaim.
class PreRenameHookFS : public VirtualFileSystem {
public:
  PreRenameHookFS(VirtualFileSystem &Base, std::function<void()> Hook)
      : Base(Base), Hook(std::move(Hook)) {}

  std::optional<std::string> readFile(const std::string &P) override {
    return Base.readFile(P);
  }
  bool writeFile(const std::string &P, const std::string &C) override {
    return Base.writeFile(P, C);
  }
  bool exists(const std::string &P) override { return Base.exists(P); }
  bool removeFile(const std::string &P) override {
    return Base.removeFile(P);
  }
  std::vector<std::string> listFiles() override { return Base.listFiles(); }
  bool renameFile(const std::string &From, const std::string &To) override {
    if (!Fired) {
      Fired = true;
      Hook();
    }
    return Base.renameFile(From, To);
  }
  bool createExclusive(const std::string &P, const std::string &C) override {
    return Base.createExclusive(P, C);
  }

private:
  VirtualFileSystem &Base;
  std::function<void()> Hook;
  bool Fired = false;
};

/// No ".reclaim." capture file may survive a reclaim attempt, won or
/// lost.
void expectNoAsideLitter(VirtualFileSystem &FS) {
  for (const std::string &P : FS.listFiles())
    EXPECT_EQ(P.find(".reclaim."), std::string::npos) << P;
}

} // namespace

TEST(StaleLock, DeadOwnerIsReclaimed) {
  long Dead = deadChildPid();
  ASSERT_GT(Dead, 0);
  InMemoryFileSystem FS;
  ASSERT_TRUE(FS.createExclusive(
      "out/.lock", "pid " + std::to_string(Dead) + "\n"));

  FileLock L = FileLock::acquire(FS, "out/.lock", 20, 2);
  EXPECT_TRUE(L.held());
  EXPECT_TRUE(L.reclaimedStale());
  EXPECT_EQ(L.reclaimedPid(), Dead);
  // The reclaimed lock is now ours: the file names our PID.
  std::optional<std::string> Content = FS.readFile("out/.lock");
  ASSERT_TRUE(Content.has_value());
  EXPECT_NE(Content->find(std::to_string(::getpid())), std::string::npos);
  expectNoAsideLitter(FS);
}

TEST(StaleLock, ReclaimRaceLoserStaysUnlocked) {
  long Dead = deadChildPid();
  ASSERT_GT(Dead, 0);
  InMemoryFileSystem Base;
  ASSERT_TRUE(Base.createExclusive(
      "out/.lock", "pid " + std::to_string(Dead) + "\n"));
  // Between our liveness probe and our capture, another reclaimer
  // captures the corpse: our rename must fail and leave us unlocked —
  // never fall back to a blind unlink.
  PreRenameHookFS FS(Base, [&] { Base.removeFile("out/.lock"); });
  FileLock L = FileLock::acquire(FS, "out/.lock", 20, 2);
  EXPECT_FALSE(L.held());
  EXPECT_FALSE(L.reclaimedStale());
  expectNoAsideLitter(Base);
}

TEST(StaleLock, ReclaimHandsBackAFreshLiveLock) {
  long Dead = deadChildPid();
  ASSERT_GT(Dead, 0);
  InMemoryFileSystem Base;
  ASSERT_TRUE(Base.createExclusive(
      "out/.lock", "pid " + std::to_string(Dead) + "\n"));
  // Worst-case interleaving of the old remove+create reclaim: another
  // waiter completes its whole reclaim (corpse gone, its own live lock
  // created) inside our probe→capture window, so our rename captures a
  // *live* lock. The content re-check must detect the mismatch, hand
  // the file back untouched, and leave us unlocked.
  const std::string Live = "pid " + std::to_string(::getpid()) + " #99\n";
  PreRenameHookFS FS(Base, [&] {
    Base.removeFile("out/.lock");
    EXPECT_TRUE(Base.createExclusive("out/.lock", Live));
  });
  FileLock L = FileLock::acquire(FS, "out/.lock", 20, 2);
  EXPECT_FALSE(L.held());
  EXPECT_FALSE(L.reclaimedStale());
  EXPECT_EQ(Base.readFile("out/.lock").value_or(""), Live);
  expectNoAsideLitter(Base);
}

TEST(StaleLock, ReleaseRefusesAForeignLockFile) {
  InMemoryFileSystem FS;
  FileLock L = FileLock::acquire(FS, "out/.lock", 0);
  ASSERT_TRUE(L.held());
  // Simulate the path ending up holding another process's live lock
  // while we believe we still own it: release() must leave it alone.
  ASSERT_TRUE(FS.removeFile("out/.lock"));
  const std::string Foreign = "pid 424242 #7\n";
  ASSERT_TRUE(FS.createExclusive("out/.lock", Foreign));
  L.release();
  EXPECT_EQ(FS.readFile("out/.lock").value_or(""), Foreign);
}

TEST(StaleLock, LiveOwnerIsNeverReclaimed) {
  InMemoryFileSystem FS;
  ASSERT_TRUE(FS.createExclusive(
      "out/.lock", "pid " + std::to_string(::getpid()) + "\n"));
  FileLock L = FileLock::acquire(FS, "out/.lock", 20, 2);
  EXPECT_FALSE(L.held());
  EXPECT_FALSE(L.reclaimedStale());
  EXPECT_TRUE(FS.exists("out/.lock"));
}

TEST(StaleLock, UnparseableOwnerIsNeverReclaimed) {
  for (const char *Content :
       {"", "garbage", "pid ", "pid abc", "pid 0\n", "pid -4\n"}) {
    InMemoryFileSystem FS;
    ASSERT_TRUE(FS.createExclusive("out/.lock", Content));
    FileLock L = FileLock::acquire(FS, "out/.lock", 15, 2);
    EXPECT_FALSE(L.held()) << "content: '" << Content << "'";
    EXPECT_TRUE(FS.exists("out/.lock"));
  }
}

TEST(StaleLock, BuildReclaimsAndWarnsEndToEnd) {
  long Dead = deadChildPid();
  ASSERT_GT(Dead, 0);
  InMemoryFileSystem FS;
  writeProject(FS);
  ASSERT_TRUE(FS.createExclusive(
      "out/.lock", "pid " + std::to_string(Dead) + "\n"));

  TraceRecorder Trace;
  MetricsRegistry Metrics;
  BuildDriver Driver(FS, telemetryOptions(&Trace, &Metrics));
  BuildStats S = Driver.build();
  ASSERT_TRUE(S.Success) << S.ErrorText;
  // Reclaimed, so NOT read-only: state persisted normally.
  EXPECT_FALSE(S.ReadOnly);
  EXPECT_TRUE(FS.exists("out/state.db"));
  ASSERT_FALSE(S.Warnings.empty());
  bool Warned = false;
  for (const std::string &W : S.Warnings)
    if (W.find("reclaimed stale lock") != std::string::npos &&
        W.find(std::to_string(Dead)) != std::string::npos)
      Warned = true;
  EXPECT_TRUE(Warned);
  // And the trace carries the reclaim instant.
  bool SawInstant = false;
  for (const TraceEvent &E : Trace.snapshot())
    if (E.Name == "lockReclaimed")
      SawInstant = true;
  EXPECT_TRUE(SawInstant);
  // Lock released on the way out.
  EXPECT_FALSE(FS.exists("out/.lock"));
}
