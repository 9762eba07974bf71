//===- tests/observability/HistoryTest.cpp ---------------------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The build-history ledger under fire: codec round-trips, checksum
/// rejection of corrupt lines, torn-tail tolerance, --history-limit
/// truncation, and a fault-injection sweep (torn writes, sticky
/// ENOSPC, mid-operation crashes) proving the two ledger invariants:
/// a damaged tail never loses earlier records, and ledger I/O failure
/// never fails a build — one warning and a counter, nothing more.
/// Plus `scbuild analyze` over synthetic ledgers: critical path,
/// bottleneck attribution, and A-vs-B diff reason codes.
///
//===----------------------------------------------------------------------===//

#include "build_sys/Analyze.h"
#include "build_sys/BuildSystem.h"
#include "build_sys/History.h"
#include "support/FaultyFileSystem.h"
#include "support/FileSystem.h"
#include "support/Hashing.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace sc;

namespace {

constexpr const char *LedgerPath = "out/history.jsonl";

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

BuildOptions ledgerOptions(MetricsRegistry *Metrics = nullptr) {
  BuildOptions BO;
  BO.Compiler.Stateful.SkipMode = StatefulConfig::Mode::HeuristicSkip;
  BO.Compiler.Metrics = Metrics;
  BO.LockTimeoutMs = 50;
  BO.LockBackoffMs = 2;
  return BO;
}

HistoryRecord sampleRecord() {
  HistoryRecord R;
  R.UnixMs = 1700000000123ull;
  R.Success = true;
  R.FilesCompiled = 2;
  R.FilesTotal = 3;
  R.DirtyTUs = {"alpha.mc", "bravo.mc"};
  R.ScanUs = 11;
  R.CompileUs = 240;
  R.LinkUs = 9;
  R.StateIOUs = 31;
  R.TotalUs = 300;
  R.TUs = {{"bravo.mc", 150}, {"alpha.mc", 90}};
  R.Passes = {{"dse", 120, 6}, {"mem2reg", 20, 6}};
  R.Counters["build.files_compiled"] = 2;
  R.Counters["lock.acquire_waits"] = 1;
  R.Gauges["daemon.queue_depth"] = 0;
  R.TraceEventsDropped = 0;
  R.WarningsCount = 1;
  return R;
}

} // namespace

//===--- Codec -------------------------------------------------------------===//

TEST(HistoryCodec, RoundTripPreservesEveryField) {
  HistoryRecord In = sampleRecord();
  In.BuildId = 7;
  const std::string Line = BuildHistory::serializeRecord(In);

  HistoryRecord Out;
  ASSERT_TRUE(BuildHistory::parseRecord(Line, Out));
  EXPECT_EQ(Out.SchemaVersion, HistorySchemaVersion);
  EXPECT_EQ(Out.BuildId, 7u);
  EXPECT_EQ(Out.UnixMs, In.UnixMs);
  EXPECT_TRUE(Out.Success);
  EXPECT_FALSE(Out.ReadOnly);
  EXPECT_EQ(Out.FilesCompiled, 2u);
  EXPECT_EQ(Out.FilesTotal, 3u);
  EXPECT_EQ(Out.DirtyTUs, In.DirtyTUs);
  EXPECT_EQ(Out.CompileUs, 240u);
  EXPECT_EQ(Out.TotalUs, 300u);
  ASSERT_EQ(Out.TUs.size(), 2u);
  EXPECT_EQ(Out.TUs[0].Name, "bravo.mc");
  EXPECT_EQ(Out.TUs[0].DurUs, 150u);
  ASSERT_EQ(Out.Passes.size(), 2u);
  EXPECT_EQ(Out.Passes[0].Name, "dse");
  EXPECT_EQ(Out.Passes[0].Count, 6u);
  EXPECT_EQ(Out.Counters.at("build.files_compiled"), 2u);
  EXPECT_EQ(Out.Gauges.count("daemon.queue_depth"), 1u);
  EXPECT_EQ(Out.WarningsCount, 1u);
}

TEST(HistoryCodec, ChecksumRejectsEverysingleByteCorruption) {
  HistoryRecord In = sampleRecord();
  In.BuildId = 1;
  const std::string Line = BuildHistory::serializeRecord(In);

  // Any flipped byte in the body must fail the crc; a flipped byte in
  // the crc itself must mismatch the body. Step a stride to keep the
  // sweep fast without losing coverage classes.
  for (size_t I = 0; I < Line.size(); I += 7) {
    std::string Bad = Line;
    Bad[I] = Bad[I] == 'x' ? 'y' : 'x';
    if (Bad == Line)
      continue;
    HistoryRecord Out;
    EXPECT_FALSE(BuildHistory::parseRecord(Bad, Out))
        << "corruption at byte " << I << " went undetected";
  }
}

TEST(HistoryCodec, TruncatedLineRejected) {
  HistoryRecord In = sampleRecord();
  const std::string Line = BuildHistory::serializeRecord(In);
  for (size_t Keep : {size_t(0), size_t(1), Line.size() / 2, Line.size() - 1}) {
    HistoryRecord Out;
    EXPECT_FALSE(BuildHistory::parseRecord(Line.substr(0, Keep), Out));
  }
}

//===--- Ledger I/O --------------------------------------------------------===//

TEST(HistoryLedger, AppendAssignsMonotoneIdsAndTruncatesOldest) {
  InMemoryFileSystem FS;
  for (int I = 0; I != 5; ++I) {
    HistoryRecord R = sampleRecord();
    ASSERT_TRUE(BuildHistory::append(FS, LedgerPath, R, /*Limit=*/3));
    EXPECT_EQ(R.BuildId, static_cast<uint64_t>(I + 1));
  }
  HistoryLoadResult L = BuildHistory::load(FS, LedgerPath);
  EXPECT_EQ(L.Skipped, 0u);
  ASSERT_EQ(L.Records.size(), 3u); // Oldest two dropped by the limit.
  EXPECT_EQ(L.Records[0].BuildId, 3u);
  EXPECT_EQ(L.Records[2].BuildId, 5u);
}

TEST(HistoryLedger, TornTailSkippedWithoutLosingPriorRecords) {
  InMemoryFileSystem FS;
  HistoryRecord A = sampleRecord(), B = sampleRecord();
  ASSERT_TRUE(BuildHistory::append(FS, LedgerPath, A, 10));
  ASSERT_TRUE(BuildHistory::append(FS, LedgerPath, B, 10));

  // A writer that died mid-append leaves half a line at the tail.
  std::string Ledger = *FS.readFile(LedgerPath);
  HistoryRecord C = sampleRecord();
  C.BuildId = 3;
  std::string Torn = BuildHistory::serializeRecord(C);
  Ledger += Torn.substr(0, Torn.size() / 2) + "\n";
  FS.writeFile(LedgerPath, Ledger);

  HistoryLoadResult L = BuildHistory::load(FS, LedgerPath);
  EXPECT_EQ(L.Skipped, 1u);
  ASSERT_EQ(L.Records.size(), 2u);
  EXPECT_EQ(L.Records[1].BuildId, 2u);

  // The next append heals the ledger: the torn line is dropped in the
  // rewrite and the new record continues the id sequence.
  HistoryRecord D = sampleRecord();
  uint64_t Skipped = 0;
  ASSERT_TRUE(BuildHistory::append(FS, LedgerPath, D, 10, &Skipped));
  EXPECT_EQ(Skipped, 1u);
  EXPECT_EQ(D.BuildId, 3u);
  L = BuildHistory::load(FS, LedgerPath);
  EXPECT_EQ(L.Skipped, 0u);
  ASSERT_EQ(L.Records.size(), 3u);
}

TEST(HistoryLedger, MissingFileIsEmptyLedger) {
  InMemoryFileSystem FS;
  HistoryLoadResult L = BuildHistory::load(FS, LedgerPath);
  EXPECT_EQ(L.Records.size(), 0u);
  EXPECT_EQ(L.Skipped, 0u);
}

namespace {

/// A ledger file holding records 1..N, written directly (no appends).
std::vector<std::string> writeLedger(VirtualFileSystem &FS, unsigned N) {
  std::vector<std::string> Lines;
  std::string Content;
  for (unsigned I = 1; I <= N; ++I) {
    HistoryRecord R = sampleRecord();
    R.BuildId = I;
    Lines.push_back(BuildHistory::serializeRecord(R));
    Content += Lines.back() + "\n";
  }
  FS.writeFile(LedgerPath, Content);
  return Lines;
}

std::vector<std::string> ledgerLines(VirtualFileSystem &FS) {
  std::vector<std::string> Lines;
  std::string Content = FS.readFile(LedgerPath).value_or("");
  for (size_t Pos = 0, End; Pos < Content.size(); Pos = End + 1) {
    End = Content.find('\n', Pos);
    Lines.push_back(Content.substr(Pos, End - Pos));
  }
  return Lines;
}

/// \p Body (a ledger record up to its `,"crc"` suffix) made a line
/// whose checksum verifies.
std::string withCrc(const std::string &Body) {
  char Crc[32];
  std::snprintf(Crc, sizeof(Crc), "%016llx",
                static_cast<unsigned long long>(
                    HashBuilder().addString(Body).digest()));
  return Body + ",\"crc\":\"" + Crc + "\"}";
}

/// A line whose checksum verifies but whose body is not a record.
std::string checksummedGarbage() {
  return withCrc("{\"schema\":\"scbuild-history\",\"build\":[unterminated");
}

/// Record \p R as a schema-1 writer wrote it: version 1, and a
/// "samples" array (sampled span stacks) after "passes".
std::string schemaOneLine(const HistoryRecord &R) {
  const std::string Line = BuildHistory::serializeRecord(R);
  std::string Body = Line.substr(0, Line.rfind(",\"crc\":"));
  const std::string V2 = "\"schema_version\":2,";
  Body.replace(Body.find(V2), V2.size(), "\"schema_version\":1,");
  Body.insert(Body.find("\"counters\":"),
              R"("samples":[{"stack":"build;compile;compile:bravo.mc",)"
              R"("samples":4,"weight_ns":1000000},{"stack":"build;scan",)"
              R"("samples":1,"weight_ns":250000}],)");
  return withCrc(Body);
}

} // namespace

TEST(HistoryLedger, DamagedMiddleLineDroppedOthersKeptByteForByte) {
  InMemoryFileSystem FS;
  constexpr unsigned Limit = 9;
  std::vector<std::string> Lines = writeLedger(FS, Limit);
  std::string Ledger;
  for (size_t I = 0; I != Lines.size(); ++I) {
    std::string Line = Lines[I];
    if (I == 4)
      Line[Line.size() / 2] ^= 1; // One flipped bit mid-record.
    Ledger += Line + "\n";
  }
  FS.writeFile(LedgerPath, Ledger);

  HistoryRecord R = sampleRecord();
  uint64_t Skipped = 0;
  ASSERT_TRUE(BuildHistory::append(FS, LedgerPath, R, Limit, &Skipped));
  EXPECT_EQ(Skipped, 1u);
  EXPECT_EQ(R.BuildId, Limit + 1);

  // The ledger was full, so the damaged line's slot goes to the new
  // record; nothing else is dropped and nothing else is rewritten.
  std::vector<std::string> After = ledgerLines(FS);
  ASSERT_EQ(After.size(), Limit);
  Lines.erase(Lines.begin() + 4);
  for (size_t I = 0; I != Lines.size(); ++I)
    EXPECT_EQ(After[I], Lines[I]) << "retained line " << I << " changed";
  EXPECT_EQ(After.back(), BuildHistory::serializeRecord(R));
  EXPECT_EQ(BuildHistory::load(FS, LedgerPath).Skipped, 0u);
}

TEST(HistoryLedger, DamagedNewestLineNeverReusesAnId) {
  const std::string Damaged[] = {
      "torn", // Fails its checksum.
      checksummedGarbage(), // Checksum holds, record does not parse.
  };
  for (const std::string &Bad : Damaged) {
    SCOPED_TRACE(Bad);
    InMemoryFileSystem FS;
    writeLedger(FS, 3);
    // Newest surviving record is 3; the damaged line comes after it.
    FS.writeFile(LedgerPath, *FS.readFile(LedgerPath) + Bad + "\n");

    HistoryRecord R = sampleRecord();
    uint64_t Skipped = 0;
    ASSERT_TRUE(BuildHistory::append(FS, LedgerPath, R, 10, &Skipped));
    EXPECT_EQ(Skipped, 1u);
    EXPECT_EQ(R.BuildId, 4u);
    HistoryLoadResult L = BuildHistory::load(FS, LedgerPath);
    EXPECT_EQ(L.Skipped, 0u);
    ASSERT_EQ(L.Records.size(), 4u);
    for (size_t I = 0; I != L.Records.size(); ++I)
      EXPECT_EQ(L.Records[I].BuildId, I + 1);
  }
}

TEST(HistoryLedger, SchemaOneLedgerLoadsTakesAppendsAndAnalyzes) {
  InMemoryFileSystem FS;
  std::string Ledger;
  for (uint64_t Id = 1; Id <= 3; ++Id) {
    HistoryRecord R = sampleRecord();
    R.BuildId = Id;
    Ledger += schemaOneLine(R) + "\n";
  }
  ASSERT_NE(Ledger.find("\"samples\":[{"), std::string::npos);
  FS.writeFile(LedgerPath, Ledger);

  HistoryLoadResult L = BuildHistory::load(FS, LedgerPath);
  EXPECT_EQ(L.Skipped, 0u);
  ASSERT_EQ(L.Records.size(), 3u);
  EXPECT_EQ(L.Records[2].SchemaVersion, 1u);
  EXPECT_EQ(L.Records[2].BuildId, 3u);
  EXPECT_EQ(L.Records[2].Passes.size(), 2u);

  HistoryRecord New = sampleRecord();
  uint64_t Skipped = 0;
  ASSERT_TRUE(BuildHistory::append(FS, LedgerPath, New, 10, &Skipped));
  EXPECT_EQ(Skipped, 0u);
  EXPECT_EQ(New.BuildId, 4u);
  const std::string After = *FS.readFile(LedgerPath);
  EXPECT_EQ(After.substr(0, Ledger.size()), Ledger)
      << "schema-1 lines must be kept byte for byte";
  EXPECT_EQ(After.find("\"samples\"", Ledger.size()), std::string::npos);
  L = BuildHistory::load(FS, LedgerPath);
  EXPECT_EQ(L.Skipped, 0u);
  ASSERT_EQ(L.Records.size(), 4u);
  EXPECT_EQ(L.Records[3].SchemaVersion, HistorySchemaVersion);

  AnalyzeOptions Opt;
  Opt.Json = true;
  Opt.BuildId = 3;
  Opt.AgainstId = 2;
  AnalyzeResult R = analyzeHistory(FS, LedgerPath, Opt);
  ASSERT_TRUE(R.OK) << R.Error;
  EXPECT_NE(R.Text.find("\"schema_version\": 3"), std::string::npos);
  EXPECT_NE(R.Text.find("\"build\": 3"), std::string::npos);
  EXPECT_EQ(R.Text.find("\"samples\""), std::string::npos);
}

TEST(HistoryLedger, FullDefaultLedgerStaysAtLimitAfterAppend) {
  InMemoryFileSystem FS;
  const unsigned Limit = BuildOptions().HistoryLimit;
  ASSERT_EQ(Limit, 512u);
  std::vector<std::string> Lines = writeLedger(FS, Limit);

  HistoryRecord R = sampleRecord();
  uint64_t Skipped = 0;
  ASSERT_TRUE(BuildHistory::append(FS, LedgerPath, R, Limit, &Skipped));
  EXPECT_EQ(Skipped, 0u);
  EXPECT_EQ(R.BuildId, Limit + 1);
  std::vector<std::string> After = ledgerLines(FS);
  ASSERT_EQ(After.size(), Limit);
  EXPECT_EQ(After.front(), Lines[1]); // Oldest record dropped.
  EXPECT_EQ(After[Limit - 2], Lines.back());
}

//===--- Builds append on every exit ---------------------------------------===//

TEST(HistoryBuilds, SuccessIncrementalAndFailedBuildsAllAppend) {
  InMemoryFileSystem FS;
  writeProject(FS);
  MetricsRegistry Metrics;
  BuildDriver Driver(FS, ledgerOptions(&Metrics));

  BuildStats S1 = Driver.build(); // Clean.
  ASSERT_TRUE(S1.Success);
  EXPECT_EQ(S1.BuildId, 1u);

  FS.writeFile("bravo.mc", R"(
    import "alpha.mc";
    fn inc(x: int) -> int { return quad(x) + 2; }
  )");
  BuildStats S2 = Driver.build(); // Incremental.
  ASSERT_TRUE(S2.Success);
  EXPECT_EQ(S2.BuildId, 2u);

  FS.writeFile("charlie.mc", "fn main( -> int { broken");
  BuildStats S3 = Driver.build(); // Failed.
  ASSERT_FALSE(S3.Success);
  EXPECT_EQ(S3.BuildId, 3u);

  HistoryLoadResult L = BuildHistory::load(FS, LedgerPath);
  EXPECT_EQ(L.Skipped, 0u);
  ASSERT_EQ(L.Records.size(), 3u);
  EXPECT_TRUE(L.Records[0].Success);
  EXPECT_TRUE(L.Records[1].Success);
  EXPECT_FALSE(L.Records[2].Success);
  // The incremental build's dirty set names the edited TU (and its
  // dependent), not the whole project.
  ASSERT_FALSE(L.Records[1].DirtyTUs.empty());
  EXPECT_LT(L.Records[1].DirtyTUs.size(), L.Records[0].DirtyTUs.size());
  EXPECT_EQ(Metrics.counter("build.history_appends").value(), 3u);
}

TEST(HistoryBuilds, HistoryLimitZeroDisablesLedger) {
  InMemoryFileSystem FS;
  writeProject(FS);
  BuildOptions BO = ledgerOptions();
  BO.HistoryLimit = 0;
  BuildDriver Driver(FS, BO);
  BuildStats S = Driver.build();
  ASSERT_TRUE(S.Success);
  EXPECT_EQ(S.BuildId, 0u);
  EXPECT_FALSE(FS.exists(LedgerPath));
}

//===--- Fault-injection sweep ---------------------------------------------===//

// Sticky ENOSPC starting at each write index: whatever else degrades,
// the build itself must not fail over ledger I/O, the failure must
// surface as a warning plus a zero BuildId, and records appended
// before the disk filled must still load afterwards.
TEST(HistoryFaults, StickyEnospcNeverFailsTheBuild) {
  // Reference run to learn how many writes one warm-then-cold pair of
  // builds performs.
  unsigned TotalWrites = 0;
  {
    InMemoryFileSystem Base;
    writeProject(Base);
    FaultyFileSystem FS(Base);
    BuildDriver Driver(FS, ledgerOptions());
    ASSERT_TRUE(Driver.build().Success);
    TotalWrites = FS.writeOps();
    ASSERT_GT(TotalWrites, 0u);
  }

  for (unsigned Nth = 1; Nth <= TotalWrites; Nth += 3) {
    InMemoryFileSystem Base;
    writeProject(Base);
    FaultyFileSystem FS(Base);
    FS.arm(FaultyFileSystem::Fault::WriteError, Nth, /*Sticky=*/true);
    MetricsRegistry Metrics;
    BuildDriver Driver(FS, ledgerOptions(&Metrics));
    BuildStats S = Driver.build();
    // Ledger (and state) I/O failures degrade, never fail: the only
    // acceptable failure is a compile diagnostic, and this project has
    // none.
    EXPECT_TRUE(S.Success) << "ENOSPC from write " << Nth
                           << " failed the build: " << S.ErrorText;
    if (S.BuildId == 0) {
      EXPECT_FALSE(S.Warnings.empty())
          << "silent ledger append failure at write " << Nth;
    }

    // The disk "recovers"; the next build must append normally and the
    // ledger must load clean.
    BuildDriver Fresh(Base, ledgerOptions());
    BuildStats S2 = Fresh.build();
    EXPECT_TRUE(S2.Success);
    EXPECT_GT(S2.BuildId, 0u);
    HistoryLoadResult L = BuildHistory::load(Base, LedgerPath);
    EXPECT_EQ(L.Skipped, 0u) << "write " << Nth;
    ASSERT_FALSE(L.Records.empty());
    for (size_t I = 1; I < L.Records.size(); ++I)
      EXPECT_GT(L.Records[I].BuildId, L.Records[I - 1].BuildId);
  }
}

// A torn write at each index: the atomic rewrite path (temp + rename)
// must leave the previous ledger intact when the temp write tears.
TEST(HistoryFaults, TornWritesNeverLosePriorRecords) {
  unsigned TotalWrites = 0;
  {
    InMemoryFileSystem Base;
    writeProject(Base);
    FaultyFileSystem FS(Base);
    BuildDriver D1(FS, ledgerOptions());
    ASSERT_TRUE(D1.build().Success);
    BuildDriver D2(FS, ledgerOptions());
    ASSERT_TRUE(D2.build().Success);
    TotalWrites = FS.writeOps();
  }

  for (unsigned Nth = 1; Nth <= TotalWrites; Nth += 3) {
    InMemoryFileSystem Base;
    writeProject(Base);
    FaultyFileSystem FS(Base);
    // Build 1 runs clean so the ledger holds a known-good record.
    {
      BuildDriver Driver(FS, ledgerOptions());
      ASSERT_TRUE(Driver.build().Success);
    }
    const unsigned Offset = FS.writeOps();
    FS.arm(FaultyFileSystem::Fault::TornWrite, Offset + Nth);
    {
      BuildDriver Driver(FS, ledgerOptions());
      BuildStats S = Driver.build();
      EXPECT_TRUE(S.Success) << "torn write " << Nth;
    }
    // Whatever tore, record 1 must still parse.
    HistoryLoadResult L = BuildHistory::load(Base, LedgerPath);
    ASSERT_FALSE(L.Records.empty()) << "torn write " << Nth;
    EXPECT_EQ(L.Records.front().BuildId, 1u);
  }
}

// Process death at each mutating operation: afterwards a fresh driver
// must both build successfully and append to a ledger whose surviving
// records parse — a half-renamed or half-written tail is skipped and
// counted, never fatal and never poisoning earlier lines.
TEST(HistoryFaults, CrashSweepLeavesRecoverableLedger) {
  unsigned TotalMutations = 0;
  {
    InMemoryFileSystem Base;
    writeProject(Base);
    FaultyFileSystem FS(Base);
    BuildDriver D1(FS, ledgerOptions());
    ASSERT_TRUE(D1.build().Success);
    BuildDriver D2(FS, ledgerOptions());
    ASSERT_TRUE(D2.build().Success);
    TotalMutations = FS.mutatingOps();
  }

  for (unsigned Nth = 1; Nth <= TotalMutations; Nth += 3) {
    InMemoryFileSystem Base;
    writeProject(Base);
    {
      FaultyFileSystem FS(Base);
      FS.arm(FaultyFileSystem::Fault::Crash, Nth);
      try {
        BuildDriver D1(FS, ledgerOptions());
        D1.build();
        BuildDriver D2(FS, ledgerOptions());
        D2.build();
      } catch (const CrashPoint &) {
        // The simulated power cut. Whatever was mid-flight stays as
        // the crash left it.
      }
    }
    // Recovery: a clean driver over the underlying tree.
    MetricsRegistry Metrics;
    BuildDriver Fresh(Base, ledgerOptions(&Metrics));
    BuildStats S = Fresh.build();
    EXPECT_TRUE(S.Success) << "crash at mutating op " << Nth;
    EXPECT_GT(S.BuildId, 0u) << "crash at mutating op " << Nth;
    HistoryLoadResult L = BuildHistory::load(Base, LedgerPath);
    EXPECT_EQ(L.Skipped, 0u) << "post-recovery ledger still damaged";
    for (size_t I = 1; I < L.Records.size(); ++I)
      EXPECT_GT(L.Records[I].BuildId, L.Records[I - 1].BuildId);
    EXPECT_EQ(Metrics.counter("build.history_appends").value(), 1u);
  }
}

//===--- scbuild analyze ---------------------------------------------------===//

namespace {

/// Two synthetic builds: #1 is the slow baseline-to-be, #2 is faster,
/// drops one pass, gains another — exercising every diff reason code.
void writeAnalyzeLedger(VirtualFileSystem &FS) {
  HistoryRecord A = sampleRecord();
  A.TotalUs = 1000;
  A.CompileUs = 800;
  A.TUs = {{"bravo.mc", 700}, {"alpha.mc", 100}};
  A.Passes = {{"dse", 600, 4}, {"licm", 50, 4}};
  ASSERT_TRUE(BuildHistory::append(FS, LedgerPath, A, 10));

  HistoryRecord B = sampleRecord();
  B.TotalUs = 400;
  B.CompileUs = 300;
  B.TUs = {{"bravo.mc", 250}, {"alpha.mc", 50}};
  B.Passes = {{"dse", 200, 4}, {"inline", 40, 4}}; // licm gone, inline new.
  ASSERT_TRUE(BuildHistory::append(FS, LedgerPath, B, 10));
}

} // namespace

TEST(Analyze, NamesSlowestTUAndPass) {
  InMemoryFileSystem FS;
  writeAnalyzeLedger(FS);
  AnalyzeOptions Opt;
  AnalyzeResult R = analyzeHistory(FS, LedgerPath, Opt);
  ASSERT_TRUE(R.OK) << R.Error;
  EXPECT_NE(R.Text.find("critical path"), std::string::npos);
  EXPECT_NE(R.Text.find("bravo.mc"), std::string::npos);
  EXPECT_NE(R.Text.find("dse"), std::string::npos);
}

TEST(Analyze, JsonCarriesSchemaAndSlowestNodes) {
  InMemoryFileSystem FS;
  writeAnalyzeLedger(FS);
  AnalyzeOptions Opt;
  Opt.Json = true;
  AnalyzeResult R = analyzeHistory(FS, LedgerPath, Opt);
  ASSERT_TRUE(R.OK) << R.Error;
  EXPECT_NE(R.Text.find("\"schema\": \"scbuild-analyze\""), std::string::npos);
  EXPECT_NE(R.Text.find("\"schema_version\": 3"), std::string::npos);
  EXPECT_NE(R.Text.find("\"slowest_tu\": {\"name\": \"bravo.mc\""),
            std::string::npos);
  EXPECT_NE(R.Text.find("\"slowest_pass\": {\"name\": \"dse\""),
            std::string::npos);
  EXPECT_NE(R.Text.find("\"critical_path\""), std::string::npos);
}

TEST(Analyze, LockCountersOfAnOlderRecordAreNotReported) {
  // Ledgers written before lock contention stopped being counted carry
  // lock.* counters; they still analyze, and analyze reports none.
  InMemoryFileSystem FS;
  HistoryRecord Old = sampleRecord();
  Old.Counters["lock.constants.acquisitions"] = 900;
  Old.Counters["lock.constants.contended"] = 3;
  Old.Counters["lock.constants.wait_ns"] = 5000000;
  ASSERT_TRUE(BuildHistory::append(FS, LedgerPath, Old, 10));
  const std::string Ledger = *FS.readFile(LedgerPath);
  ASSERT_NE(Ledger.find("\"schema_version\":2,"), std::string::npos);
  ASSERT_NE(Ledger.find("\"lock.constants.wait_ns\":5000000"),
            std::string::npos);

  AnalyzeOptions Opt;
  Opt.Json = true;
  AnalyzeResult J = analyzeHistory(FS, LedgerPath, Opt);
  ASSERT_TRUE(J.OK) << J.Error;
  EXPECT_NE(J.Text.find("\"schema_version\": 3"), std::string::npos);
  EXPECT_EQ(J.Text.find("lock_wait_ns"), std::string::npos);
  EXPECT_EQ(J.Text.find("lock."), std::string::npos);

  Opt.Json = false;
  AnalyzeResult H = analyzeHistory(FS, LedgerPath, Opt);
  ASSERT_TRUE(H.OK) << H.Error;
  EXPECT_NE(H.Text.find("critical path"), std::string::npos);
  EXPECT_EQ(H.Text.find("lock wait"), std::string::npos);
}

TEST(Analyze, DiffEmitsStableReasonCodes) {
  InMemoryFileSystem FS;
  writeAnalyzeLedger(FS);
  AnalyzeOptions Opt;
  Opt.BuildId = 2;
  Opt.AgainstId = 1;
  Opt.Json = true;
  AnalyzeResult R = analyzeHistory(FS, LedgerPath, Opt);
  ASSERT_TRUE(R.OK) << R.Error;
  EXPECT_NE(R.Text.find("\"against\": 1"), std::string::npos);
  // Build 2 vs 1: everything got faster, licm disappeared (fixed),
  // inline appeared (new).
  EXPECT_NE(R.Text.find("node-faster"), std::string::npos);
  EXPECT_NE(R.Text.find("node-fixed"), std::string::npos);
  EXPECT_NE(R.Text.find("node-new"), std::string::npos);
}

TEST(Analyze, UnknownBuildIdIsAnError) {
  InMemoryFileSystem FS;
  writeAnalyzeLedger(FS);
  AnalyzeOptions Opt;
  Opt.BuildId = 99;
  AnalyzeResult R = analyzeHistory(FS, LedgerPath, Opt);
  EXPECT_FALSE(R.OK);
  EXPECT_NE(R.Error.find("99"), std::string::npos);
}

TEST(Analyze, EmptyLedgerIsAnError) {
  InMemoryFileSystem FS;
  AnalyzeOptions Opt;
  AnalyzeResult R = analyzeHistory(FS, LedgerPath, Opt);
  EXPECT_FALSE(R.OK);
}
