//===- tests/observability/BuildFactsTest.cpp -----------------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The build-fact list (build_sys/BuildFacts.h) against every surface
/// that renders from it. Each fact is set to a distinct nonzero value
/// and must come back at its path in the report, through a ledger
/// round trip, under its metric name in a fresh registry, and — for
/// the facts an exit frame carries — through the frame codec. A fact
/// added to the list is checked here without edits.
///
//===----------------------------------------------------------------------===//

#include "build_sys/BuildFacts.h"
#include "build_sys/BuildReport.h"
#include "build_sys/Daemon.h"
#include "build_sys/History.h"
#include "support/FaultyFileSystem.h"
#include "support/FileSystem.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <type_traits>

using namespace sc;

namespace {

/// Every fact set to a distinct three-digit value (true for flags).
BuildStats distinctFacts() {
  BuildStats S;
  unsigned N = 100;
  forEachBuildFact(S, [&](const BuildFact &, auto &V) {
    using T = std::decay_t<decltype(V)>;
    ++N;
    if constexpr (std::is_same_v<T, bool>)
      V = true;
    else
      V = static_cast<T>(N);
  });
  return S;
}

/// The report's spelling of a fact value.
template <class T> std::string reportValue(const T &V) {
  if constexpr (std::is_same_v<T, bool>)
    return V ? "true" : "false";
  else if constexpr (std::is_floating_point_v<T>) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.3f", V);
    return Buf;
  } else
    return std::to_string(V);
}

/// The JSON text of the member at \p F's path in the report \p J, or
/// empty when the path is missing.
std::string reportMember(const std::string &J, const BuildFact &F) {
  const std::string Key = "\"" + std::string(F.key()) + "\": ";
  size_t From = 0, To = J.size();
  if (!F.group().empty()) {
    From = J.find("\n  \"" + std::string(F.group()) + "\": {");
    if (From == std::string::npos)
      return "";
    To = J.find('}', From);
  } else if ((From = J.find("\n  " + Key)) == std::string::npos)
    return "";
  const size_t At = J.find(Key, From);
  if (At == std::string::npos || At > To)
    return "";
  const size_t Start = At + Key.size();
  return J.substr(Start, J.find_first_of(",}\n", Start) - Start);
}

/// Every fact value of \p S, in list order, as doubles.
std::vector<double> factValues(const BuildStats &S) {
  std::vector<double> Out;
  forEachBuildFact(S, [&](const BuildFact &, const auto &V) {
    Out.push_back(static_cast<double>(V));
  });
  return Out;
}

} // namespace

TEST(BuildFacts, PathsAndMetricNamesAreUniqueAndGroupsAdjacent) {
  const BuildStats S;
  std::set<std::string_view> Paths, Metrics, ClosedGroups;
  std::string_view Open;
  forEachBuildFact(S, [&](const BuildFact &F, const auto &) {
    EXPECT_TRUE(Paths.insert(F.Path).second) << F.Path;
    EXPECT_TRUE(Metrics.insert(F.Metric).second) << F.Metric;
    EXPECT_EQ(F.Metric.substr(0, 6), "build.") << F.Metric;
    if (F.group() != Open) {
      ClosedGroups.insert(Open);
      Open = F.group();
      EXPECT_FALSE(!Open.empty() && ClosedGroups.count(Open))
          << "group '" << Open << "' is split";
    }
  });
  EXPECT_GT(Paths.size(), 30u);
}

TEST(BuildFacts, EveryFactAppearsAtItsReportPath) {
  const BuildStats S = distinctFacts();
  const std::string J = buildReportJson(S, nullptr);
  forEachBuildFact(S, [&](const BuildFact &F, const auto &V) {
    EXPECT_EQ(reportMember(J, F), reportValue(V)) << F.Path << "\n" << J;
  });
}

TEST(BuildFacts, EveryFactSurvivesTheLedgerRoundTrip) {
  HistoryRecord In;
  static_cast<BuildStats &>(In) = distinctFacts();
  HistoryRecord Out;
  ASSERT_TRUE(BuildHistory::parseRecord(BuildHistory::serializeRecord(In),
                                        Out));
  const std::vector<double> Want = factValues(In), Got = factValues(Out);
  size_t I = 0;
  forEachBuildFact(In, [&](const BuildFact &F, const auto &) {
    EXPECT_EQ(Got[I], Want[I]) << F.Path;
    ++I;
  });
}

// Zero-valued facts stay out of a ledger record unless schema-1 records
// carried them, and read back as zero.
TEST(BuildFacts, LedgerOmitsZeroFactsSchemaOneDidNotCarry) {
  const std::string Line = BuildHistory::serializeRecord(HistoryRecord());
  for (const char *Kept : {"\"success\":false", "\"read_only\":false",
                           "\"files\":{\"compiled\":0,\"total\":0}",
                           "\"phases_us\":{\"scan\":0,", "\"trace\":{"})
    EXPECT_NE(Line.find(Kept), std::string::npos) << Kept << "\n" << Line;
  for (const char *Omitted : {"\"remote\"", "\"deps\"", "\"skip\"",
                              "\"history\"", "\"object_bytes\""})
    EXPECT_EQ(Line.find(Omitted), std::string::npos) << Omitted;
  HistoryRecord Out;
  ASSERT_TRUE(BuildHistory::parseRecord(Line, Out));
  for (double V : factValues(Out))
    EXPECT_EQ(V, 0.0);
}

TEST(BuildFacts, EveryFactLandsUnderItsMetricName) {
  const BuildStats S = distinctFacts();
  MetricsRegistry M;
  publishBuildFacts(S, M);
  std::set<std::string> Counters, Gauges;
  for (const auto &KV : M.counters())
    Counters.insert(KV.first);
  for (const auto &KV : M.gauges())
    Gauges.insert(KV.first);
  forEachBuildFact(S, [&](const BuildFact &F, const auto &V) {
    const std::string Name(F.Metric);
    if (F.Kind == FactKind::Counter) {
      EXPECT_TRUE(Counters.count(Name)) << Name;
      EXPECT_EQ(M.counter(Name).value(), static_cast<uint64_t>(V)) << Name;
    } else {
      EXPECT_TRUE(Gauges.count(Name)) << Name;
      EXPECT_EQ(M.gauge(Name).value(), static_cast<double>(V)) << Name;
    }
  });
  EXPECT_EQ(M.counter("build.builds").value(), 1u);
}

TEST(BuildFacts, EveryFrameFactSurvivesTheFrameCodec) {
  const BuildStats S = distinctFacts();
  DaemonFrame F;
  F.HasStats = true;
  forEachFrameFact(F, [&](auto Member, auto &V) { V = S.*Member; });
  const std::string Wire = encodeFrame(F);
  DaemonFrame D;
  ASSERT_TRUE(decodeFrame(Wire, D)) << Wire;
  EXPECT_TRUE(D.HasStats);
  unsigned Carried = 0;
  forEachFrameFact(D, [&](auto Member, const auto &V) {
    const BuildFact Fact = buildFactOf(Member);
    ASSERT_FALSE(Fact.Path.empty()) << "frame member with no fact";
    EXPECT_EQ(V, S.*Member) << Fact.Path;
    EXPECT_NE(Wire.find("\"" + std::string(Fact.Path) +
                        "\":" + std::to_string(S.*Member)),
              std::string::npos)
        << Fact.Path << " " << Wire;
    ++Carried;
  });
  // The wire carries exactly the frame's facts: every build fact named
  // on it is one forEachFrameFact() walked.
  unsigned OnWire = 0;
  forEachBuildFact(S, [&](const BuildFact &Fact, const auto &) {
    OnWire += Wire.find("\"" + std::string(Fact.Path) + "\":") !=
              std::string::npos;
  });
  EXPECT_GT(Carried, 0u);
  EXPECT_EQ(OnWire, Carried) << Wire;
}

// The build.* facts are published after the ledger append, so the
// warning an append failure adds is counted. Sticky ENOSPC from the
// build's last write on fails the append and nothing before it.
TEST(BuildFacts, WarningsMetricCountsTheLedgerAppendFailure) {
  auto WriteProject = [](VirtualFileSystem &FS) {
    FS.writeFile("util.mc", "fn twice(x: int) -> int { return x * 2; }\n");
    FS.writeFile("main.mc", "import \"util.mc\";\n"
                            "fn main() -> int { return twice(21); }\n");
  };
  unsigned Writes = 0;
  {
    InMemoryFileSystem Base;
    WriteProject(Base);
    FaultyFileSystem FS(Base);
    BuildDriver Driver(FS, BuildOptions());
    ASSERT_TRUE(Driver.build().Success);
    Writes = FS.writeOps();
  }
  InMemoryFileSystem Base;
  WriteProject(Base);
  FaultyFileSystem FS(Base);
  FS.arm(FaultyFileSystem::Fault::WriteError, Writes, /*Sticky=*/true);
  MetricsRegistry Metrics;
  BuildOptions BO;
  BO.Compiler.Metrics = &Metrics;
  BuildDriver Driver(FS, BO);
  BuildStats S = Driver.build();
  ASSERT_TRUE(S.Success) << S.ErrorText;
  EXPECT_EQ(S.BuildId, 0u) << "the ledger append did not fail";
  ASSERT_FALSE(S.Warnings.empty());
  EXPECT_EQ(Metrics.counter("build.warnings").value(), S.Warnings.size());
  EXPECT_EQ(Metrics.counter("build.history_appends").value(), 0u);
}
