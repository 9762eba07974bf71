//===- tests/observability/MetricsTest.cpp ---------------------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "build_sys/BuildReport.h"
#include "build_sys/History.h"
#include "driver/Compiler.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace sc;

TEST(MetricsRegistry, CountersAccumulate) {
  MetricsRegistry M;
  Counter &C = M.counter("builds");
  C.add();
  C.add(4);
  EXPECT_EQ(C.value(), 5u);
  // Same name -> same counter.
  EXPECT_EQ(&M.counter("builds"), &C);
  EXPECT_EQ(M.counter("builds").value(), 5u);
}

TEST(MetricsRegistry, GaugesSetAndMax) {
  MetricsRegistry M;
  Gauge &G = M.gauge("queue_wait");
  G.set(3.5);
  EXPECT_DOUBLE_EQ(G.value(), 3.5);
  G.max(2.0); // Lower: no change.
  EXPECT_DOUBLE_EQ(G.value(), 3.5);
  G.max(9.25); // Higher: wins.
  EXPECT_DOUBLE_EQ(G.value(), 9.25);
}

TEST(MetricsRegistry, ReferencesStayValidAsRegistryGrows) {
  MetricsRegistry M;
  Counter &First = M.counter("first");
  First.add(7);
  // Create enough entries to force any contiguous container to grow.
  for (int I = 0; I < 200; ++I)
    M.counter("c" + std::to_string(I)).add(1);
  EXPECT_EQ(First.value(), 7u);
  EXPECT_EQ(M.counter("first").value(), 7u);
}

TEST(MetricsRegistry, ConcurrentAddsAreLossless) {
  MetricsRegistry M;
  constexpr int Threads = 8, PerThread = 10000;
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&M] {
      // Mix of pre-created and lazily-created names to exercise the
      // registration path under contention too.
      Counter &C = M.counter("shared");
      for (int I = 0; I < PerThread; ++I)
        C.add(1);
      M.gauge("hwm").max(static_cast<double>(PerThread));
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(M.counter("shared").value(),
            uint64_t(Threads) * uint64_t(PerThread));
  EXPECT_DOUBLE_EQ(M.gauge("hwm").value(), double(PerThread));
}

TEST(MetricsRegistry, ToJsonSortedAndWellFormed) {
  MetricsRegistry M;
  M.counter("zeta").add(2);
  M.counter("alpha").add(1);
  M.gauge("mid").set(1.5);
  const std::string J = M.toJson();
  EXPECT_NE(J.find("\"counters\""), std::string::npos);
  EXPECT_NE(J.find("\"gauges\""), std::string::npos);
  // Sorted by name: alpha before zeta.
  EXPECT_LT(J.find("\"alpha\""), J.find("\"zeta\""));
  EXPECT_NE(J.find("\"alpha\":1"), std::string::npos);
  EXPECT_NE(J.find("\"zeta\":2"), std::string::npos);
  EXPECT_NE(J.find("1.5"), std::string::npos);
}

// A gauge has one spelling in every rendering: the registry JSON (the
// report's "metrics" and `sccached --stats --json`), the Prometheus
// text and the ledger record. Seven significant digits tell a short
// rendering apart.
TEST(MetricsRegistry, GaugeReadsTheSameInEveryRendering) {
  MetricsRegistry M;
  M.gauge("cache.bytes_stored").set(1234567.5);
  const std::string Json = "\"cache.bytes_stored\":1234567.5";
  EXPECT_NE(M.toJson().find(Json), std::string::npos) << M.toJson();
  const std::string Report = buildReportJson(BuildStats(), &M);
  EXPECT_NE(Report.find(Json), std::string::npos) << Report;
  const std::string Prom = MetricsTextExporter::render(M);
  EXPECT_NE(Prom.find("\nscbuild_cache_bytes_stored 1234567.5\n"),
            std::string::npos)
      << Prom;
  const std::string Ledger = BuildHistory::serializeRecord(
      makeHistoryRecord(BuildStats(), &M, {}, 0, 0));
  EXPECT_NE(Ledger.find(Json), std::string::npos) << Ledger;
}

//===--- PhaseTimings merge arithmetic ------------------------------------===//

TEST(PhaseTimings, AccumulateSumsEveryPhase) {
  PhaseTimings A, B;
  A.FrontendUs = 1;
  A.MiddleUs = 2;
  A.BackendUs = 3;
  A.StateUs = 4;
  B.FrontendUs = 10;
  B.MiddleUs = 20;
  B.BackendUs = 30;
  B.StateUs = 40;
  A.accumulate(B);
  EXPECT_DOUBLE_EQ(A.FrontendUs, 11);
  EXPECT_DOUBLE_EQ(A.MiddleUs, 22);
  EXPECT_DOUBLE_EQ(A.BackendUs, 33);
  EXPECT_DOUBLE_EQ(A.StateUs, 44);
  EXPECT_DOUBLE_EQ(A.totalUs(), 110);
}

TEST(PhaseTimings, ConcurrentPerWorkerMergeMatchesSerialSum) {
  // The scheduler pattern: each worker accumulates its own TUs'
  // timings locally, then the driver folds the per-worker partials.
  // The fold is commutative addition, so any worker count and any
  // merge order must produce the same totals.
  constexpr int Threads = 6, PerThread = 1000;
  std::vector<PhaseTimings> Partials(Threads);
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&Partials, T] {
      for (int I = 0; I < PerThread; ++I) {
        PhaseTimings TU;
        TU.FrontendUs = 1;
        TU.MiddleUs = 0.5;
        TU.BackendUs = 0.25;
        TU.StateUs = 0.125;
        Partials[T].accumulate(TU);
      }
    });
  for (std::thread &T : Pool)
    T.join();

  PhaseTimings Forward, Backward;
  for (int T = 0; T < Threads; ++T)
    Forward.accumulate(Partials[T]);
  for (int T = Threads - 1; T >= 0; --T)
    Backward.accumulate(Partials[T]);

  const double N = double(Threads) * PerThread;
  EXPECT_DOUBLE_EQ(Forward.FrontendUs, N);
  EXPECT_DOUBLE_EQ(Forward.MiddleUs, N * 0.5);
  EXPECT_DOUBLE_EQ(Forward.BackendUs, N * 0.25);
  EXPECT_DOUBLE_EQ(Forward.StateUs, N * 0.125);
  EXPECT_DOUBLE_EQ(Forward.totalUs(), Backward.totalUs());
  EXPECT_DOUBLE_EQ(Forward.FrontendUs, Backward.FrontendUs);
}
