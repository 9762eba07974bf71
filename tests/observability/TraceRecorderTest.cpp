//===- tests/observability/TraceRecorderTest.cpp ---------------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <set>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace sc;

TEST(JsonEscape, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(jsonEscape(std::string("a\x01z", 3)), "a\\u0001z");
}

TEST(TraceRecorder, RecordsSpansAndInstants) {
  TraceRecorder R;
  const uint64_t T0 = nowNanos();
  R.span("cat", "work", T0, T0 + 5000, "{\"k\":1}");
  R.instant("cat", "marker");
  EXPECT_EQ(R.numEvents(), 2u);
  EXPECT_EQ(R.droppedEvents(), 0u);

  std::vector<TraceEvent> Events = R.snapshot();
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_EQ(Events[0].K, TraceEvent::Kind::Span);
  EXPECT_EQ(Events[0].Name, "work");
  EXPECT_EQ(Events[0].DurNs, 5000u);
  EXPECT_EQ(Events[0].ArgsJson, "{\"k\":1}");
  EXPECT_EQ(Events[1].K, TraceEvent::Kind::Instant);
  EXPECT_EQ(Events[1].Name, "marker");
}

TEST(TraceRecorder, DisabledRecorderRecordsNothing) {
  TraceRecorder R(/*StartEnabled=*/false);
  EXPECT_FALSE(R.enabled());
  R.span("cat", "work", 0, 1);
  R.instant("cat", "marker");
  { TraceSpan S(&R, "cat", "raii"); }
  { TraceSpan S(nullptr, "cat", "null-recorder"); }
  EXPECT_EQ(R.numEvents(), 0u);

  // Re-enabled, it records again.
  R.setEnabled(true);
  R.instant("cat", "now");
  EXPECT_EQ(R.numEvents(), 1u);
}

TEST(TraceRecorder, TraceSpanRecordsConstructionToDestruction) {
  TraceRecorder R;
  {
    TraceSpan S(&R, "cat", "scoped");
    S.args("{\"x\":2}");
  }
  std::vector<TraceEvent> Events = R.snapshot();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].Name, "scoped");
  EXPECT_EQ(Events[0].ArgsJson, "{\"x\":2}");
}

//===--- TraceSpan: the one timed scope -----------------------------------===//

TEST(TraceSpan, SampledStackFollowsNestedAndEndedScopes) {
  TraceRecorder R;
  R.setSamplingEnabled(true);
  using Stacks = std::vector<std::string>;
  {
    TraceSpan Build(&R, "build", "build");
    TraceSpan Scan(&R, "build", "scan");
    EXPECT_EQ(R.sampleStacks(), Stacks{"build;scan"});
    Scan.end();
    EXPECT_EQ(R.sampleStacks(), Stacks{"build"});
    TraceSpan Compile(&R, "build", "compile");
    {
      TraceSpan TU(&R, "compile", "compile:util.mc");
      TraceSpan Middle(&R, "compile.phase", "middle:util.mc");
      TraceSpan Pass(&R, "pass", "licm");
      EXPECT_EQ(R.sampleStacks(),
                Stacks{"build;compile;compile:util.mc;middle:util.mc;licm"});
    }
    EXPECT_EQ(R.sampleStacks(), Stacks{"build;compile"});
  }
  EXPECT_TRUE(R.sampleStacks().empty());
  EXPECT_EQ(R.numEvents(), 6u);
}

TEST(TraceSpan, SlotReceivesTheRecordedDuration) {
  TraceRecorder R;
  double SlotUs = 0;
  uint64_t EndedNs = 0;
  {
    TraceSpan S(&R, "cat", "timed", &SlotUs);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EndedNs = S.end();
    EXPECT_EQ(S.end(), 0u) << "a second end() must not time again";
  }
  std::vector<TraceEvent> Events = R.snapshot();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].DurNs, EndedNs);
  EXPECT_GE(Events[0].DurNs, 1000000u);
  EXPECT_EQ(SlotUs, static_cast<double>(Events[0].DurNs) / 1000.0);

  // The slot accumulates: a second window adds its own duration.
  { TraceSpan S(&R, "cat", "again", &SlotUs); }
  Events = R.snapshot();
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_NEAR(SlotUs * 1000.0,
              static_cast<double>(Events[0].DurNs + Events[1].DurNs), 2.0);
}

TEST(TraceSpan, DisabledOrNullRecorderStillFillsTheSlot) {
  TraceRecorder Off(/*StartEnabled=*/false);
  Off.setSamplingEnabled(true);
  for (TraceRecorder *R : {&Off, static_cast<TraceRecorder *>(nullptr)}) {
    double SlotUs = 0;
    {
      TraceSpan S(R, "cat", "untraced", &SlotUs);
      EXPECT_TRUE(Off.sampleStacks().empty()) << "no frame may be pushed";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GE(SlotUs, 1000.0) << (R ? "disabled" : "null") << " recorder";
  }
  EXPECT_EQ(Off.numEvents(), 0u);
}

TEST(TraceRecorder, RingOverflowDropsOldestAndCounts) {
  // Capacity is clamped to a minimum of 16.
  TraceRecorder R(true, 16);
  for (int I = 0; I < 40; ++I)
    R.span("cat", "e" + std::to_string(I), 1000u * I, 1000u * I + 10);
  EXPECT_EQ(R.numEvents(), 16u);
  EXPECT_EQ(R.droppedEvents(), 24u);

  // The survivors are the newest 24..39, oldest-first after reorder.
  std::vector<TraceEvent> Events = R.snapshot();
  ASSERT_EQ(Events.size(), 16u);
  EXPECT_EQ(Events.front().Name, "e24");
  EXPECT_EQ(Events.back().Name, "e39");
}

TEST(TraceRecorder, ClearKeepsRegistrationsDropsEvents) {
  TraceRecorder R;
  R.instant("cat", "one");
  R.clear();
  EXPECT_EQ(R.numEvents(), 0u);
  R.instant("cat", "two");
  std::vector<TraceEvent> Events = R.snapshot();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].Name, "two");
}

TEST(TraceRecorder, MultiThreadedRecordingTagsThreadIds) {
  TraceRecorder R;
  R.setThreadName("main");
  constexpr int Threads = 4, PerThread = 50;
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&R, T] {
      R.setThreadName("t" + std::to_string(T));
      for (int I = 0; I < PerThread; ++I) {
        const uint64_t Now = nowNanos();
        R.span("cat", "w", Now, Now + 1);
      }
    });
  for (std::thread &T : Pool)
    T.join();

  std::vector<TraceEvent> Events = R.snapshot();
  EXPECT_EQ(Events.size(), size_t(Threads * PerThread));
  EXPECT_EQ(R.droppedEvents(), 0u);
  std::set<uint32_t> Tids;
  for (const TraceEvent &E : Events)
    Tids.insert(E.Tid);
  EXPECT_EQ(Tids.size(), size_t(Threads));
  // Sorted by start timestamp.
  for (size_t I = 1; I < Events.size(); ++I)
    EXPECT_LE(Events[I - 1].StartNs, Events[I].StartNs);

  // All four worker names (plus "main") appear as thread_name metadata.
  const std::string Json = R.toChromeJson();
  EXPECT_NE(Json.find("\"main\""), std::string::npos);
  for (int T = 0; T < Threads; ++T)
    EXPECT_NE(Json.find("\"t" + std::to_string(T) + "\""), std::string::npos);
}

TEST(TraceRecorder, SnapshotWhileRecordingIsSafe) {
  // The merge/inspect paths must be callable while workers are still
  // appending (per-ring locks): hammer snapshot/numEvents/clear from
  // the main thread against concurrent recorders. Correctness here is
  // "no crash / no torn reads" (TSan-visible), not event counts.
  TraceRecorder R;
  std::atomic<bool> Stop{false};
  constexpr int Threads = 4;
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&R, &Stop] {
      while (!Stop.load(std::memory_order_relaxed)) {
        const uint64_t Now = nowNanos();
        R.span("cat", "w", Now, Now + 1);
        R.instant("cat", "i");
      }
    });
  for (int I = 0; I < 200; ++I) {
    std::vector<TraceEvent> Events = R.snapshot();
    for (size_t J = 1; J < Events.size(); ++J)
      EXPECT_LE(Events[J - 1].StartNs, Events[J].StartNs);
    (void)R.numEvents();
    (void)R.droppedEvents();
    if (I % 50 == 49)
      R.clear();
  }
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &T : Pool)
    T.join();
  (void)R.toChromeJson();
}

TEST(TraceRecorder, ChromeJsonShape) {
  TraceRecorder R;
  R.setThreadName("build-main");
  const uint64_t T0 = nowNanos();
  R.span("build", "scan", T0, T0 + 2000, "{\"files\":3}");
  R.instant("pass.skip", "dce", "{\"reason\":\"skipped:dormant\"}");

  const std::string Json = R.toChromeJson();
  // Top-level object with the trace-event array and a time unit.
  EXPECT_EQ(Json.front(), '{');
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"displayTimeUnit\""), std::string::npos);
  // Metadata naming the process and the thread.
  EXPECT_NE(Json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(Json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(Json.find("build-main"), std::string::npos);
  // The complete span: X phase with a dur, category, args.
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(Json.find("\"cat\":\"build\""), std::string::npos);
  EXPECT_NE(Json.find("\"files\":3"), std::string::npos);
  // The instant: i phase, thread scope, dormancy verdict payload.
  EXPECT_NE(Json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(Json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(Json.find("skipped:dormant"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  long Braces = 0, Brackets = 0;
  bool InString = false;
  for (size_t I = 0; I < Json.size(); ++I) {
    char C = Json[I];
    if (InString) {
      if (C == '\\')
        ++I;
      else if (C == '"')
        InString = false;
      continue;
    }
    if (C == '"')
      InString = true;
    else if (C == '{')
      ++Braces;
    else if (C == '}')
      --Braces;
    else if (C == '[')
      ++Brackets;
    else if (C == ']')
      --Brackets;
  }
  EXPECT_EQ(Braces, 0);
  EXPECT_EQ(Brackets, 0);
  EXPECT_FALSE(InString);
}

//===----------------------------------------------------------------------===//
// Streaming sink (daemon mode)
//===----------------------------------------------------------------------===//

namespace {

std::string slurp(const std::string &Path) {
  std::string Out;
  if (std::FILE *F = std::fopen(Path.c_str(), "rb")) {
    char Buf[4096];
    size_t N;
    while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
      Out.append(Buf, N);
    std::fclose(F);
  }
  return Out;
}

struct TempTracePath {
  std::string Path;
  TempTracePath() {
    char Buf[] = "/tmp/sc-trace-XXXXXX";
    int FD = ::mkstemp(Buf);
    if (FD >= 0)
      ::close(FD);
    Path = Buf;
  }
  ~TempTracePath() { ::unlink(Path.c_str()); }
};

/// Cheap well-formedness: balanced braces/brackets outside strings.
bool balancedJson(const std::string &Json) {
  long Braces = 0, Brackets = 0;
  bool InString = false;
  for (size_t I = 0; I < Json.size(); ++I) {
    char C = Json[I];
    if (InString) {
      if (C == '\\')
        ++I;
      else if (C == '"')
        InString = false;
      continue;
    }
    if (C == '"')
      InString = true;
    else if (C == '{')
      ++Braces;
    else if (C == '}')
      --Braces;
    else if (C == '[')
      ++Brackets;
    else if (C == ']')
      --Brackets;
  }
  return Braces == 0 && Brackets == 0 && !InString;
}

} // namespace

TEST(TraceStreaming, FlushDrainsRingsIntoSink) {
  TempTracePath Tmp;
  FileTraceSink Sink(Tmp.Path);
  ASSERT_TRUE(Sink.ok());

  TraceRecorder R;
  R.setThreadName("daemon-main");
  R.setSink(&Sink);
  const uint64_t T0 = nowNanos();
  R.span("build", "scan", T0, T0 + 1000);
  R.instant("build", "tempSweep", "{\"removed\":2}");

  EXPECT_GE(R.flush(), 2u); // 2 events (+ metadata rows don't count).
  EXPECT_EQ(R.numEvents(), 0u) << "flush must clear the rings";
  EXPECT_EQ(R.flush(), 0u) << "nothing new, nothing emitted";

  // A second request's events append to the same stream.
  const uint64_t T1 = nowNanos();
  R.span("build", "link", T1, T1 + 500);
  EXPECT_EQ(R.flush(), 1u);

  // Mid-run (no close): a truncated array readable by Perfetto.
  std::string Mid = slurp(Tmp.Path);
  EXPECT_EQ(Mid.front(), '[');
  EXPECT_NE(Mid.find("\"scan\""), std::string::npos);
  EXPECT_NE(Mid.find("\"link\""), std::string::npos);
  EXPECT_NE(Mid.find("daemon-main"), std::string::npos)
      << "thread_name metadata must stream too";
  EXPECT_NE(Mid.find("tempSweep"), std::string::npos);

  // close() seals it into strictly valid JSON.
  EXPECT_TRUE(Sink.close());
  std::string Full = slurp(Tmp.Path);
  EXPECT_TRUE(balancedJson(Full)) << Full;
  EXPECT_EQ(Full.front(), '[');
  EXPECT_EQ(Full[Full.find_last_not_of('\n')], ']');

  R.setSink(nullptr); // Detach before the sink dies.
}

TEST(TraceStreaming, ThreadNameMetadataEmittedOncePerThread) {
  TempTracePath Tmp;
  FileTraceSink Sink(Tmp.Path);
  ASSERT_TRUE(Sink.ok());
  TraceRecorder R;
  R.setThreadName("main");
  R.setSink(&Sink);

  const uint64_t T0 = nowNanos();
  R.span("c", "one", T0, T0 + 10);
  R.flush();
  R.span("c", "two", T0 + 20, T0 + 30);
  R.flush();
  Sink.close();

  const std::string Json = slurp(Tmp.Path);
  size_t Count = 0;
  for (size_t Pos = Json.find("thread_name"); Pos != std::string::npos;
       Pos = Json.find("thread_name", Pos + 1))
    ++Count;
  EXPECT_EQ(Count, 1u) << Json;
  R.setSink(nullptr);
}

TEST(TraceStreaming, FlushWithoutSinkKeepsEvents) {
  TraceRecorder R;
  const uint64_t T0 = nowNanos();
  R.span("c", "kept", T0, T0 + 10);
  EXPECT_EQ(R.flush(), 0u);
  EXPECT_EQ(R.numEvents(), 1u)
      << "no sink: flush must not drop events (toChromeJson path)";
}
