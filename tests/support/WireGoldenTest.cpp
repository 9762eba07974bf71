//===- tests/support/WireGoldenTest.cpp - Exact wire bytes ----------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Golden bytes for the three serialized forms that cross a process or
// a build: the history ledger line, the sccached messages and the
// scbuildd messages. Ledger lines and sccached frames must stay byte
// for byte what these strings say (old ledgers are checksummed, old
// cache peers are live). scbuildd messages written by an older peer
// must decode to the values listed here. And every decoder skips an
// unknown key whatever its value holds, nested objects and arrays
// included, so each message can grow without breaking older peers.
//
//===----------------------------------------------------------------------===//

#include "build_sys/Daemon.h"
#include "build_sys/History.h"
#include "cache_sys/CacheProtocol.h"
#include "support/Hashing.h"

#include <gtest/gtest.h>

using namespace sc;

namespace {

HistoryRecord goldenRecord() {
  HistoryRecord R;
  R.BuildId = 42;
  R.UnixMs = 1700000000123ull;
  R.Success = false;
  R.FilesCompiled = 2;
  R.FilesTotal = 3;
  R.DirtyTUs = {"alpha.mc", "b \"q\".mc"};
  R.ScanUs = 11.7;
  R.CompileUs = 240.2;
  R.LinkUs = 9;
  R.StateIOUs = 31.9;
  R.TotalUs = 300.5;
  R.CompilePhases.FrontendUs = 0.4; // Nonzero, so written, as "0".
  R.CompilePhases.MiddleUs = 120.9;
  R.Skip.PassesRun = 14;
  R.Skip.PassesSkipped = 40;
  R.RemoteHits = 3;
  R.RemoteRoundTrips = 1;
  R.TUs = {{"bravo.mc", 150}, {"alpha.mc", 90}};
  R.Passes = {{"dse", 120, 6}, {"mem2reg", 20, 6}};
  R.Counters["lock.acquire_waits"] = 1;
  R.Counters["pool.steals"] = 123456789012ull;
  R.Gauges["daemon.queue_depth"] = 0;
  R.Gauges["pool.busy_ratio"] = 0.125;
  R.Gauges["x.big"] = 1.5e12;
  R.WarningsCount = 1;
  R.ErrorText = "main.mc:1: error: bad \"x\"\n\ttab";
  return R;
}

// Split only for width; the line is one string with no whitespace.
const std::string GoldenLedgerLine =
    std::string(
        R"({"schema":"scbuild-history","schema_version":2,"build":42,)"
        R"("unix_ms":1700000000123,"dirty":["alpha.mc","b \"q\".mc"],)"
        R"("tus":[{"name":"bravo.mc","us":150},{"name":"alpha.mc","us":90}],)"
        R"("passes":[{"name":"dse","us":120,"count":6},)"
        R"({"name":"mem2reg","us":20,"count":6}],)"
        R"("counters":{"lock.acquire_waits":1,"pool.steals":123456789012},)"
        R"("gauges":{"daemon.queue_depth":0,"pool.busy_ratio":0.125,)"
        R"("x.big":1.5e+12},"warnings":1,"success":false,"read_only":false,)"
        R"("files":{"compiled":2,"total":3},)"
        R"("phases_us":{"scan":11,"compile":240,"link":9,"state_io":31,)"
        R"("total":300},"compile_phases_us":{"frontend":0,"middle":120},)"
        R"("skip":{"run":14,"skipped":40},"remote":{"hits":3,"round_trips":1},)"
        R"("trace":{"events_dropped":0},"history":{"build_id":42},)"
        R"("error":"main.mc:1: error: bad \"x\"\n\ttab",)") +
    R"("crc":"ad92947a950d265e"})";

/// \p Body (a ledger record up to its `,"crc"` suffix) made a valid line.
std::string withCrc(const std::string &Body) {
  return Body + ",\"crc\":\"" +
         hex16(HashBuilder().addString(Body).digest()) + "\"}";
}

/// An unknown key whose value nests an array in an object in an array.
constexpr const char *NestedUnknown = R"("future":{"a":[1,{"b":2}]})";

} // namespace

//===--- History ledger ----------------------------------------------------===//

TEST(WireGolden, LedgerLineBytes) {
  EXPECT_EQ(BuildHistory::serializeRecord(goldenRecord()), GoldenLedgerLine);
}

TEST(WireGolden, LedgerLineValues) {
  HistoryRecord R;
  ASSERT_TRUE(BuildHistory::parseRecord(GoldenLedgerLine, R));
  EXPECT_EQ(R.SchemaVersion, 2u);
  EXPECT_EQ(R.BuildId, 42u);
  EXPECT_EQ(R.UnixMs, 1700000000123ull);
  EXPECT_FALSE(R.Success);
  EXPECT_EQ(R.DirtyTUs, (std::vector<std::string>{"alpha.mc", "b \"q\".mc"}));
  EXPECT_EQ(R.FilesCompiled, 2u);
  EXPECT_EQ(R.ScanUs, 11.0); // Times are written in whole microseconds.
  EXPECT_EQ(R.TotalUs, 300.0);
  EXPECT_EQ(R.CompilePhases.FrontendUs, 0.0);
  EXPECT_EQ(R.CompilePhases.MiddleUs, 120.0);
  EXPECT_EQ(R.Skip.PassesSkipped, 40u);
  EXPECT_EQ(R.RemoteHits, 3u);
  EXPECT_EQ(R.RemoteMisses, 0u); // Omitted when zero; absent reads zero.
  ASSERT_EQ(R.TUs.size(), 2u);
  EXPECT_EQ(R.TUs[1].Name, "alpha.mc");
  EXPECT_EQ(R.TUs[1].DurUs, 90u);
  ASSERT_EQ(R.Passes.size(), 2u);
  EXPECT_EQ(R.Passes[1].Name, "mem2reg");
  EXPECT_EQ(R.Passes[1].Count, 6u);
  EXPECT_EQ(R.Counters.at("pool.steals"), 123456789012ull);
  EXPECT_EQ(R.Gauges.at("pool.busy_ratio"), 0.125);
  EXPECT_EQ(R.Gauges.at("x.big"), 1.5e12);
  EXPECT_EQ(R.WarningsCount, 1u);
  EXPECT_EQ(R.ErrorText, "main.mc:1: error: bad \"x\"\n\ttab");
}

//===--- sccached ----------------------------------------------------------===//

TEST(WireGolden, CacheRequestPerOp) {
  using Op = CacheRequest::Op;
  auto Req = [](Op O, const char *Kind, std::string Key, std::string Digest,
                uint64_t Size) {
    CacheRequest Q;
    Q.Operation = O;
    Q.Kind = Kind;
    Q.Key = std::move(Key);
    Q.Digest = std::move(Digest);
    Q.Size = Size;
    return Q;
  };
  const std::pair<CacheRequest, const char *> Cases[] = {
      {Req(Op::Get, "entry", hex16(1) + hex16(2), "", 0),
       R"({"op":"get","kind":"entry","key":"00000000000000010000000000000002"})"},
      {Req(Op::Put, "entry", hex16(3), hex16(4), 4096),
       R"({"op":"put","kind":"entry","key":"0000000000000003",)"
       R"("digest":"0000000000000004","size":4096})"},
      {Req(Op::Touch, "obj", hex16(5), hex16(6), 0),
       R"({"op":"touch","kind":"obj","key":"0000000000000005",)"
       R"("digest":"0000000000000006"})"},
      {Req(Op::Stats, "", "", "", 0), R"({"op":"stats"})"},
      {Req(Op::Metrics, "", "", "", 0), R"({"op":"metrics"})"},
      {Req(Op::Shutdown, "", "", "", 0), R"({"op":"shutdown"})"},
  };
  for (const auto &[In, Wire] : Cases) {
    EXPECT_EQ(encodeCacheRequest(In), Wire);
    CacheRequest Back;
    ASSERT_TRUE(decodeCacheRequest(Wire, Back)) << Wire;
    EXPECT_EQ(Back.Operation, In.Operation) << Wire;
    EXPECT_EQ(Back.Kind, In.Kind) << Wire;
    EXPECT_EQ(Back.Key, In.Key) << Wire;
    EXPECT_EQ(Back.Digest, In.Digest) << Wire;
    EXPECT_EQ(Back.Size, In.Size) << Wire;
  }
}

TEST(WireGolden, CacheResponseWithStatsMaskAndDigests) {
  CacheResponse P;
  P.Ok = true;
  P.Mask = "101";
  P.Digest = hex16(7) + hex16(8);
  P.HasStats = true;
  P.Stats = {1, 2, 0, 4, 5, 6, 7, 8, 9, 10};
  const std::string Wire =
      R"({"ok":true,"mask":"101","digest":"00000000000000070000000000000008",)"
      R"("hasStats":true,"gets":1,"hits":2,"puts":4,"touches":5,)"
      R"("evictions":6,"corruptDropped":7,"entries":8,"bytesStored":9,)"
      R"("maxBytes":10})";
  EXPECT_EQ(encodeCacheResponse(P), Wire);
  CacheResponse Back;
  ASSERT_TRUE(decodeCacheResponse(Wire, Back));
  EXPECT_TRUE(Back.Ok);
  EXPECT_FALSE(Back.Found);
  EXPECT_EQ(Back.Mask, "101");
  EXPECT_EQ(Back.Digest, P.Digest);
  EXPECT_TRUE(Back.HasStats);
  EXPECT_EQ(Back.Stats.Misses, 0u);
  EXPECT_EQ(Back.Stats.CorruptDropped, 7u);
  EXPECT_EQ(Back.Stats.MaxBytes, 10u);
}

//===--- scbuildd ----------------------------------------------------------===//

TEST(WireGolden, DaemonRequestsFromAnOlderPeer) {
  const std::string Build =
      R"({"verb":"build","clean":true,"quiet":false,"run":true,)"
      R"("runArgs":[-3,0,42],"opt":0,"mode":1,"reuse":false,"jobs":4,)"
      R"("query":""})";
  DaemonRequest R;
  ASSERT_TRUE(decodeRequest(Build, R));
  EXPECT_EQ(R.Verb, "build");
  EXPECT_TRUE(R.Clean);
  EXPECT_FALSE(R.Quiet);
  EXPECT_TRUE(R.Run);
  EXPECT_EQ(R.RunArgs, (std::vector<int64_t>{-3, 0, 42}));
  EXPECT_EQ(R.Opt, 0); // Not the default (2): an explicit -O0.
  EXPECT_EQ(R.Mode, 1);
  EXPECT_FALSE(R.Reuse);
  EXPECT_EQ(R.Jobs, 4u);
  EXPECT_EQ(R.Query, "");
  EXPECT_EQ(encodeRequest(R), Build);

  const std::string Explain =
      R"({"verb":"explain","clean":false,"quiet":false,"run":false,)"
      R"("runArgs":[],"opt":2,"mode":2,"reuse":false,"jobs":0,)"
      R"("query":"why util.mc"})";
  DaemonRequest E;
  ASSERT_TRUE(decodeRequest(Explain, E));
  EXPECT_EQ(E.Verb, "explain");
  EXPECT_TRUE(E.RunArgs.empty());
  EXPECT_EQ(E.Opt, 2);
  EXPECT_EQ(E.Mode, 2);
  EXPECT_EQ(E.Query, "why util.mc");
  EXPECT_EQ(encodeRequest(E), Explain);
}

TEST(WireGolden, DaemonFramesFromAnOlderPeer) {
  const std::string Busy =
      R"({"type":"busy","text":"","code":3,"queueDepth":2,"retryAfterMs":75})";
  DaemonFrame B;
  ASSERT_TRUE(decodeFrame(Busy, B));
  EXPECT_EQ(B.Type, "busy");
  EXPECT_EQ(B.Code, 3);
  EXPECT_EQ(B.QueueDepth, 2u);
  EXPECT_EQ(B.RetryAfterMs, 75u);
  EXPECT_FALSE(B.HasStats);
  EXPECT_EQ(encodeFrame(B), Busy);

  const std::string Exit =
      R"({"type":"exit","text":"","code":42,"coalesced":true,)"
      R"("files.compiled":1,"files.total":30,"scan.interface_scans":2,)"
      R"("scan.cache_hits":28,"link.objects_parsed":1,"remote.hits":29,)"
      R"("remote.misses":1,"remote.puts":1,"remote.errors":0})";
  DaemonFrame X;
  ASSERT_TRUE(decodeFrame(Exit, X));
  EXPECT_EQ(X.Type, "exit");
  EXPECT_EQ(X.Code, 42);
  EXPECT_TRUE(X.Coalesced);
  EXPECT_TRUE(X.HasStats);
  EXPECT_EQ(X.Compiled, 1u);
  EXPECT_EQ(X.Total, 30u);
  EXPECT_EQ(X.InterfaceScans, 2u);
  EXPECT_EQ(X.ScanCacheHits, 28u);
  EXPECT_EQ(X.ObjectsParsed, 1u);
  EXPECT_EQ(X.RemoteHits, 29u);
  EXPECT_EQ(X.RemoteMisses, 1u);
  EXPECT_EQ(X.RemotePuts, 1u);
  EXPECT_EQ(X.RemoteErrors, 0u);
  EXPECT_EQ(X.QueueDepth, 0u);
  EXPECT_EQ(encodeFrame(X), Exit);

  const std::string Text =
      R"({"type":"err","text":"scbuild: warning: w\n","code":0})";
  DaemonFrame T;
  ASSERT_TRUE(decodeFrame(Text, T));
  EXPECT_EQ(T.Type, "err");
  EXPECT_EQ(T.Text, "scbuild: warning: w\n");
  EXPECT_FALSE(T.HasStats);
  EXPECT_FALSE(T.Coalesced);
  EXPECT_EQ(encodeFrame(T), Text);
}

//===--- Unknown keys ------------------------------------------------------===//

TEST(WireGolden, EveryDecoderSkipsANestedUnknownKey) {
  const std::string N = NestedUnknown;

  HistoryRecord H;
  ASSERT_TRUE(BuildHistory::parseRecord(
      withCrc(R"({"schema":"scbuild-history","schema_version":1,"build":5,)" +
              N + R"(,"files":{"compiled":1,)" + N + "}"),
      H));
  EXPECT_EQ(H.BuildId, 5u);
  EXPECT_EQ(H.FilesCompiled, 1u);

  CacheRequest Q;
  ASSERT_TRUE(decodeCacheRequest(
      "{" + N + R"(,"op":"get","kind":"obj","key":"00000000000000ff"})", Q));
  EXPECT_EQ(Q.Operation, CacheRequest::Op::Get);
  EXPECT_EQ(Q.Key, "00000000000000ff");

  CacheResponse P;
  ASSERT_TRUE(decodeCacheResponse(R"({"ok":true,)" + N + R"(,"found":true})",
                                  P));
  EXPECT_TRUE(P.Ok);
  EXPECT_TRUE(P.Found);

  DaemonRequest R;
  ASSERT_TRUE(decodeRequest(R"({"verb":"status",)" + N + R"(,"jobs":3})", R));
  EXPECT_EQ(R.Verb, "status");
  EXPECT_EQ(R.Jobs, 3u);

  DaemonFrame F;
  ASSERT_TRUE(
      decodeFrame(R"({"type":"out",)" + N + R"(,"text":"hi","code":1})", F));
  EXPECT_EQ(F.Type, "out");
  EXPECT_EQ(F.Text, "hi");
  EXPECT_EQ(F.Code, 1);
}

// Decoders read what a peer sends, so nesting is capped: a value nested
// past the cap makes the message malformed instead of recursing on.
TEST(WireGolden, NestingPastTheCapIsMalformed) {
  auto Nested = [](int Depth) {
    return R"({"verb":"status","future":)" + std::string(Depth, '[') +
           std::string(Depth, ']') + "}";
  };
  DaemonRequest R;
  EXPECT_TRUE(decodeRequest(Nested(32), R));
  EXPECT_FALSE(decodeRequest(Nested(100000), R));
}
