//===- build_sys/History.cpp - Cross-build history ledger ----------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "build_sys/History.h"

#include "build_sys/BuildSystem.h"
#include "support/AtomicFile.h"
#include "support/FlatJson.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string_view>

using namespace sc;

namespace {

// Record-size caps: the ledger is a log, not a trace archive. A build
// with more TUs/samples than this keeps the slowest/heaviest ones.
constexpr size_t MaxRecordTUs = 50;
constexpr size_t MaxRecordSamples = 32;

std::string hex16(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

//===--- Nested-JSON parsing on top of JsonCursor -------------------------===//
//
// Ledger records are nested (objects and arrays of objects), which the
// flat wire codec deliberately does not cover; these helpers add the
// recursive cases. Unknown keys are skipped, so records can grow
// additively without a schema bump.

double parseNumber(JsonCursor &C) {
  C.ws();
  const char *Start = C.S.c_str() + C.I;
  char *End = nullptr;
  const double V = std::strtod(Start, &End);
  if (End == Start) {
    C.Bad = true;
    return 0;
  }
  C.I += static_cast<size_t>(End - Start);
  return V;
}

void skipAnyValue(JsonCursor &C);

template <typename Fn> void parseObjectKeys(JsonCursor &C, Fn OnKey) {
  C.expect('{');
  if (C.eat('}'))
    return;
  do {
    std::string Key = C.parseString();
    C.expect(':');
    if (C.Bad)
      return;
    OnKey(Key);
  } while (!C.Bad && C.eat(','));
  C.expect('}');
}

template <typename Fn> void parseArrayElems(JsonCursor &C, Fn OnElem) {
  C.expect('[');
  if (C.eat(']'))
    return;
  do
    OnElem();
  while (!C.Bad && C.eat(','));
  C.expect(']');
}

void skipAnyValue(JsonCursor &C) {
  switch (C.peek()) {
  case '"':
    C.parseString();
    break;
  case '{':
    parseObjectKeys(C, [&](const std::string &) { skipAnyValue(C); });
    break;
  case '[':
    parseArrayElems(C, [&] { skipAnyValue(C); });
    break;
  case 't':
  case 'f':
    C.parseBool();
    break;
  default:
    parseNumber(C);
  }
}

uint64_t parseU64Number(JsonCursor &C) {
  const double V = parseNumber(C);
  return V > 0 ? static_cast<uint64_t>(V) : 0;
}

/// Every ledger line opens with this, so a line that does not is
/// rejected without a parse.
constexpr std::string_view SchemaTag = "{\"schema\":\"scbuild-history\"";

/// The record body of \p Line — every byte before its `,"crc"` suffix
/// — iff the line is complete and the body matches its checksum.
std::optional<std::string_view> checksummedBody(std::string_view Line) {
  const size_t Pos = Line.rfind(",\"crc\":\"");
  // 8 = strlen(",\"crc\":\""), 16 hex digits, then "\"}".
  if (Pos == std::string_view::npos || Line.size() != Pos + 8 + 16 + 2 ||
      Line.substr(Line.size() - 2) != "\"}")
    return std::nullopt;
  const std::string_view Body = Line.substr(0, Pos);
  if (hex16(HashBuilder().addString(Body).digest()) != Line.substr(Pos + 8, 16))
    return std::nullopt;
  return Body;
}

} // namespace

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

std::string BuildHistory::serializeRecord(const HistoryRecord &R) {
  std::string O = std::string(SchemaTag) + ",\"schema_version\":" +
                  std::to_string(R.SchemaVersion) +
                  ",\"build\":" + std::to_string(R.BuildId) +
                  ",\"unix_ms\":" + std::to_string(R.UnixMs);
  O += std::string(",\"success\":") + (R.Success ? "true" : "false");
  O += std::string(",\"read_only\":") + (R.ReadOnly ? "true" : "false");
  O += ",\"files\":{\"compiled\":" + std::to_string(R.FilesCompiled) +
       ",\"total\":" + std::to_string(R.FilesTotal) + "}";

  O += ",\"dirty\":[";
  for (size_t I = 0; I != R.DirtyTUs.size(); ++I) {
    if (I)
      O += ",";
    appendJsonString(O, R.DirtyTUs[I]);
  }
  O += "]";

  O += ",\"phases_us\":{\"scan\":" + std::to_string(R.ScanUs) +
       ",\"compile\":" + std::to_string(R.CompileUs) +
       ",\"link\":" + std::to_string(R.LinkUs) +
       ",\"state_io\":" + std::to_string(R.StateIOUs) +
       ",\"total\":" + std::to_string(R.TotalUs) + "}";

  O += ",\"tus\":[";
  for (size_t I = 0; I != R.TUs.size(); ++I) {
    if (I)
      O += ",";
    O += "{\"name\":";
    appendJsonString(O, R.TUs[I].Name);
    O += ",\"us\":" + std::to_string(R.TUs[I].DurUs) + "}";
  }
  O += "]";

  O += ",\"passes\":[";
  for (size_t I = 0; I != R.Passes.size(); ++I) {
    if (I)
      O += ",";
    O += "{\"name\":";
    appendJsonString(O, R.Passes[I].Name);
    O += ",\"us\":" + std::to_string(R.Passes[I].DurUs) +
         ",\"count\":" + std::to_string(R.Passes[I].Count) + "}";
  }
  O += "]";

  O += ",\"samples\":[";
  for (size_t I = 0; I != R.Samples.size(); ++I) {
    if (I)
      O += ",";
    O += "{\"stack\":";
    appendJsonString(O, R.Samples[I].Stack);
    O += ",\"samples\":" + std::to_string(R.Samples[I].Samples) +
         ",\"weight_ns\":" + std::to_string(R.Samples[I].WeightNs) + "}";
  }
  O += "]";

  O += ",\"counters\":{";
  bool First = true;
  for (const auto &KV : R.Counters) {
    if (!First)
      O += ",";
    First = false;
    appendJsonString(O, KV.first);
    O += ":" + std::to_string(KV.second);
  }
  O += "},\"gauges\":{";
  First = true;
  char Num[64];
  for (const auto &KV : R.Gauges) {
    if (!First)
      O += ",";
    First = false;
    appendJsonString(O, KV.first);
    std::snprintf(Num, sizeof(Num), "%.10g", KV.second);
    O += ":";
    O += Num;
  }
  O += "}";

  O += ",\"trace\":{\"events_dropped\":" +
       std::to_string(R.TraceEventsDropped) + "}";
  O += ",\"warnings\":" + std::to_string(R.WarningsCount);
  if (!R.Error.empty()) {
    O += ",\"error\":";
    appendJsonString(O, R.Error);
  }

  // Checksum covers every byte emitted so far; the line stays valid
  // JSON so per-line consumers (python3, jq) need no special casing.
  O += ",\"crc\":\"" + hex16(HashBuilder().addString(O).digest()) + "\"}";
  return O;
}

bool BuildHistory::parseRecord(const std::string &Line, HistoryRecord &Out) {
  std::optional<std::string_view> Body = checksummedBody(Line);
  if (!Body)
    return false;

  const std::string Doc = std::string(*Body) + "}";
  HistoryRecord R;
  bool SchemaOK = false;
  JsonCursor C(Doc);
  parseObjectKeys(C, [&](const std::string &Key) {
    if (Key == "schema")
      SchemaOK = C.parseString() == "scbuild-history";
    else if (Key == "schema_version")
      R.SchemaVersion = parseU64Number(C);
    else if (Key == "build")
      R.BuildId = parseU64Number(C);
    else if (Key == "unix_ms")
      R.UnixMs = parseU64Number(C);
    else if (Key == "success")
      R.Success = C.parseBool();
    else if (Key == "read_only")
      R.ReadOnly = C.parseBool();
    else if (Key == "files")
      parseObjectKeys(C, [&](const std::string &K) {
        if (K == "compiled")
          R.FilesCompiled = static_cast<unsigned>(parseU64Number(C));
        else if (K == "total")
          R.FilesTotal = static_cast<unsigned>(parseU64Number(C));
        else
          skipAnyValue(C);
      });
    else if (Key == "dirty")
      parseArrayElems(C, [&] { R.DirtyTUs.push_back(C.parseString()); });
    else if (Key == "phases_us")
      parseObjectKeys(C, [&](const std::string &K) {
        if (K == "scan")
          R.ScanUs = parseU64Number(C);
        else if (K == "compile")
          R.CompileUs = parseU64Number(C);
        else if (K == "link")
          R.LinkUs = parseU64Number(C);
        else if (K == "state_io")
          R.StateIOUs = parseU64Number(C);
        else if (K == "total")
          R.TotalUs = parseU64Number(C);
        else
          skipAnyValue(C);
      });
    else if (Key == "tus")
      parseArrayElems(C, [&] {
        HistoryTU T;
        parseObjectKeys(C, [&](const std::string &K) {
          if (K == "name")
            T.Name = C.parseString();
          else if (K == "us")
            T.DurUs = parseU64Number(C);
          else
            skipAnyValue(C);
        });
        R.TUs.push_back(std::move(T));
      });
    else if (Key == "passes")
      parseArrayElems(C, [&] {
        HistoryPass P;
        parseObjectKeys(C, [&](const std::string &K) {
          if (K == "name")
            P.Name = C.parseString();
          else if (K == "us")
            P.DurUs = parseU64Number(C);
          else if (K == "count")
            P.Count = parseU64Number(C);
          else
            skipAnyValue(C);
        });
        R.Passes.push_back(std::move(P));
      });
    else if (Key == "samples")
      parseArrayElems(C, [&] {
        HistorySample Smp;
        parseObjectKeys(C, [&](const std::string &K) {
          if (K == "stack")
            Smp.Stack = C.parseString();
          else if (K == "samples")
            Smp.Samples = parseU64Number(C);
          else if (K == "weight_ns")
            Smp.WeightNs = parseU64Number(C);
          else
            skipAnyValue(C);
        });
        R.Samples.push_back(std::move(Smp));
      });
    else if (Key == "counters")
      parseObjectKeys(C, [&](const std::string &K) {
        R.Counters[K] = parseU64Number(C);
      });
    else if (Key == "gauges")
      parseObjectKeys(C,
                      [&](const std::string &K) { R.Gauges[K] = parseNumber(C); });
    else if (Key == "trace")
      parseObjectKeys(C, [&](const std::string &K) {
        if (K == "events_dropped")
          R.TraceEventsDropped = parseU64Number(C);
        else
          skipAnyValue(C);
      });
    else if (Key == "warnings")
      R.WarningsCount = parseU64Number(C);
    else if (Key == "error")
      R.Error = C.parseString();
    else
      skipAnyValue(C);
  });
  if (C.Bad || !SchemaOK)
    return false;
  Out = std::move(R);
  return true;
}

//===----------------------------------------------------------------------===//
// Ledger I/O
//===----------------------------------------------------------------------===//

namespace {

/// Calls \p OnLine with each non-empty line of the ledger at \p Path
/// (a missing file has none). The one splitter load() and append()
/// share.
template <typename Fn>
void forEachLedgerLine(VirtualFileSystem &FS, const std::string &Path,
                       Fn OnLine) {
  std::optional<std::string> Content = FS.readFile(Path);
  if (!Content)
    return;
  size_t Pos = 0;
  while (Pos < Content->size()) {
    size_t End = Content->find('\n', Pos);
    if (End == std::string::npos)
      End = Content->size();
    if (End != Pos)
      OnLine(Content->substr(Pos, End - Pos));
    Pos = End + 1;
  }
}

} // namespace

HistoryLoadResult BuildHistory::load(VirtualFileSystem &FS,
                                     const std::string &Path) {
  HistoryLoadResult Out;
  forEachLedgerLine(FS, Path, [&](std::string Line) {
    HistoryRecord R;
    if (parseRecord(Line, R))
      Out.Records.push_back(std::move(R));
    else
      ++Out.Skipped;
  });
  return Out;
}

bool BuildHistory::append(VirtualFileSystem &FS, const std::string &Path,
                          HistoryRecord &R, unsigned Limit,
                          uint64_t *SkippedOut) {
  // Old records are kept byte for byte: a line needs only its checksum
  // and schema tag to survive. Only the newest one is parsed, for the
  // id to continue from; if it parses badly it is dropped like any
  // other damaged line and the next newest is tried.
  std::vector<std::string> Lines;
  uint64_t Skipped = 0;
  forEachLedgerLine(FS, Path, [&](std::string Line) {
    if (checksummedBody(Line) &&
        Line.compare(0, SchemaTag.size(), SchemaTag) == 0)
      Lines.push_back(std::move(Line));
    else
      ++Skipped;
  });
  uint64_t LastId = 0;
  while (!Lines.empty()) {
    HistoryRecord Newest;
    if (parseRecord(Lines.back(), Newest)) {
      LastId = Newest.BuildId;
      break;
    }
    Lines.pop_back();
    ++Skipped;
  }
  if (SkippedOut)
    *SkippedOut = Skipped;
  if (R.BuildId == 0)
    R.BuildId = LastId + 1;
  Lines.push_back(serializeRecord(R));
  // --history-limit: drop the oldest records in the same rewrite.
  const size_t Keep = Limit ? Limit : 1;
  const size_t First = Lines.size() > Keep ? Lines.size() - Keep : 0;
  std::string Content;
  for (size_t I = First; I != Lines.size(); ++I) {
    Content += Lines[I];
    Content += '\n';
  }
  return atomicWriteFile(FS, Path, Content);
}

//===----------------------------------------------------------------------===//
// Record assembly from one finished build
//===----------------------------------------------------------------------===//

HistoryRecord sc::makeHistoryRecord(const BuildStats &S,
                                    const MetricsRegistry *Metrics,
                                    const std::vector<TraceEvent> &Events,
                                    uint64_t BuildStartNs, uint64_t UnixMs) {
  HistoryRecord R;
  R.UnixMs = UnixMs;
  R.Success = S.Success;
  R.ReadOnly = S.ReadOnly;
  R.FilesCompiled = S.FilesCompiled;
  R.FilesTotal = S.FilesTotal;
  R.DirtyTUs = S.DirtyTUs;
  R.ScanUs = static_cast<uint64_t>(S.ScanUs);
  R.CompileUs = static_cast<uint64_t>(S.CompileUs);
  R.LinkUs = static_cast<uint64_t>(S.LinkUs);
  R.StateIOUs = static_cast<uint64_t>(S.StateIOUs);
  R.TotalUs = static_cast<uint64_t>(S.TotalUs);
  R.TraceEventsDropped = S.TraceEventsDropped;
  R.WarningsCount = S.Warnings.size();
  R.Error = S.ErrorText;

  // Aggregate this build's spans. A resident daemon's recorder also
  // holds earlier builds' events; the start-time filter scopes the
  // aggregation to this one.
  std::map<std::string, std::pair<uint64_t, uint64_t>> PassAgg; // us, count
  std::vector<HistorySample> Samples;
  for (const TraceEvent &E : Events) {
    if (E.StartNs < BuildStartNs)
      continue;
    const std::string Cat = E.Category;
    if (Cat == "compile" && E.K == TraceEvent::Kind::Span &&
        E.Name.compare(0, 8, "compile:") == 0) {
      R.TUs.push_back({E.Name.substr(8), E.DurNs / 1000});
    } else if (Cat == "pass" && E.K == TraceEvent::Kind::Span) {
      auto &Agg = PassAgg[E.Name];
      Agg.first += E.DurNs / 1000;
      ++Agg.second;
    } else if (Cat == "sample" && E.K == TraceEvent::Kind::Instant) {
      HistorySample Smp;
      // Args shape is fixed by SamplingProfiler::stop().
      parseFlatObject(E.ArgsJson, [&](JsonCursor &C, const std::string &K) {
        if (K == "stack")
          Smp.Stack = C.parseString();
        else if (K == "samples")
          Smp.Samples = C.parseU64();
        else if (K == "weight_ns")
          Smp.WeightNs = C.parseU64();
        else
          C.skipValue();
      });
      if (!Smp.Stack.empty())
        Samples.push_back(std::move(Smp));
    }
  }

  std::sort(R.TUs.begin(), R.TUs.end(),
            [](const HistoryTU &A, const HistoryTU &B) {
              return A.DurUs != B.DurUs ? A.DurUs > B.DurUs : A.Name < B.Name;
            });
  if (R.TUs.size() > MaxRecordTUs)
    R.TUs.resize(MaxRecordTUs);

  for (const auto &KV : PassAgg)
    R.Passes.push_back({KV.first, KV.second.first, KV.second.second});
  std::sort(R.Passes.begin(), R.Passes.end(),
            [](const HistoryPass &A, const HistoryPass &B) {
              return A.DurUs != B.DurUs ? A.DurUs > B.DurUs : A.Name < B.Name;
            });

  std::sort(Samples.begin(), Samples.end(),
            [](const HistorySample &A, const HistorySample &B) {
              return A.WeightNs != B.WeightNs ? A.WeightNs > B.WeightNs
                                              : A.Stack < B.Stack;
            });
  if (Samples.size() > MaxRecordSamples)
    Samples.resize(MaxRecordSamples);
  R.Samples = std::move(Samples);

  if (Metrics) {
    for (const auto &KV : Metrics->counters())
      R.Counters[KV.first] = KV.second;
    for (const auto &KV : Metrics->gauges())
      R.Gauges[KV.first] = KV.second;
  }
  return R;
}
