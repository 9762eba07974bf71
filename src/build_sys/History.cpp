//===- build_sys/History.cpp - Cross-build history ledger ----------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "build_sys/History.h"

#include "build_sys/BuildFacts.h"
#include "build_sys/BuildReport.h" // factGroupsJson
#include "cache_sys/CacheProtocol.h" // hex16
#include "support/AtomicFile.h"
#include "support/FlatJson.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <type_traits>

using namespace sc;

namespace {

// Record-size caps: the ledger is a log, not a trace archive. A build
// with more TUs/samples than this keeps the slowest/heaviest ones.
constexpr size_t MaxRecordTUs = 50;
constexpr size_t MaxRecordSamples = 32;

/// Sorts \p V by \p Weight, heaviest first (ties by \p Name), and keeps
/// at most \p Cap elements.
template <class T>
void heaviestFirst(std::vector<T> &V, uint64_t T::*Weight,
                   std::string T::*Name, size_t Cap) {
  std::sort(V.begin(), V.end(), [&](const T &A, const T &B) {
    return A.*Weight != B.*Weight ? A.*Weight > B.*Weight : A.*Name < B.*Name;
  });
  V.resize(std::min(V.size(), Cap));
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

/// The record's own "passes" array holds per-pass times, so the
/// `passes.*` fact group sits under "skip" in the ledger.
std::string_view ledgerGroup(std::string_view Group) {
  return Group == "passes" ? "skip" : Group;
}

/// Whether a record writes fact \p F: always for the facts schema-1
/// records carried, which readers may index; others only when nonzero
/// (a missing fact parses as zero), so registry-less records stay small.
bool writtenInLedger(const BuildFact &F, bool Zero) {
  const std::string_view G = F.group();
  return !Zero || G == "files" || G == "phases_us" || G == "trace" ||
         F.Path == "success" || F.Path == "read_only";
}

// The record's keys besides its facts, and each array element's keys:
// serializeRecord() and parseRecord() walk the same lists.
template <class R, class Fn> void forEachRecordField(R &X, Fn Do) {
  Do("schema_version", X.SchemaVersion);
  Do("build", X.BuildId);
  Do("unix_ms", X.UnixMs);
  Do("dirty", X.DirtyTUs);
  Do("tus", X.TUs);
  Do("passes", X.Passes);
  Do("samples", X.Samples);
  Do("counters", X.Counters);
  Do("gauges", X.Gauges);
  Do("warnings", X.WarningsCount);
}

template <class E, class Fn> void forEachElementField(E &X, Fn Do) {
  using T = std::remove_const_t<E>;
  if constexpr (std::is_same_v<T, HistoryTU>) {
    Do("name", X.Name);
    Do("us", X.DurUs);
  } else if constexpr (std::is_same_v<T, HistoryPass>) {
    Do("name", X.Name);
    Do("us", X.DurUs);
    Do("count", X.Count);
  } else {
    Do("stack", X.Stack);
    Do("samples", X.Samples);
    Do("weight_ns", X.WeightNs);
  }
}

template <class T> constexpr bool IsVector = false;
template <class T> constexpr bool IsVector<std::vector<T>> = true;
template <class T> constexpr bool IsMap = false;
template <class T> constexpr bool IsMap<std::map<std::string, T>> = true;

template <class T> void writeJson(std::string &O, const T &V) {
  if constexpr (std::is_same_v<T, std::string>) {
    appendJsonString(O, V);
  } else if constexpr (std::is_integral_v<T>) {
    O += std::to_string(V);
  } else if constexpr (std::is_floating_point_v<T>) {
    char Num[64];
    std::snprintf(Num, sizeof(Num), "%.10g", V);
    O += Num;
  } else if constexpr (IsVector<T>) {
    O += '[';
    for (size_t I = 0; I != V.size(); ++I) {
      if (I)
        O += ',';
      writeJson(O, V[I]);
    }
    O += ']';
  } else { // An object: a map's entries or an element's fields.
    bool First = true;
    auto Member = [&](const std::string &Key, const auto &X) {
      O += First ? '{' : ',';
      First = false;
      appendJsonString(O, Key);
      O += ':';
      writeJson(O, X);
    };
    if constexpr (IsMap<T>)
      for (const auto &KV : V)
        Member(KV.first, KV.second);
    else
      forEachElementField(V, Member);
    O += First ? "{}" : "}";
  }
}

template <class T> void readJson(JsonCursor &C, T &V);

/// Reads the value of \p Key into the member \p Walk names so; false
/// when no member has that name.
template <class Walk>
bool readNamed(JsonCursor &C, const std::string &Key, Walk W) {
  bool Found = false;
  W([&](std::string_view Name, auto &M) {
    if (!Found && Key == Name) {
      readJson(C, M);
      Found = true;
    }
  });
  return Found;
}

template <class T> void readJson(JsonCursor &C, T &V) {
  if constexpr (std::is_same_v<T, std::string>)
    V = C.parseString();
  else if constexpr (std::is_same_v<T, bool>)
    V = C.parseBool();
  else if constexpr (std::is_integral_v<T>)
    V = static_cast<T>(parseU64Number(C));
  else if constexpr (std::is_floating_point_v<T>)
    V = parseNumber(C);
  else if constexpr (IsVector<T>)
    parseArrayElems(C, [&] { readJson(C, V.emplace_back()); });
  else if constexpr (IsMap<T>)
    parseObjectKeys(C, [&](const std::string &K) { readJson(C, V[K]); });
  else
    parseObjectKeys(C, [&](const std::string &K) {
      if (!readNamed(C, K, [&](auto Do) { forEachElementField(V, Do); }))
        skipAnyValue(C);
    });
}

} // namespace

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

std::string BuildHistory::serializeRecord(const HistoryRecord &R) {
  std::string O(SchemaTag);
  forEachRecordField(R, [&](const char *Key, const auto &V) {
    O.append(",\"").append(Key).append("\":");
    writeJson(O, V);
  });
  auto WholeUs = [](double Us) {
    return std::to_string(static_cast<uint64_t>(Us));
  };
  auto Facts = factGroupsJson(R, WholeUs, /*Compact=*/true, writtenInLedger);
  for (FactGroupJson &G : Facts)
    G.Name = ledgerGroup(G.Name);
  O += renderFactGroups(Facts, ",", "", /*Compact=*/true);
  if (!R.ErrorText.empty()) {
    O += ",\"error\":";
    appendJsonString(O, R.ErrorText);
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
  // The facts under ledger key \p Group ("" for top-level facts).
  auto Facts = [&R](std::string_view Group) {
    return [&R, Group](auto Do) {
      forEachBuildFact(R, [&](const BuildFact &F, auto &V) {
        if (ledgerGroup(F.group()) == Group)
          Do(F.key(), V);
      });
    };
  };
  parseObjectKeys(C, [&](const std::string &Key) {
    if (Key == "schema")
      SchemaOK = C.parseString() == "scbuild-history";
    else if (Key == "error")
      R.ErrorText = C.parseString();
    else if (!readNamed(C, Key, [&](auto Do) { forEachRecordField(R, Do); })) {
      if (C.peek() == '{') // A fact group.
        parseObjectKeys(C, [&](const std::string &K) {
          if (!readNamed(C, K, Facts(Key)))
            skipAnyValue(C);
        });
      else if (!readNamed(C, Key, Facts("")))
        skipAnyValue(C);
    }
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
                          uint64_t *SkippedOut, HistoryTail *Tail) {
  // The surviving lines, each ending in '\n', their count and the
  // newest id.
  std::string Kept;
  size_t Count = 0;
  uint64_t LastId = 0, Skipped = 0;
  std::optional<std::string> Content;
  if (Tail && Tail->Stat && FS.stat(Path) == Tail->Stat &&
      (Content = FS.readFile(Path)) && Content->size() == Tail->Stat->Size) {
    // The ledger this writer last wrote, untouched since: every line is
    // one it wrote, so none needs a check or a parse.
    Kept = std::move(*Content);
    Count = Tail->Lines;
    LastId = Tail->LastId;
  } else {
    // Old records are kept byte for byte: a line needs only its
    // checksum and schema tag to survive. Only the newest one is
    // parsed, for the id to continue from; if it parses badly it is
    // dropped like any other damaged line and the next newest is tried.
    std::vector<std::string> Lines;
    forEachLedgerLine(FS, Path, [&](std::string Line) {
      if (checksummedBody(Line) &&
          Line.compare(0, SchemaTag.size(), SchemaTag) == 0)
        Lines.push_back(std::move(Line));
      else
        ++Skipped;
    });
    while (!Lines.empty()) {
      HistoryRecord Newest;
      if (parseRecord(Lines.back(), Newest)) {
        LastId = Newest.BuildId;
        break;
      }
      Lines.pop_back();
      ++Skipped;
    }
    for (const std::string &Line : Lines)
      Kept.append(Line).push_back('\n');
    Count = Lines.size();
  }
  R.HistoryRecordsSkipped = Skipped;
  if (SkippedOut)
    *SkippedOut = Skipped;
  if (R.BuildId == 0)
    R.BuildId = LastId + 1;
  Kept.append(serializeRecord(R)).push_back('\n');
  // --history-limit: drop the oldest records in the same rewrite.
  size_t Cut = 0;
  for (++Count; Count > std::max(Limit, 1u); --Count)
    Cut = Kept.find('\n', Cut) + 1;
  Kept.erase(0, Cut);
  if (!atomicWriteFile(FS, Path, Kept)) {
    if (Tail)
      Tail->Stat.reset();
    return false;
  }
  if (Tail)
    *Tail = {FS.stat(Path), R.BuildId, Count};
  return true;
}

//===----------------------------------------------------------------------===//
// Record assembly from one finished build
//===----------------------------------------------------------------------===//

HistoryRecord sc::makeHistoryRecord(const BuildStats &S,
                                    const MetricsRegistry *Metrics,
                                    const std::vector<TraceEvent> &Events,
                                    uint64_t BuildStartNs, uint64_t UnixMs) {
  HistoryRecord R;
  static_cast<BuildStats &>(R) = S;
  R.UnixMs = UnixMs;
  R.WarningsCount = S.Warnings.size();

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

  heaviestFirst(R.TUs, &HistoryTU::DurUs, &HistoryTU::Name, MaxRecordTUs);
  for (const auto &KV : PassAgg)
    R.Passes.push_back({KV.first, KV.second.first, KV.second.second});
  heaviestFirst(R.Passes, &HistoryPass::DurUs, &HistoryPass::Name,
                R.Passes.size());
  heaviestFirst(Samples, &HistorySample::WeightNs, &HistorySample::Stack,
                MaxRecordSamples);
  R.Samples = std::move(Samples);

  if (Metrics) {
    // The build.* metrics restate facts the record already carries.
    for (const auto &KV : Metrics->counters())
      if (KV.first.rfind("build.", 0) != 0)
        R.Counters[KV.first] = KV.second;
    for (const auto &KV : Metrics->gauges())
      if (KV.first.rfind("build.", 0) != 0)
        R.Gauges[KV.first] = KV.second;
  }
  return R;
}
