//===- build_sys/History.cpp - Cross-build history ledger ----------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "build_sys/History.h"

#include "build_sys/BuildFacts.h"
#include "cache_sys/CacheProtocol.h" // hex16
#include "support/AtomicFile.h"
#include "support/FlatJson.h"
#include "support/Hashing.h"

#include <algorithm>
#include <optional>
#include <string_view>
#include <type_traits>
#include <utility>

using namespace sc;

namespace {

// Record-size cap: the ledger is a log, not a trace archive. A build
// with more TUs than this keeps the slowest ones.
constexpr size_t MaxRecordTUs = 50;

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

/// How a record writes fact \p F: always for the facts schema-1
/// records carried, which readers may index; the others only when
/// nonzero (a missing fact reads as zero), so registry-less records
/// stay small.
JsonField ledgerField(const BuildFact &F) {
  const std::string_view G = F.group();
  return G == "files" || G == "phases_us" || G == "trace" ||
                 F.Path == "success" || F.Path == "read_only"
             ? JsonField::Always
             : JsonField::Sparse;
}

/// Fact member \p V as a record writes it: a time in whole
/// microseconds. Reading takes the member itself.
template <class V> decltype(auto) ledgerValue(V &X) {
  if constexpr (std::is_same_v<V, const double>)
    return JsonWhole{X};
  else
    return (X);
}

/// The facts of one group, which a record nests under the group's
/// ledger name.
template <class R> struct LedgerGroup {
  R &Rec;
  std::string_view Group;
};

} // namespace

// The field lists of a ledger line. A record's facts follow its own
// fields: a top-level fact as a member, a group as one nested object.
namespace sc {

template <> struct JsonFields<HistoryTU> {
  template <class R, class Fn> static void walk(R &X, Fn Do) {
    Do("name", X.Name);
    Do("us", X.DurUs);
  }
};

template <> struct JsonFields<HistoryPass> {
  template <class R, class Fn> static void walk(R &X, Fn Do) {
    Do("name", X.Name);
    Do("us", X.DurUs);
    Do("count", X.Count);
  }
};

template <class Rec> struct JsonFields<LedgerGroup<Rec>> {
  template <class G, class Fn> static void walk(G &X, Fn Do) {
    forEachBuildFact(X.Rec, [&](const BuildFact &F, auto &V) {
      if (F.group() == X.Group)
        Do(F.key(), ledgerValue(V), ledgerField(F));
    });
  }
};

template <> struct JsonFields<HistoryRecord> {
  template <class R, class Fn> static void walk(R &X, Fn Do) {
    Do("schema_version", X.SchemaVersion);
    Do("build", X.BuildId);
    Do("unix_ms", X.UnixMs);
    Do("dirty", X.DirtyTUs);
    Do("tus", X.TUs);
    Do("passes", X.Passes);
    Do("counters", X.Counters);
    Do("gauges", X.Gauges);
    Do("warnings", X.WarningsCount);
    // Groups are adjacent in the list: a group's first fact stands for
    // the whole group's object.
    std::string_view Open;
    forEachBuildFact(X, [&](const BuildFact &F, auto &V) {
      if (F.group().empty())
        Do(F.key(), ledgerValue(V), ledgerField(F));
      else if (F.group() != std::exchange(Open, F.group()))
        Do(ledgerGroup(F.group()), LedgerGroup<R>{X, F.group()},
           JsonField::Sparse);
    });
    Do("error", X.ErrorText, JsonField::Sparse);
  }
};

} // namespace sc

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

std::string BuildHistory::serializeRecord(const HistoryRecord &R) {
  std::string O(SchemaTag);
  writeJsonFields(O, R);
  // Checksum covers every byte emitted so far; the line stays valid
  // JSON so per-line consumers (python3, jq) need no special casing.
  O += ",\"crc\":\"" + hex16(HashBuilder().addString(O).digest()) + "\"}";
  return O;
}

bool BuildHistory::parseRecord(const std::string &Line, HistoryRecord &Out) {
  std::optional<std::string_view> Body = checksummedBody(Line);
  if (!Body || !Body->starts_with(SchemaTag))
    return false;
  HistoryRecord R;
  if (!decodeJson(std::string(*Body) + "}", R))
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
    }
  }

  heaviestFirst(R.TUs, &HistoryTU::DurUs, &HistoryTU::Name, MaxRecordTUs);
  for (const auto &KV : PassAgg)
    R.Passes.push_back({KV.first, KV.second.first, KV.second.second});
  heaviestFirst(R.Passes, &HistoryPass::DurUs, &HistoryPass::Name,
                R.Passes.size());

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
