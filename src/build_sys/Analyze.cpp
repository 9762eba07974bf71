//===- build_sys/Analyze.cpp - Cross-build critical-path analyzer --------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "build_sys/Analyze.h"

#include "build_sys/History.h"
#include "support/FlatJson.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace sc;

namespace {

std::string ms(uint64_t Us) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.2f", static_cast<double>(Us) / 1000.0);
  return Buf;
}

std::string pct(uint64_t Part, uint64_t Whole) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.1f%%",
                Whole ? 100.0 * static_cast<double>(Part) /
                            static_cast<double>(Whole)
                      : 0.0);
  return Buf;
}

/// One node on the critical path. Total covers the node and what runs
/// under it; self is total minus the slowest attributed child (the
/// coordination/everything-else share).
struct PathNode {
  std::string Node;
  uint64_t SelfUs = 0;
  uint64_t TotalUs = 0;
};

std::vector<PathNode> criticalPath(const HistoryRecord &R) {
  // Phase times convert to whole microseconds, as the ledger keeps them.
  std::vector<PathNode> Path;
  Path.emplace_back("scan", R.ScanUs, R.ScanUs);
  const uint64_t SlowTU = R.TUs.empty() ? 0 : R.TUs.front().DurUs;
  Path.emplace_back("compile", R.CompileUs > SlowTU ? R.CompileUs - SlowTU : 0,
                    R.CompileUs);
  if (!R.TUs.empty())
    Path.push_back({"tu:" + R.TUs.front().Name, SlowTU, SlowTU});
  if (!R.Passes.empty())
    Path.push_back({"pass:" + R.Passes.front().Name, R.Passes.front().DurUs,
                    R.Passes.front().DurUs});
  Path.emplace_back("link", R.LinkUs, R.LinkUs);
  Path.emplace_back("state_io", R.StateIOUs, R.StateIOUs);
  return Path;
}

/// A named duration for diffing (TU or pass nodes).
struct DiffEntry {
  std::string Node;
  std::string Reason;
  uint64_t Us = 0;        // This build (0 for node-fixed).
  uint64_t AgainstUs = 0; // Baseline (0 for node-new).
};

/// Slower/faster thresholds: relative 20% AND absolute 500us, so
/// micro-jitter on fast nodes never reads as a regression.
bool slower(uint64_t A, uint64_t B) {
  return A > B + B / 5 && A > B + 500;
}

void diffNamed(const std::string &Prefix,
               const std::vector<std::pair<std::string, uint64_t>> &Now,
               const std::vector<std::pair<std::string, uint64_t>> &Base,
               std::vector<DiffEntry> &Out) {
  std::map<std::string, uint64_t> B(Base.begin(), Base.end());
  std::map<std::string, uint64_t> A(Now.begin(), Now.end());
  for (const auto &KV : A) {
    auto It = B.find(KV.first);
    if (It == B.end()) {
      Out.push_back({Prefix + KV.first, "node-new", KV.second, 0});
    } else if (slower(KV.second, It->second)) {
      Out.push_back({Prefix + KV.first, "node-slower", KV.second, It->second});
    } else if (slower(It->second, KV.second)) {
      Out.push_back({Prefix + KV.first, "node-faster", KV.second, It->second});
    }
  }
  for (const auto &KV : B)
    if (!A.count(KV.first))
      Out.push_back({Prefix + KV.first, "node-fixed", 0, KV.second});
}

std::vector<DiffEntry> diffRecords(const HistoryRecord &Now,
                                   const HistoryRecord &Base) {
  std::vector<DiffEntry> Out;
  auto Phase = [&](const char *Name, uint64_t A, uint64_t B) {
    if (slower(A, B))
      Out.push_back({std::string("phase:") + Name, "node-slower", A, B});
    else if (slower(B, A))
      Out.push_back({std::string("phase:") + Name, "node-faster", A, B});
  };
  Phase("scan", Now.ScanUs, Base.ScanUs);
  Phase("compile", Now.CompileUs, Base.CompileUs);
  Phase("link", Now.LinkUs, Base.LinkUs);
  Phase("state_io", Now.StateIOUs, Base.StateIOUs);
  Phase("total", Now.TotalUs, Base.TotalUs);

  std::vector<std::pair<std::string, uint64_t>> NowTUs, BaseTUs;
  for (const HistoryTU &T : Now.TUs)
    NowTUs.emplace_back(T.Name, T.DurUs);
  for (const HistoryTU &T : Base.TUs)
    BaseTUs.emplace_back(T.Name, T.DurUs);
  diffNamed("tu:", NowTUs, BaseTUs, Out);

  std::vector<std::pair<std::string, uint64_t>> NowP, BaseP;
  for (const HistoryPass &P : Now.Passes)
    NowP.emplace_back(P.Name, P.DurUs);
  for (const HistoryPass &P : Base.Passes)
    BaseP.emplace_back(P.Name, P.DurUs);
  diffNamed("pass:", NowP, BaseP, Out);

  // Heaviest movement first; ties by node name for determinism.
  std::sort(Out.begin(), Out.end(), [](const DiffEntry &A, const DiffEntry &B) {
    const uint64_t DA =
        A.Us > A.AgainstUs ? A.Us - A.AgainstUs : A.AgainstUs - A.Us;
    const uint64_t DB =
        B.Us > B.AgainstUs ? B.Us - B.AgainstUs : B.AgainstUs - B.Us;
    return DA != DB ? DA > DB : A.Node < B.Node;
  });
  return Out;
}

uint64_t counterOr0(const HistoryRecord &R, const char *Name) {
  auto It = R.Counters.find(Name);
  return It == R.Counters.end() ? 0 : It->second;
}

std::string renderJson(const HistoryRecord &R, const HistoryRecord *Base,
                       unsigned TopN) {
  std::string J = "{\n";
  J += "  \"schema\": \"scbuild-analyze\",\n";
  J += "  \"schema_version\": 3,\n";
  J += "  \"build\": " + std::to_string(R.BuildId) + ",\n";
  if (Base)
    J += "  \"against\": " + std::to_string(Base->BuildId) + ",\n";
  J += std::string("  \"success\": ") + (R.Success ? "true" : "false") +
       ",\n";
  J += "  \"files\": {\"compiled\": " + std::to_string(R.FilesCompiled) +
       ", \"total\": " + std::to_string(R.FilesTotal) + "},\n";
  J += "  \"total_us\": " + std::to_string(static_cast<uint64_t>(R.TotalUs)) +
       ",\n";

  J += "  \"critical_path\": [";
  bool First = true;
  for (const PathNode &N : criticalPath(R)) {
    if (!First)
      J += ", ";
    First = false;
    J += "{\"node\": ";
    appendJsonString(J, N.Node);
    J += ", \"self_us\": " + std::to_string(N.SelfUs) +
         ", \"total_us\": " + std::to_string(N.TotalUs) + "}";
  }
  J += "],\n";

  if (!R.TUs.empty()) {
    J += "  \"slowest_tu\": {\"name\": ";
    appendJsonString(J, R.TUs.front().Name);
    J += ", \"us\": " + std::to_string(R.TUs.front().DurUs) + "},\n";
  } else {
    J += "  \"slowest_tu\": null,\n";
  }
  if (!R.Passes.empty()) {
    J += "  \"slowest_pass\": {\"name\": ";
    appendJsonString(J, R.Passes.front().Name);
    J += ", \"us\": " + std::to_string(R.Passes.front().DurUs) + "},\n";
  } else {
    J += "  \"slowest_pass\": null,\n";
  }

  J += "  \"bottleneck_tus\": [";
  for (size_t I = 0; I != R.TUs.size() && I != TopN; ++I) {
    if (I)
      J += ", ";
    J += "{\"name\": ";
    appendJsonString(J, R.TUs[I].Name);
    J += ", \"us\": " + std::to_string(R.TUs[I].DurUs) + "}";
  }
  J += "],\n";

  J += "  \"bottleneck_passes\": [";
  for (size_t I = 0; I != R.Passes.size() && I != TopN; ++I) {
    if (I)
      J += ", ";
    J += "{\"name\": ";
    appendJsonString(J, R.Passes[I].Name);
    J += ", \"us\": " + std::to_string(R.Passes[I].DurUs) +
         ", \"count\": " + std::to_string(R.Passes[I].Count) + "}";
  }
  J += "],\n";

  J += "  \"pool\": {\"tasks_executed\": " +
       std::to_string(counterOr0(R, "pool.tasks_executed")) +
       ", \"steals\": " + std::to_string(counterOr0(R, "pool.steals")) +
       ", \"helped_tasks\": " +
       std::to_string(counterOr0(R, "pool.helped_tasks")) +
       ", \"parks\": " + std::to_string(counterOr0(R, "pool.parks")) +
       ", \"park_wait_ns\": " +
       std::to_string(counterOr0(R, "pool.park_wait_ns")) + "},\n";

  J += "  \"trace\": {\"events_dropped\": " +
       std::to_string(R.TraceEventsDropped) + "}";

  if (Base) {
    J += ",\n  \"diff\": {\"against\": " + std::to_string(Base->BuildId) +
         ", \"changes\": [";
    First = true;
    for (const DiffEntry &D : diffRecords(R, *Base)) {
      if (!First)
        J += ", ";
      First = false;
      J += "{\"node\": ";
      appendJsonString(J, D.Node);
      J += ", \"reason\": ";
      appendJsonString(J, D.Reason);
      J += ", \"us\": " + std::to_string(D.Us) +
           ", \"against_us\": " + std::to_string(D.AgainstUs) + "}";
    }
    J += "]}";
  }
  J += "\n}\n";
  return J;
}

std::string renderHuman(const HistoryRecord &R, const HistoryRecord *Base,
                        unsigned TopN) {
  std::string O;
  const char *Kind = R.FilesCompiled == R.FilesTotal && R.FilesTotal
                         ? "full"
                         : (R.FilesCompiled ? "incremental" : "no-op");
  O += "build " + std::to_string(R.BuildId) + " (" + Kind + ", " +
       (R.Success ? "ok" : "FAILED") + (R.ReadOnly ? ", read-only" : "") +
       ") — " + std::to_string(R.FilesCompiled) + "/" +
       std::to_string(R.FilesTotal) + " files compiled, total " +
       ms(R.TotalUs) + " ms\n";
  if (!R.ErrorText.empty())
    O += "  error: " + R.ErrorText.substr(0, 200) + "\n";

  O += "\ncritical path (self / total, share of build):\n";
  for (const PathNode &N : criticalPath(R)) {
    char Line[256];
    std::snprintf(Line, sizeof(Line), "  %-28s %9s ms / %9s ms  %s\n",
                  N.Node.c_str(), ms(N.SelfUs).c_str(), ms(N.TotalUs).c_str(),
                  pct(N.TotalUs, R.TotalUs).c_str());
    O += Line;
  }

  if (!R.TUs.empty()) {
    O += "\nbottleneck TUs (share of compile):\n";
    for (size_t I = 0; I != R.TUs.size() && I != TopN; ++I) {
      char Line[256];
      std::snprintf(Line, sizeof(Line), "  %-28s %9s ms  %s\n",
                    R.TUs[I].Name.c_str(), ms(R.TUs[I].DurUs).c_str(),
                    pct(R.TUs[I].DurUs, R.CompileUs).c_str());
      O += Line;
    }
  }
  if (!R.Passes.empty()) {
    O += "\nbottleneck passes (CPU-sum over functions):\n";
    for (size_t I = 0; I != R.Passes.size() && I != TopN; ++I) {
      char Line[256];
      std::snprintf(Line, sizeof(Line), "  %-28s %9s ms  x%llu\n",
                    R.Passes[I].Name.c_str(), ms(R.Passes[I].DurUs).c_str(),
                    static_cast<unsigned long long>(R.Passes[I].Count));
      O += Line;
    }
  }

  if (const uint64_t Tasks = counterOr0(R, "pool.tasks_executed")) {
    O += "\npool: " + std::to_string(Tasks) + " tasks, " +
         std::to_string(counterOr0(R, "pool.steals")) + " steals, " +
         std::to_string(counterOr0(R, "pool.parks")) + " parks (" +
         ms(counterOr0(R, "pool.park_wait_ns") / 1000) + " ms parked)\n";
  }
  if (R.TraceEventsDropped)
    O += "\nwarning: the trace behind this record dropped " +
         std::to_string(R.TraceEventsDropped) +
         " event(s); TU/pass attribution is incomplete\n";

  if (Base) {
    O += "\nvs build " + std::to_string(Base->BuildId) + " (" +
         ms(Base->TotalUs) + " ms -> " + ms(R.TotalUs) + " ms):\n";
    const auto Changes = diffRecords(R, *Base);
    if (Changes.empty()) {
      O += "  no significant changes\n";
    } else {
      for (const DiffEntry &D : Changes) {
        char Line[256];
        std::snprintf(Line, sizeof(Line), "  %-12s %-28s %9s ms -> %9s ms\n",
                      D.Reason.c_str(), D.Node.c_str(),
                      ms(D.AgainstUs).c_str(), ms(D.Us).c_str());
        O += Line;
      }
    }
  }
  return O;
}

} // namespace

AnalyzeResult sc::analyzeHistory(VirtualFileSystem &FS,
                                 const std::string &HistoryPath,
                                 const AnalyzeOptions &Opt) {
  AnalyzeResult Res;
  HistoryLoadResult Ledger = BuildHistory::load(FS, HistoryPath);
  if (Ledger.Records.empty()) {
    Res.Error = Ledger.Skipped
                    ? "history at '" + HistoryPath +
                          "' holds only damaged records (" +
                          std::to_string(Ledger.Skipped) + " skipped)"
                    : "no build history at '" + HistoryPath +
                          "' — run a build first";
    return Res;
  }

  auto Find = [&](uint64_t Id) -> const HistoryRecord * {
    for (const HistoryRecord &R : Ledger.Records)
      if (R.BuildId == Id)
        return &R;
    return nullptr;
  };

  const HistoryRecord *R =
      Opt.BuildId ? Find(Opt.BuildId) : &Ledger.Records.back();
  if (!R) {
    Res.Error = "build " + std::to_string(Opt.BuildId) + " is not in '" +
                HistoryPath + "' (ledger holds " +
                std::to_string(Ledger.Records.front().BuildId) + ".." +
                std::to_string(Ledger.Records.back().BuildId) + ")";
    return Res;
  }
  const HistoryRecord *Base = nullptr;
  if (Opt.AgainstId) {
    Base = Find(Opt.AgainstId);
    if (!Base) {
      Res.Error = "baseline build " + std::to_string(Opt.AgainstId) +
                  " is not in '" + HistoryPath + "'";
      return Res;
    }
  }

  Res.OK = true;
  Res.Text = Opt.Json ? renderJson(*R, Base, Opt.TopN)
                      : renderHuman(*R, Base, Opt.TopN);
  return Res;
}
