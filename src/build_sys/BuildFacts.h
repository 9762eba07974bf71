//===- build_sys/BuildFacts.h - The list of per-build facts ----*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every scalar per-build fact BuildStats holds, named in one list that
/// the report, the ledger record, the `build.*` metrics and the daemon
/// exit frame render from; adding a fact is one line here. A fact has
/// one name, its report path; its metric name is derived from the path
/// (`phases_us.scan` is `build.phases_us_scan`); see
/// docs/OBSERVABILITY.md.
///
//===----------------------------------------------------------------------===//

#ifndef SC_BUILD_SYS_BUILDFACTS_H
#define SC_BUILD_SYS_BUILDFACTS_H

#include "build_sys/BuildSystem.h"

#include <string>
#include <string_view>

namespace sc {

class MetricsRegistry;

/// How the metrics registry holds a fact.
enum class FactKind {
  Counter, ///< Accumulates across builds (`add`).
  Gauge,   ///< Describes the latest build (`set`).
  TimeUs,  ///< A gauge of wall-clock microseconds.
};

struct BuildFact {
  std::string_view Path; ///< Report and ledger path: "remote.hits".
  FactKind Kind;

  /// "remote" for "remote.hits"; empty for a top-level fact.
  std::string_view group() const {
    return Path.substr(0, Path.find('.') == Path.npos ? 0 : Path.find('.'));
  }
  /// "hits" for "remote.hits".
  std::string_view key() const { return Path.substr(Path.find('.') + 1); }
  /// Registry name: "build." and the path with '.' as '_'
  /// ("build.remote_hits"), derived once per fact.
  const std::string &metric() const;
};

/// Calls Do(const BuildFact &, Member &) once per fact, in report
/// order; the facts of one group are adjacent. \p St is a BuildStats
/// or derived from one: const to render, non-const to parse.
template <class S, class Fn> void forEachBuildFact(S &St, Fn Do) {
  constexpr FactKind C = FactKind::Counter, G = FactKind::Gauge,
                     T = FactKind::TimeUs;
  Do({"success", G}, St.Success);
  Do({"read_only", G}, St.ReadOnly);
  Do({"files.compiled", C}, St.FilesCompiled);
  Do({"files.total", G}, St.FilesTotal);
  Do({"phases_us.scan", T}, St.ScanUs);
  Do({"phases_us.compile", T}, St.CompileUs);
  Do({"phases_us.link", T}, St.LinkUs);
  Do({"phases_us.state_io", T}, St.StateIOUs);
  Do({"phases_us.total", T}, St.TotalUs);
  Do({"compile_phases_us.frontend", T}, St.CompilePhases.FrontendUs);
  Do({"compile_phases_us.middle", T}, St.CompilePhases.MiddleUs);
  Do({"compile_phases_us.backend", T}, St.CompilePhases.BackendUs);
  Do({"compile_phases_us.state", T}, St.CompilePhases.StateUs);
  Do({"passes.run", C}, St.Skip.PassesRun);
  Do({"passes.skipped", C}, St.Skip.PassesSkipped);
  Do({"passes.functions_matched", C}, St.Skip.FunctionsMatched);
  Do({"passes.functions_refreshed", C}, St.Skip.FunctionsRefreshed);
  Do({"passes.functions_reused", C}, St.Skip.FunctionsReused);
  Do({"state.db_bytes", G}, St.StateDBBytes);
  Do({"state.tus_salvaged", C}, St.StateTUsSalvaged);
  Do({"state.tus_dropped", C}, St.StateTUsDropped);
  Do({"object_bytes", G}, St.ObjectBytes);
  Do({"scan.interface_scans", C}, St.InterfaceScans);
  Do({"scan.cache_hits", C}, St.ScanCacheHits);
  Do({"scan.sources_read", C}, St.SourcesRead);
  Do({"scan.objects_read", C}, St.ObjectsRead);
  Do({"link.objects_parsed", C}, St.ObjectsParsed);
  Do({"temp_files_swept", C}, St.TempFilesSwept);
  Do({"remote.hits", C}, St.RemoteHits);
  Do({"remote.misses", C}, St.RemoteMisses);
  Do({"remote.puts", C}, St.RemotePuts);
  Do({"remote.errors", C}, St.RemoteErrors);
  Do({"remote.round_trips", C}, St.RemoteRoundTrips);
  Do({"deps.tus_checked", C}, St.DepsTUsChecked);
  Do({"deps.missing", C}, St.DepsMissing);
  Do({"deps.redundant", C}, St.DepsRedundant);
  Do({"trace.events_dropped", C}, St.TraceEventsDropped);
  Do({"history.build_id", G}, St.BuildId);
  Do({"history.records_skipped", C}, St.HistoryRecordsSkipped);
}

/// The fact that reads the top-level BuildStats member \p M.
template <class T> BuildFact buildFactOf(T BuildStats::*M) {
  static const BuildStats Probe;
  BuildFact Found{};
  forEachBuildFact(Probe, [&](const BuildFact &F, const auto &V) {
    if (static_cast<const void *>(&V) == &(Probe.*M))
      Found = F;
  });
  return Found;
}

/// Publishes \p S into \p M: every fact under its metric name, plus the
/// derived `build.builds` (one per call), `build.warnings` and
/// `build.history_appends`.
void publishBuildFacts(const BuildStats &S, MetricsRegistry &M);

} // namespace sc

#endif // SC_BUILD_SYS_BUILDFACTS_H
