//===- build_sys/BuildReport.h - Machine-readable build report --*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JSON build report emitted by `scbuild --report-json=FILE`: one
/// object per build carrying every build fact (the list in
/// BuildFacts.h), the warnings, the dependency findings and the error
/// text, plus the metrics registry. The schema is versioned ("schema" and
/// "schema_version" keys); see docs/OBSERVABILITY.md for the stability
/// policy (additive changes bump nothing; renames/removals bump the
/// version).
///
//===----------------------------------------------------------------------===//

#ifndef SC_BUILD_SYS_BUILDREPORT_H
#define SC_BUILD_SYS_BUILDREPORT_H

#include "build_sys/BuildSystem.h"

#include <string>
#include <vector>

namespace sc {

class MetricsRegistry;
struct BuildFact;

/// Current report schema version (see docs/OBSERVABILITY.md).
constexpr uint32_t BuildReportSchemaVersion = 1;

/// Renders \p S (and, when non-null, \p Metrics) as the versioned
/// build-report JSON document. Deterministic: keys are fixed, metric
/// keys are sorted.
std::string buildReportJson(const BuildStats &S,
                            const MetricsRegistry *Metrics);

/// A run of adjacent facts sharing a group, each a `"key": value` JSON
/// member. Name is empty for top-level facts.
struct FactGroupJson {
  std::string Name;
  std::vector<std::string> Members;
};

/// \p S's facts as JSON members, gathered by group in list order. Times
/// render through \p Time (the report keeps fractions of a microsecond,
/// the ledger whole ones); Compact drops the spaces after ':' and ','.
/// \p Keep, when given, picks the facts to render, told which are zero.
std::vector<FactGroupJson>
factGroupsJson(const BuildStats &S, std::string (*Time)(double),
               bool Compact, bool (*Keep)(const BuildFact &, bool) = nullptr);

/// \p Groups as JSON object members, each between \p Before and
/// \p After: a group as `"group": {"key": value, ...}`.
std::string renderFactGroups(const std::vector<FactGroupJson> &Groups,
                             const char *Before, const char *After,
                             bool Compact);

} // namespace sc

#endif // SC_BUILD_SYS_BUILDREPORT_H
