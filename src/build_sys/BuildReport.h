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

namespace sc {

class MetricsRegistry;

/// Current report schema version (see docs/OBSERVABILITY.md).
constexpr uint32_t BuildReportSchemaVersion = 1;

/// Renders \p S (and, when non-null, \p Metrics) as the versioned
/// build-report JSON document. Deterministic: keys are fixed, metric
/// keys are sorted.
std::string buildReportJson(const BuildStats &S,
                            const MetricsRegistry *Metrics);

} // namespace sc

#endif // SC_BUILD_SYS_BUILDREPORT_H
