//===- build_sys/BuildReport.cpp - Machine-readable build report ---------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "build_sys/BuildReport.h"

#include "build_sys/BuildFacts.h"
#include "support/Metrics.h"
#include "support/Trace.h" // jsonEscape

#include <cstdio>
#include <type_traits>

using namespace sc;

namespace {

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.3f", V);
  return Buf;
}

std::string stringArray(const std::vector<std::string> &V) {
  std::string J = "[";
  for (size_t I = 0; I != V.size(); ++I)
    J += (I ? ", " : "") + ("\"" + jsonEscape(V[I]) + "\"");
  return J + "]";
}

} // namespace

std::vector<FactGroupJson>
sc::factGroupsJson(const BuildStats &S, std::string (*Time)(double),
                   bool Compact, bool (*Keep)(const BuildFact &, bool)) {
  std::vector<FactGroupJson> Groups;
  forEachBuildFact(S, [&](const BuildFact &F, const auto &V) {
    using T = std::decay_t<decltype(V)>;
    if (Keep && !Keep(F, V == T()))
      return;
    std::string M = "\"" + std::string(F.key()) + (Compact ? "\":" : "\": ");
    if constexpr (std::is_same_v<T, bool>)
      M += V ? "true" : "false";
    else if constexpr (std::is_floating_point_v<T>)
      M += Time(V);
    else
      M += std::to_string(V);
    if (Groups.empty() || Groups.back().Name != F.group())
      Groups.push_back({std::string(F.group()), {}});
    Groups.back().Members.push_back(std::move(M));
  });
  return Groups;
}

std::string sc::renderFactGroups(const std::vector<FactGroupJson> &Groups,
                                 const char *Before, const char *After,
                                 bool Compact) {
  std::string J;
  for (const FactGroupJson &G : Groups) {
    if (G.Name.empty()) {
      for (const std::string &M : G.Members)
        J.append(Before).append(M).append(After);
      continue;
    }
    J += Before + ("\"" + G.Name) + (Compact ? "\":{" : "\": {");
    for (size_t I = 0; I != G.Members.size(); ++I)
      J.append(I ? (Compact ? "," : ", ") : "").append(G.Members[I]);
    J.append("}").append(After);
  }
  return J;
}

std::string sc::buildReportJson(const BuildStats &S,
                                const MetricsRegistry *Metrics) {
  std::string J = "{\n";
  J += "  \"schema\": \"scbuild-report\",\n";
  J += "  \"schema_version\": " + std::to_string(BuildReportSchemaVersion) +
       ",\n";

  auto Groups = factGroupsJson(S, num, /*Compact=*/false);
  for (FactGroupJson &G : Groups) {
    if (G.Name != "deps")
      continue;
    // "checked" tells "the verifier ran and found nothing" from "the
    // verifier never ran", so zero counts stay unambiguous.
    const bool Checked = S.DepsTUsChecked != 0 || !S.DepFindings.empty();
    G.Members.insert(G.Members.begin(), std::string("\"checked\": ") +
                                            (Checked ? "true" : "false"));
    G.Members.push_back("\"findings\": " + stringArray(S.DepFindings));
  }
  J += renderFactGroups(Groups, "  ", ",\n", /*Compact=*/false);

  J += "  \"warnings\": " + stringArray(S.Warnings) + ",\n";
  if (!S.ErrorText.empty())
    J += "  \"error\": \"" + jsonEscape(S.ErrorText) + "\",\n";

  J += "  \"metrics\": ";
  J += Metrics ? Metrics->toJson() : "{\"counters\":{},\"gauges\":{}}";
  J += "\n}\n";
  return J;
}
