//===- support/Metrics.cpp - Typed counter/gauge registry ----------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include "support/FlatJson.h"

#include <cstdlib>

using namespace sc;

Counter &MetricsRegistry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto &Slot = Counters[Name];
  if (!Slot)
    Slot = std::make_unique<Counter>();
  return *Slot;
}

Gauge &MetricsRegistry::gauge(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto &Slot = Gauges[Name];
  if (!Slot)
    Slot = std::make_unique<Gauge>();
  return *Slot;
}

std::vector<std::pair<std::string, uint64_t>> MetricsRegistry::counters() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<std::pair<std::string, uint64_t>> Out;
  Out.reserve(Counters.size());
  for (const auto &KV : Counters)
    Out.emplace_back(KV.first, KV.second->value());
  return Out;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::gauges() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<std::pair<std::string, double>> Out;
  Out.reserve(Gauges.size());
  for (const auto &KV : Gauges)
    Out.emplace_back(KV.first, KV.second->value());
  return Out;
}

namespace {
/// The registry as toJson() writes it.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, double> Gauges;
};
} // namespace

namespace sc {
template <> struct JsonFields<MetricsSnapshot> {
  template <class R, class Fn> static void walk(R &X, Fn Do) {
    Do("counters", X.Counters);
    Do("gauges", X.Gauges);
  }
};
} // namespace sc

std::string MetricsRegistry::toJson() const {
  const auto Cs = counters();
  const auto Gs = gauges();
  return encodeJson(
      MetricsSnapshot{{Cs.begin(), Cs.end()}, {Gs.begin(), Gs.end()}});
}

//===----------------------------------------------------------------------===//
// MetricsTextExporter
//===----------------------------------------------------------------------===//

std::string MetricsTextExporter::exportedName(const std::string &Name,
                                              bool IsCounter) {
  std::string Out = "scbuild_";
  Out.reserve(Out.size() + Name.size() + 6);
  for (char C : Name) {
    const bool OK = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
                    (C >= '0' && C <= '9') || C == '_';
    Out += OK ? C : '_';
  }
  if (IsCounter)
    Out += "_total";
  return Out;
}

std::string MetricsTextExporter::render(const MetricsRegistry &R) {
  std::string Out;
  for (const auto &KV : R.counters()) {
    const std::string N = exportedName(KV.first, /*IsCounter=*/true);
    Out += "# TYPE " + N + " counter\n";
    Out += N + " " + std::to_string(KV.second) + "\n";
  }
  for (const auto &KV : R.gauges()) {
    const std::string N = exportedName(KV.first, /*IsCounter=*/false);
    Out += "# TYPE " + N + " gauge\n" + N + " ";
    writeJson(Out, KV.second); // The report's and the ledger's spelling.
    Out += "\n";
  }
  return Out;
}

std::vector<std::pair<std::string, double>>
MetricsTextExporter::parse(const std::string &Text) {
  std::vector<std::pair<std::string, double>> Out;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string::npos)
      End = Text.size();
    std::string Line = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Line.empty() || Line[0] == '#')
      continue;
    const size_t Sp = Line.find(' ');
    if (Sp == std::string::npos || Sp == 0)
      continue;
    char *EndPtr = nullptr;
    const double V = std::strtod(Line.c_str() + Sp + 1, &EndPtr);
    if (EndPtr == Line.c_str() + Sp + 1)
      continue; // No numeric value; not a sample line.
    Out.emplace_back(Line.substr(0, Sp), V);
  }
  return Out;
}
