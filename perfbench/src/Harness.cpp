//===- perfbench/src/Harness.cpp - Shared benchmark machinery -------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "build_sys/History.h"
#include "driver/IRGen.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "vm/IRInterpreter.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include <sys/resource.h>

using namespace sc;

namespace perfbench {

namespace {

/// The passes whose time the traced run reports individually: the five
/// most expensive on edit-loop and wide-rebuild.
const char *const TopPasses[] = {"inline", "mem2reg", "sccp", "licm", "cse"};

struct MetricInfo {
  std::string Name;
  const char *Unit;
};

/// Every per-layer metric, in output order (BENCHMARK.json lists the same).
std::vector<MetricInfo> perLayerInfo() {
  std::vector<MetricInfo> L = {
      {"scan.ms", "ms"},
      {"scan.cache_hit_ratio", "ratio"},
      {"scan.dirty_tus", "count"},
      {"link.ms", "ms"},
      {"link.objects_parsed", "count"},
      {"state.io_ms", "ms"},
      {"unattributed.ms", "ms"},
      {"unattributed.share", "ratio"},
      {"build.wall_ms", "ms"},
      {"compile.wall_ms", "ms"},
      {"compile.parallelism", "ratio"},
      {"pool.steals", "count"},
      {"pool.park_wait_ns", "ns"},
      {"frontend.cpu_ms", "ms"},
      {"backend.cpu_ms", "ms"},
      {"middle.cpu_ms", "ms"},
      {"middle.passes_run", "count"},
      {"middle.passes_skipped", "count"},
      {"middle.skip_ratio", "ratio"},
  };
  for (const char *P : TopPasses)
    L.push_back({std::string("pass.") + P + ".ms", "ms"});
  const std::vector<MetricInfo> Tail = {
      {"state.cpu_ms", "ms"},
      {"state.db_bytes", "bytes"},
      {"daemon.overhead_ms", "ms"},
      {"daemon.coalesced_ratio", "ratio"},
      {"daemon.builds_per_request", "ratio"},
      {"daemon.busy_rejections", "count"},
      {"remote.hit_ratio", "ratio"},
      {"remote.fetch_ms", "ms"},
      {"remote.sync_ms", "ms"},
      {"remote.touches", "count"},
      {"remote.puts", "count"},
      {"remote.errors", "count"},
      {"vm.dynamic_insts", "count"},
      {"edit.ms", "ms"},
      {"trace.overhead_ratio", "ratio"},
  };
  L.insert(L.end(), Tail.begin(), Tail.end());
  return L;
}

const std::vector<MetricInfo> &endToEndInfo() {
  static const std::vector<MetricInfo> L = {
      {"build_p50_ms", "ms"},     {"build_p90_ms", "ms"},
      {"cpu_ms_per_build", "ms"}, {"peak_rss_mb", "MiB"},
      {"setup_s", "s"},           {"code_cost_ratio", "ratio"},
  };
  return L;
}

/// Linear-interpolated quantile \p Q in [0, 1].
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Rank = Q * static_cast<double>(V.size() - 1);
  const size_t Lo = static_cast<size_t>(Rank);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  const double Frac = Rank - static_cast<double>(Lo);
  return V[Lo] * (1.0 - Frac) + V[Hi] * Frac;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

std::string number(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string metricsJson(const std::vector<MetricInfo> &Info,
                        const std::map<std::string, double> &Values) {
  std::string J = "{";
  for (const MetricInfo &M : Info) {
    if (J.size() > 1)
      J += ", ";
    J += "\"" + M.Name + "\": {\"value\": " + number(Values.at(M.Name)) +
         ", \"unit\": \"" + M.Unit + "\"}";
  }
  return J + "}";
}

bool isSource(const std::string &Path, const std::string &OutDir) {
  return Path.size() > 3 && Path.compare(Path.size() - 3, 3, ".mc") == 0 &&
         Path.compare(0, OutDir.size() + 1, OutDir + "/") != 0;
}

} // namespace

double nowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double processCpuMs() {
  timespec T{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) * 1e3 +
         static_cast<double>(T.tv_nsec) / 1e6;
}

double peakRssMb() {
  rusage U{};
  ::getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

BuildOptions benchBuildOptions(unsigned Jobs) {
  BuildOptions BO;
  BO.Compiler.Opt = OptLevel::O2;
  BO.Compiler.Stateful.SkipMode = StatefulConfig::Mode::HeuristicSkip;
  BO.Jobs = Jobs;
  return BO;
}

uint64_t editSeed(uint64_t Seed) { return Seed * 0x9E3779B97F4A7C15ull + 17; }

double referenceWorkMs() {
  // Static buffers, set up once: the task allocates nothing, so neither
  // the program's heap nor its allocator can change its speed.
  constexpr uint32_t N = 1u << 16;
  static uint32_t Cycle[N];
  static uint64_t Table[N];
  static uint64_t Keys[N / 4];
  static const bool Ready = [] {
    // Sattolo's shuffle: one cycle through all N slots.
    uint64_t X = 0x9E3779B97F4A7C15ull;
    for (uint32_t I = 0; I != N; ++I)
      Cycle[I] = I;
    for (uint32_t I = N - 1; I != 0; --I) {
      X = X * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(Cycle[I], Cycle[(X >> 33) % I]);
    }
    return true;
  }();
  (void)Ready;

  const double T0 = nowMs();
  uint64_t X = 0x243F6A8885A308D3ull, Sum = 0;
  auto Next = [&X] {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    return X;
  };
  // Open-addressed hash set: insert, then probe hits and misses.
  std::fill(std::begin(Table), std::end(Table), 0);
  for (uint32_t I = 0; I != N / 2; ++I) {
    const uint64_t K = Next() | 1;
    uint32_t Slot = static_cast<uint32_t>(K * 0x9E3779B97F4A7C15ull >> 48);
    while (Table[Slot] != 0 && Table[Slot] != K)
      Slot = (Slot + 1) & (N - 1);
    Table[Slot] = K;
    if (I < N / 4)
      Keys[I] = K;
  }
  for (uint32_t I = 0; I != N / 2; ++I) {
    const uint64_t K = (I & 1) ? Keys[I / 2] : (Next() & ~1ull);
    uint32_t Slot = static_cast<uint32_t>(K * 0x9E3779B97F4A7C15ull >> 48);
    while (Table[Slot] != 0 && Table[Slot] != K)
      Slot = (Slot + 1) & (N - 1);
    Sum += Table[Slot] == K;
  }
  // Dependent loads along the cycle (pointer chasing).
  uint32_t At = static_cast<uint32_t>(Sum) & (N - 1);
  for (uint32_t I = 0; I != N / 2; ++I)
    At = Cycle[At];
  Sum += At;
  // Comparison sort of the inserted keys.
  std::sort(std::begin(Keys), std::end(Keys));
  Sum += Keys[N / 8];
  static volatile uint64_t Sink;
  Sink = Sink + Sum;
  return nowMs() - T0;
}

void resetDir(const std::string &Dir) {
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
  std::filesystem::create_directories(Dir, EC);
}

bool prefillLedger(VirtualFileSystem &FS, const std::string &OutDir,
                   unsigned Limit) {
  if (Limit == 0)
    return true; // Ledger disabled: nothing to fill.
  const std::string Path = OutDir + "/history.jsonl";
  HistoryLoadResult L = BuildHistory::load(FS, Path);
  if (L.Records.empty())
    return false;
  HistoryRecord Proto = L.Records.back();
  std::string Content;
  for (unsigned Id = 1; Id <= Limit; ++Id) {
    Proto.BuildId = Id;
    Content += BuildHistory::serializeRecord(Proto) + "\n";
  }
  return FS.writeFile(Path, Content);
}

std::string joined(const std::vector<std::string> &V) {
  std::string S;
  for (const std::string &X : V)
    S += (S.empty() ? "" : ",") + X;
  return S;
}

uint64_t counterValue(const MetricsRegistry &M, const std::string &Name) {
  for (const auto &[K, V] : M.counters())
    if (K == Name)
      return V;
  return 0;
}

//===----------------------------------------------------------------------===//
// Correctness oracle
//===----------------------------------------------------------------------===//

bool referenceRun(VirtualFileSystem &FS, const std::string &OutDir,
                  ExecResult &Out, std::string &Why) {
  std::map<std::string, std::string> Sources;
  std::map<std::string, ModuleInterface> Interfaces;
  std::map<std::string, std::vector<std::string>> Imports;
  for (const std::string &Path : FS.listFiles()) {
    if (!isSource(Path, OutDir))
      continue;
    std::optional<std::string> Text = FS.readFile(Path);
    if (!Text) {
      Why = "reference: cannot read " + Path;
      return false;
    }
    auto Scanned = Compiler::scanInterface(*Text);
    if (!Scanned) {
      Why = "reference: " + Path + " does not scan";
      return false;
    }
    Interfaces[Path] = Scanned->first;
    Imports[Path] = Scanned->second;
    Sources[Path] = std::move(*Text);
  }
  std::vector<std::unique_ptr<Module>> Owned;
  for (const auto &[Path, Source] : Sources) {
    DiagnosticEngine Diags;
    Parser P(Source, Diags);
    std::unique_ptr<ModuleAST> AST = P.parseModule();
    ModuleInterface Visible;
    for (const std::string &Dep : Imports[Path]) {
      const ModuleInterface &DepIface = Interfaces[Dep];
      Visible.insert(Visible.end(), DepIface.begin(), DepIface.end());
    }
    analyzeModule(*AST, Visible, Diags);
    if (Diags.hasErrors()) {
      Why = "reference: " + Diags.render(Path);
      return false;
    }
    const ModuleInterface &Own = Interfaces[Path];
    Visible.insert(Visible.end(), Own.begin(), Own.end());
    Owned.push_back(generateIR(*AST, Path, Visible));
  }
  std::vector<const Module *> Modules;
  for (const auto &M : Owned)
    Modules.push_back(M.get());
  Out = interpretIR(Modules, "main", {});
  return true;
}

bool sameBehavior(const ExecResult &Ref, const ExecResult &Got,
                  std::string &Why) {
  if (Ref.Trapped || Got.Trapped) {
    Why = "trap (reference: '" + Ref.TrapReason + "', program: '" +
          Got.TrapReason + "')";
    return false;
  }
  if (Ref.Output != Got.Output) {
    Why = "printed output differs (" + std::to_string(Ref.Output.size()) +
          " vs " + std::to_string(Got.Output.size()) + " values)";
    return false;
  }
  if (Ref.ReturnValue != Got.ReturnValue) {
    Why = "return value differs (" +
          std::to_string(Ref.ReturnValue.value_or(-1)) + " vs " +
          std::to_string(Got.ReturnValue.value_or(-1)) + ")";
    return false;
  }
  return true;
}

uint64_t statelessColdCost(VirtualFileSystem &FS, const std::string &OutDir,
                           unsigned Jobs) {
  InMemoryFileSystem Copy;
  for (const std::string &Path : FS.listFiles())
    if (isSource(Path, OutDir))
      if (std::optional<std::string> Text = FS.readFile(Path))
        Copy.writeFile(Path, *Text);
  BuildOptions BO = benchBuildOptions(Jobs);
  BO.Compiler.Stateful.SkipMode = StatefulConfig::Mode::Stateless;
  BO.HistoryLimit = 0;
  BuildDriver D(Copy, BO);
  if (!D.build().Success || !D.program())
    return 0;
  VM Machine(*D.program());
  ExecResult X = Machine.run();
  return X.Trapped ? 0 : X.Cost;
}

//===----------------------------------------------------------------------===//
// Run record
//===----------------------------------------------------------------------===//

Run::Run(RunOptions Options)
    : Opts(std::move(Options)), BenchTrace(/*StartEnabled=*/Opts.Trace) {}

void Run::startClock() { DeadlineMs = nowMs() + Opts.Seconds * 1000.0; }

bool Run::more(unsigned Done) const {
  if (Opts.Builds)
    return Done < Opts.Builds;
  return nowMs() < DeadlineMs;
}

void Run::addBuild(double Wall, double Cpu, bool Telemetry) {
  if (++Attempted == RssProbeBuilds)
    PeakRss = peakRssMb();
  WallMs.push_back(Wall);
  CpuMs += Cpu;
  (Telemetry ? TelemetryWallMs : PlainWallMs).push_back(Wall);
}

void Run::fail(const std::string &Why) {
  ++Failed;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", Why.c_str());
}

void Run::oracle(bool Ok, const std::string &Why) {
  ++OracleChecks;
  if (!Ok)
    fail("oracle mismatch: " + Why);
}

void Run::foldBuildStats(const BuildStats &S, double Wall) {
  addLayerBuild();
  const double Scan = S.ScanUs / 1e3, Compile = S.CompileUs / 1e3,
               Link = S.LinkUs / 1e3, StateIO = S.StateIOUs / 1e3;
  layer("build.wall_ms", Wall);
  layer("scan.ms", Scan);
  layer("compile.wall_ms", Compile);
  layer("link.ms", Link);
  layer("state.io_ms", StateIO);
  addUnattributed(Wall - Scan - Compile - Link - StateIO,
                  "traced build " + std::to_string(LayerBuilds));
  layer("scan.hits", static_cast<double>(S.ScanCacheHits));
  layer("scan.misses", static_cast<double>(S.InterfaceScans));
  // TUs whose inputs changed: compiled locally or fetched remotely.
  layer("scan.dirty_tus", static_cast<double>(S.DirtyTUs.size() + S.RemoteHits));
  layer("link.objects_parsed", static_cast<double>(S.ObjectsParsed));
  layer("frontend.cpu_ms", S.CompilePhases.FrontendUs / 1e3);
  layer("middle.cpu_ms", S.CompilePhases.MiddleUs / 1e3);
  layer("backend.cpu_ms", S.CompilePhases.BackendUs / 1e3);
  layer("state.cpu_ms", S.CompilePhases.StateUs / 1e3);
  layer("compile.cpu_ms", S.CompilePhases.totalUs() / 1e3);
  layer("middle.passes_run", static_cast<double>(S.Skip.PassesRun));
  layer("middle.passes_skipped", static_cast<double>(S.Skip.PassesSkipped));
  layer("remote.hits", static_cast<double>(S.RemoteHits));
  layer("remote.misses", static_cast<double>(S.RemoteMisses));
  layer("remote.puts", static_cast<double>(S.RemotePuts));
  layer("remote.errors", static_cast<double>(S.RemoteErrors));
  setLayer("state.db_bytes", static_cast<double>(S.StateDBBytes));
}

void Run::addUnattributed(double Ms, const std::string &Where) {
  // The phase timers and the wall clock are read separately and rounded
  // (BuildStats to microseconds, trace spans to nanoseconds).
  constexpr double ToleranceMs = 0.01;
  if (Ms < -ToleranceMs)
    fail(Where + ": scan, compile, link and state I/O exceed the build's "
                 "wall time by " +
         number(-Ms) + " ms");
  layer("unattributed.ms", Ms);
}

void Run::foldEvent(const std::string &Category, const std::string &Name,
                    double DurMs, const std::string &Args) {
  if (Category == "pass") {
    layer("pass." + Name + ".ms", DurMs);
  } else if (Category == "remote" && Name == "fetch") {
    layer("remote.fetch_ms", DurMs);
  } else if (Category == "remote" && Name == "sync") {
    layer("remote.sync_ms", DurMs);
    const std::string Key = "\"touched\":";
    const size_t At = Args.find(Key);
    if (At != std::string::npos)
      layer("remote.touches", std::strtod(Args.c_str() + At + Key.size(),
                                          nullptr));
  }
}

void Run::keepEvent(const TraceEvent &E) {
  if (E.K == TraceEvent::Kind::Span)
    BenchTrace.span(E.Category, E.Name, E.StartNs, E.StartNs + E.DurNs,
                    E.ArgsJson);
}

void Run::addCostCheckpoint(const ExecResult &Incremental,
                            uint64_t Stateless) {
  ++CostChecks;
  IncrementalCost += Incremental.Cost;
  StatelessCost += Stateless;
  DynamicInsts += Incremental.DynamicInsts;
  log("checkpoint cost=" + std::to_string(Incremental.Cost) +
      " stateless=" + std::to_string(Stateless));
}

void Run::log(const std::string &Line) {
  if (!Opts.LogPath.empty())
    LogLines.push_back(Line);
}

double Run::sumOf(const std::string &Name) const {
  auto It = Sums.find(Name);
  return It == Sums.end() ? 0 : It->second;
}

double Run::timeScale() const {
  const double Measured = quantile(RefMs, 0.5);
  return Measured > 0 ? ReferenceMs / Measured : 1.0;
}

std::map<std::string, double> Run::endToEndMetrics() const {
  std::map<std::string, double> M;
  const double Scale = timeScale();
  M["build_p50_ms"] = quantile(WallMs, 0.5) * Scale;
  M["build_p90_ms"] = quantile(WallMs, 0.9) * Scale;
  M["cpu_ms_per_build"] =
      ratio(CpuMs, static_cast<double>(WallMs.size())) * Scale;
  M["peak_rss_mb"] = PeakRss;
  M["setup_s"] = quantile(SetupS, 0.5) * Scale;
  M["code_cost_ratio"] = ratio(static_cast<double>(IncrementalCost),
                               static_cast<double>(StatelessCost));
  return M;
}

std::map<std::string, double> Run::perLayerMetrics() const {
  std::map<std::string, double> M;
  const double B = LayerBuilds;
  for (const MetricInfo &I : perLayerInfo())
    M[I.Name] = ratio(sumOf(I.Name), B); // Per-build means by default.
  M["scan.cache_hit_ratio"] =
      ratio(sumOf("scan.hits"), sumOf("scan.hits") + sumOf("scan.misses"));
  M["unattributed.share"] =
      ratio(sumOf("unattributed.ms"), sumOf("build.wall_ms"));
  M["compile.parallelism"] =
      ratio(sumOf("compile.cpu_ms"), sumOf("compile.wall_ms"));
  M["middle.skip_ratio"] =
      ratio(sumOf("middle.passes_skipped"),
            sumOf("middle.passes_run") + sumOf("middle.passes_skipped"));
  M["remote.hit_ratio"] =
      ratio(sumOf("remote.hits"), sumOf("remote.hits") + sumOf("remote.misses"));
  M["vm.dynamic_insts"] = ratio(static_cast<double>(DynamicInsts), CostChecks);
  double EditSum = 0;
  for (double E : EditMs)
    EditSum += E;
  M["edit.ms"] = ratio(EditSum, static_cast<double>(EditMs.size()));
  M["trace.overhead_ratio"] =
      ratio(quantile(TelemetryWallMs, 0.5), quantile(PlainWallMs, 0.5));
  for (const auto &[K, V] : Fixed)
    M[K] = V;
  return M;
}

int Run::finish() {
  if (Opts.Trace)
    std::ofstream(std::string(WorkDir) + "/" + Opts.Workload + "/trace.json")
        << BenchTrace.toChromeJson();
  if (!Opts.LogPath.empty()) {
    std::ofstream Log(Opts.LogPath);
    for (const std::string &L : LogLines)
      Log << L << '\n';
  }

  if (WallMs.empty())
    fail("no build was timed");
  if (CostChecks == 0)
    fail("no code-cost checkpoint was reached");
  if (Failed) {
    std::fprintf(stderr,
                 "perfbench: %s: %llu of %llu build(s) failed, were refused "
                 "or disagreed with the oracle; no result\n",
                 Opts.Workload.c_str(), static_cast<unsigned long long>(Failed),
                 static_cast<unsigned long long>(Attempted));
    return 1;
  }

  // Provenance: what this number was measured on.
  const std::string BuildType = PERFBENCH_BUILD_TYPE;
  const std::string Flags = PERFBENCH_CXX_FLAGS;
  bool Sanitized = Flags.find("-fsanitize") != std::string::npos;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  Sanitized = true;
#endif
  const bool Comparable = !Sanitized && (BuildType == "Release" ||
                                         BuildType == "RelWithDebInfo");
  std::printf(
      "provenance: {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %u, "
      "\"jobs\": %u, \"build_type\": \"%s\", \"sanitizer\": %s, "
      "\"comparable\": %s, \"compiler\": \"%s\", \"commit\": \"%s\", "
      "\"builds\": %zu, \"oracle_checks\": %llu, \"setups\": %zu, "
      "\"reference_ms\": %.4f, \"time_scale\": %.4f, \"trace\": %s}\n",
      Opts.Workload.c_str(), static_cast<unsigned long long>(Opts.Seed),
      std::max(1u, std::thread::hardware_concurrency()), Opts.Jobs,
      BuildType.c_str(), Sanitized ? "true" : "false",
      Comparable ? "true" : "false", jsonEscape(__VERSION__).c_str(),
      jsonEscape(Opts.Commit).c_str(), WallMs.size(),
      static_cast<unsigned long long>(OracleChecks), SetupS.size(),
      quantile(RefMs, 0.5), timeScale(), Opts.Trace ? "true" : "false");
  if (!Comparable)
    std::fprintf(stderr, "perfbench: warning: %s%s build; these numbers are "
                         "not comparable with optimized builds\n",
                 BuildType.c_str(), Sanitized ? " sanitizer" : "");
  if (!Opts.Trace && !Opts.Builds && WallMs.size() < 100)
    std::fprintf(stderr,
                 "perfbench: warning: only %zu builds timed; build_p90_ms "
                 "rests on fewer than 10 samples beyond it\n",
                 WallMs.size());

  const std::string Metrics =
      Opts.Trace ? metricsJson(perLayerInfo(), perLayerMetrics())
                 : metricsJson(endToEndInfo(), endToEndMetrics());
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": 0, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(Attempted), Metrics.c_str());
  std::fflush(stdout);
  return 0;
}

} // namespace perfbench
