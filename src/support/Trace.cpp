//===- support/Trace.cpp - Build-telemetry span recorder -----------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/FlatJson.h"

#include <algorithm>
#include <cstdio>

using namespace sc;

std::string sc::jsonEscape(const std::string &S) {
  std::string Quoted;
  appendJsonString(Quoted, S);
  return Quoted.substr(1, Quoted.size() - 2);
}

namespace {

/// Monotonically increasing id distinguishing recorder instances, so a
/// thread_local cache entry can never match a recorder reallocated at
/// the address of a destroyed one.
std::atomic<uint64_t> NextEpoch{1};

/// One event as a Chrome trace-event JSON object (ts/dur in
/// microseconds relative to \p BaseNs). Shared by the whole-build
/// toChromeJson() merge and the streaming flush() path, so both sinks
/// emit byte-identical event objects.
std::string chromeEventJson(const TraceEvent &E, uint64_t BaseNs) {
  char Num[64];
  const uint64_t RelNs = E.StartNs >= BaseNs ? E.StartNs - BaseNs : 0;
  std::string Obj = "{\"name\":\"" + jsonEscape(E.Name) + "\",\"cat\":\"" +
                    jsonEscape(E.Category) + "\"";
  if (E.K == TraceEvent::Kind::Span) {
    std::snprintf(Num, sizeof(Num), "%.3f",
                  static_cast<double>(RelNs) / 1000.0);
    Obj += ",\"ph\":\"X\",\"ts\":";
    Obj += Num;
    std::snprintf(Num, sizeof(Num), "%.3f",
                  static_cast<double>(E.DurNs) / 1000.0);
    Obj += ",\"dur\":";
    Obj += Num;
  } else {
    std::snprintf(Num, sizeof(Num), "%.3f",
                  static_cast<double>(RelNs) / 1000.0);
    Obj += ",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
    Obj += Num;
  }
  Obj += ",\"pid\":1,\"tid\":" + std::to_string(E.Tid);
  if (!E.ArgsJson.empty())
    Obj += ",\"args\":" + E.ArgsJson;
  Obj += "}";
  return Obj;
}

std::string threadNameJson(uint32_t Tid, const std::string &Name) {
  return "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
         std::to_string(Tid) + ",\"args\":{\"name\":\"" + jsonEscape(Name) +
         "\"}}";
}

} // namespace

//===----------------------------------------------------------------------===//
// TraceSink / FileTraceSink
//===----------------------------------------------------------------------===//

TraceSink::~TraceSink() = default;

FileTraceSink::FileTraceSink(std::string HostPath) {
  F = std::fopen(HostPath.c_str(), "wb");
  if (F)
    std::fputs("[", F);
}

FileTraceSink::~FileTraceSink() { close(); }

bool FileTraceSink::event(const std::string &EventJson) {
  if (!F)
    return false;
  if (std::fputs(AnyEvent ? ",\n" : "\n", F) < 0 ||
      std::fputs(EventJson.c_str(), F) < 0)
    return false;
  AnyEvent = true;
  // Flush per event: the file must be loadable while the daemon lives,
  // and trace volume is a few events per request, not per instruction.
  std::fflush(F);
  return true;
}

bool FileTraceSink::close() {
  if (!F)
    return true;
  bool OK = std::fputs("\n]\n", F) >= 0;
  OK = std::fclose(F) == 0 && OK;
  F = nullptr;
  return OK;
}

TraceRecorder::TraceRecorder(bool StartEnabled, size_t PerThreadCapacity)
    : Enabled(StartEnabled),
      Capacity(std::max<size_t>(16, PerThreadCapacity)), BaseNs(nowNanos()),
      Epoch(NextEpoch.fetch_add(1, std::memory_order_relaxed)) {}

TraceRecorder::ThreadLog &TraceRecorder::logForThisThread() {
  // Fast path: this thread already resolved its log for this recorder.
  static thread_local const TraceRecorder *CachedOwner = nullptr;
  static thread_local uint64_t CachedEpoch = 0;
  static thread_local ThreadLog *CachedLog = nullptr;
  if (CachedOwner == this && CachedEpoch == Epoch)
    return *CachedLog;

  std::lock_guard<std::mutex> Lock(Mu);
  ThreadLog *&Slot = ByThread[std::this_thread::get_id()];
  if (!Slot) {
    Logs.push_back(std::make_unique<ThreadLog>());
    Slot = Logs.back().get();
    Slot->Tid = static_cast<uint32_t>(Logs.size() - 1);
    Slot->Name = "thread-" + std::to_string(Slot->Tid);
    Slot->Ring.reserve(std::min<size_t>(Capacity, 1024));
  }
  CachedOwner = this;
  CachedEpoch = Epoch;
  CachedLog = Slot;
  return *Slot;
}

void TraceRecorder::append(TraceEvent E) {
  ThreadLog &TL = logForThisThread();
  // Only this thread and the merge/clear paths ever take RingMu, so
  // this lock is uncontended unless the trace is being snapshotted
  // mid-build — recording threads never serialize on each other.
  std::lock_guard<std::mutex> Lock(TL.RingMu);
  if (TL.Ring.size() < Capacity) {
    TL.Ring.push_back(std::move(E));
    return;
  }
  // Ring full: overwrite the oldest event and count the loss.
  TL.Ring[TL.Next] = std::move(E);
  TL.Next = (TL.Next + 1) % Capacity;
  TL.Dropped.fetch_add(1, std::memory_order_relaxed);
}

void TraceRecorder::span(const char *Category, std::string Name,
                         uint64_t StartNs, uint64_t EndNs,
                         std::string ArgsJson) {
  if (!enabled())
    return;
  TraceEvent E;
  E.K = TraceEvent::Kind::Span;
  E.Category = Category;
  E.Name = std::move(Name);
  E.StartNs = StartNs;
  E.DurNs = EndNs >= StartNs ? EndNs - StartNs : 0;
  E.ArgsJson = std::move(ArgsJson);
  append(std::move(E));
}

void TraceRecorder::instant(const char *Category, std::string Name,
                            std::string ArgsJson) {
  if (!enabled())
    return;
  TraceEvent E;
  E.K = TraceEvent::Kind::Instant;
  E.Category = Category;
  E.Name = std::move(Name);
  E.StartNs = nowNanos();
  E.ArgsJson = std::move(ArgsJson);
  append(std::move(E));
}

void TraceRecorder::setThreadName(std::string Name) {
  ThreadLog &TL = logForThisThread();
  std::lock_guard<std::mutex> Lock(Mu);
  TL.Name = std::move(Name);
}

uint64_t TraceRecorder::droppedEvents() const {
  std::lock_guard<std::mutex> Lock(Mu);
  uint64_t Total = 0;
  for (const auto &TL : Logs)
    Total += TL->Dropped.load(std::memory_order_relaxed);
  return Total;
}

size_t TraceRecorder::numEvents() const {
  std::lock_guard<std::mutex> Lock(Mu);
  size_t Total = 0;
  for (const auto &TL : Logs) {
    std::lock_guard<std::mutex> RingLock(TL->RingMu);
    Total += TL->Ring.size();
  }
  return Total;
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::vector<TraceEvent> Out;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (const auto &TL : Logs) {
      std::lock_guard<std::mutex> RingLock(TL->RingMu);
      // Ring order: oldest first is [Next, end) then [0, Next).
      const size_t N = TL->Ring.size();
      const size_t First = N == Capacity ? TL->Next : 0;
      for (size_t I = 0; I != N; ++I) {
        TraceEvent E = TL->Ring[(First + I) % (N ? N : 1)];
        E.Tid = TL->Tid;
        Out.push_back(std::move(E));
      }
    }
  }
  std::stable_sort(Out.begin(), Out.end(),
                   [](const TraceEvent &A, const TraceEvent &B) {
                     return A.StartNs < B.StartNs;
                   });
  return Out;
}

std::string TraceRecorder::toChromeJson() const {
  std::vector<TraceEvent> Events = snapshot();

  std::string Out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool First = true;
  auto Emit = [&](const std::string &Obj) {
    if (!First)
      Out += ",";
    First = false;
    Out += "\n";
    Out += Obj;
  };

  // Thread-name metadata so chrome://tracing labels the lanes.
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"stateful-compiler build\"}}");
    for (const auto &TL : Logs)
      Emit(threadNameJson(TL->Tid, TL->Name));
    // Ring-overwrite accounting: a lane that dropped events says so in
    // the trace itself, so a truncated trace never looks complete.
    for (const auto &TL : Logs) {
      const uint64_t D = TL->Dropped.load(std::memory_order_relaxed);
      if (D)
        Emit("{\"name\":\"trace_dropped_events\",\"ph\":\"M\",\"pid\":1,"
             "\"tid\":" +
             std::to_string(TL->Tid) + ",\"args\":{\"dropped\":" +
             std::to_string(D) + "}}");
    }
  }

  for (const TraceEvent &E : Events)
    Emit(chromeEventJson(E, BaseNs));
  Out += "\n]}\n";
  return Out;
}

void TraceRecorder::setSink(TraceSink *S) {
  std::lock_guard<std::mutex> Lock(Mu);
  Sink = S;
}

size_t TraceRecorder::flush() {
  // Drain under the locks, serialize and emit outside them: the sink
  // may do file I/O, and recording threads must not block on it.
  std::vector<TraceEvent> Events;
  std::vector<std::string> Metadata;
  TraceSink *S;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    S = Sink;
    if (!S)
      return 0;
    if (!AnnouncedProcess) {
      Metadata.push_back(
          "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
          "\"args\":{\"name\":\"stateful-compiler build\"}}");
      AnnouncedProcess = true;
    }
    for (const auto &TL : Logs) {
      std::string &Sent = AnnouncedThreads[TL->Tid];
      if (Sent != TL->Name) {
        Sent = TL->Name;
        Metadata.push_back(threadNameJson(TL->Tid, TL->Name));
      }
      std::lock_guard<std::mutex> RingLock(TL->RingMu);
      const size_t N = TL->Ring.size();
      const size_t First = N == Capacity ? TL->Next : 0;
      for (size_t I = 0; I != N; ++I) {
        TraceEvent E = std::move(TL->Ring[(First + I) % (N ? N : 1)]);
        E.Tid = TL->Tid;
        Events.push_back(std::move(E));
      }
      TL->Ring.clear();
      TL->Next = 0;
    }
  }
  std::stable_sort(Events.begin(), Events.end(),
                   [](const TraceEvent &A, const TraceEvent &B) {
                     return A.StartNs < B.StartNs;
                   });
  for (const std::string &M : Metadata)
    S->event(M);
  for (const TraceEvent &E : Events)
    S->event(chromeEventJson(E, BaseNs));
  return Events.size();
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  for (auto &TL : Logs) {
    std::lock_guard<std::mutex> RingLock(TL->RingMu);
    TL->Ring.clear();
    TL->Next = 0;
    TL->Dropped.store(0, std::memory_order_relaxed);
  }
}
