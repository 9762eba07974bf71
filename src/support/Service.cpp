//===- support/Service.cpp - Unix-socket daemon skeleton ------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Service.h"

#include "support/Metrics.h"

#include <chrono>
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <system_error>

#include <unistd.h>

using namespace sc;

namespace {
using Clock = std::chrono::steady_clock;
using Ms = std::chrono::milliseconds;

/// The daemon SIGINT/SIGTERM stop. A lock-free atomic pointer, so the
/// handler's load is async-signal-safe.
std::atomic<Service *> SignalTarget{nullptr};

void onStopSignal(int) {
  if (Service *S = SignalTarget.load())
    S->requestStop();
}
} // namespace

Service::~Service() {
  Service *Self = this;
  SignalTarget.compare_exchange_strong(Self, nullptr);
}

void Service::stopOnSignals(Service &S) {
  SignalTarget.store(&S);
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onStopSignal;
  sigemptyset(&SA.sa_mask);
  ::sigaction(SIGINT, &SA, nullptr);
  ::sigaction(SIGTERM, &SA, nullptr);
  std::signal(SIGPIPE, SIG_IGN); // Client death mid-frame must not kill us.
}

void Service::chat(const char *Fmt, ...) {
  if (Cfg.Quiet)
    return;
  va_list Ap;
  va_start(Ap, Fmt);
  std::vfprintf(stderr, Fmt, Ap);
  va_end(Ap);
}

bool Service::listen(const std::string &Path, std::string *Err) {
  // A leftover socket file from a dead daemon would make bind() fail
  // with EADDRINUSE forever; a live daemon answers a connect. Probe
  // before unlinking so a serving daemon's socket is never stolen.
  if (UnixSocket::connectTo(Path, nullptr).valid()) {
    if (Err)
      *Err = std::string("another ") + Cfg.Name + " is already serving '" +
             Path + "'";
    return false;
  }
  ::unlink(Path.c_str());
  std::string SockErr;
  Listener = UnixSocket::listenOn(Path, &SockErr);
  if (!Listener.valid()) {
    if (Err)
      *Err = "could not listen on '" + Path + "': " + SockErr;
    return false;
  }
  SockPath = Path;
  return true;
}

bool Service::nextFrame(UnixSocket &Conn, std::string &Payload,
                        unsigned WaitMs) {
  // Wait for the first byte in slices, so a silent peer never holds a
  // drain hostage; once bytes flow, the deadline bounds the whole frame
  // (a half-frame stall cannot pin the thread).
  const auto Deadline = Clock::now() + Ms(WaitMs);
  for (;;) {
    if (Stop.load() || (WaitMs && Clock::now() >= Deadline))
      return false;
    if (Conn.readable(/*TimeoutMs=*/100))
      return Conn.recvFrame(Payload, IoTimeoutMs);
  }
}

void Service::dumpMetricsFile() {
  if (Cfg.MetricsOut.empty())
    return;
  // Temp + rename: a scraper never reads a half-written file.
  const std::string Text = metricsText();
  const std::string Tmp = Cfg.MetricsOut + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F)
    return;
  const bool Wrote = std::fwrite(Text.data(), 1, Text.size(), F) ==
                     Text.size();
  std::fclose(F);
  if (!Wrote || ::rename(Tmp.c_str(), Cfg.MetricsOut.c_str()) != 0)
    ::unlink(Tmp.c_str());
}

void Service::refuse() {
  if (Cfg.Metrics)
    Cfg.Metrics->counter(std::string(Cfg.MetricPrefix) + ".connections_refused")
        .add(1);
}

void Service::spawn(UnixSocket Conn) {
  // Over the cap the connection is closed unanswered: the peer sees a
  // disconnect and degrades (in-process build, local-only cache)
  // instead of pinning one more thread.
  if (Connections.size() >= MaxConnections)
    return refuse();
  Connections.emplace_back();
  Connection &C = Connections.back();
  Active.fetch_add(1);
  try {
    C.T = std::thread(
        [this, &C](UnixSocket S) {
          serveConnection(S);
          Active.fetch_sub(1);
          C.Finished.store(true);
        },
        std::move(Conn));
  } catch (const std::system_error &) {
    Active.fetch_sub(1);
    Connections.pop_back();
    refuse();
  }
}

void Service::reapConnections(bool JoinAll) {
  for (auto It = Connections.begin(); It != Connections.end();) {
    if (JoinAll || It->Finished.load()) {
      if (It->T.joinable())
        It->T.join();
      It = Connections.erase(It);
    } else {
      ++It;
    }
  }
}

int Service::run() {
  auto LastActivity = Clock::now();
  auto LastDump = Clock::now();
  dumpMetricsFile(); // The file exists from the first slice on.
  uint64_t LastTick = ActivityTick.load();
  while (!Stop.load()) {
    const auto Now = Clock::now();
    if (Now - LastDump >= Ms(MetricsIntervalMs)) {
      dumpMetricsFile();
      LastDump = Now;
    }
    // Requests finish on connection threads this loop never sees;
    // the tick tells it one did.
    const uint64_t Tick = ActivityTick.load();
    if (Tick != LastTick || InFlight.load() != 0) {
      LastTick = Tick;
      LastActivity = Now;
    }
    if (Cfg.IdleTimeoutMs && Now - LastActivity >= Ms(Cfg.IdleTimeoutMs)) {
      chat("%s: idle for %u ms, exiting\n", Cfg.Name, Cfg.IdleTimeoutMs);
      break;
    }
    bool TimedOut = false;
    UnixSocket Conn = Listener.accept(/*TimeoutMs=*/200, &TimedOut);
    reapConnections(/*JoinAll=*/false);
    if (!Conn.valid())
      continue; // Timeout slice (or transient accept error): re-poll.
    LastActivity = Clock::now();
    spawn(std::move(Conn));
  }
  shutdown();
  // The file ends on the drained state, not the last periodic slice.
  dumpMetricsFile();
  return 0;
}

void Service::shutdown() {
  Stop.store(true);
  // Close and unlink first: new clients fail over (in-process build,
  // local-only cache) instead of queueing on a daemon that will never
  // answer. Only the daemon that bound the socket removes it.
  if (Listener.valid()) {
    Listener.close();
    ::unlink(SockPath.c_str());
  }
  drain();
  // Every connection thread is done within one I/O deadline per frame.
  reapConnections(/*JoinAll=*/true);
}
