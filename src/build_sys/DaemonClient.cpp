//===- build_sys/DaemonClient.cpp - Build-daemon client ------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "build_sys/DaemonClient.h"

#include <algorithm>
#include <chrono>
#include <random>
#include <thread>

using namespace sc;

namespace {

/// Ceiling of requestWithRetry()'s doubling backoff, before jitter.
constexpr unsigned MaxBackoffMs = 1000;

/// How long roundTrip() waits for each response frame. Builds can
/// legitimately take a while; this only catches a daemon that died
/// mid-response.
constexpr unsigned FrameTimeoutMs = 600000;

} // namespace

DaemonClient DaemonClient::connect(const std::string &SocketHostPath) {
  std::string Ignored;
  return DaemonClient(UnixSocket::connectTo(SocketHostPath, &Ignored));
}

int DaemonClient::roundTrip(
    const DaemonRequest &Req,
    const std::function<void(const std::string &)> &OnOut,
    const std::function<void(const std::string &)> &OnErr, DaemonFrame *Exit,
    std::string *Err) {
  auto Fail = [&](const std::string &Why) {
    if (Err)
      *Err = Why;
    Sock.close();
    return TransportError;
  };
  if (!Sock.valid())
    return Fail("not connected");
  if (!Sock.sendFrame(encodeRequest(Req)))
    return Fail("could not send the request (daemon gone?)");
  for (;;) {
    std::string Payload;
    if (!Sock.recvFrame(Payload, FrameTimeoutMs))
      return Fail("connection lost before the exit frame");
    DaemonFrame F;
    if (!decodeFrame(Payload, F))
      return Fail("malformed response frame");
    if (F.Type == "out") {
      if (OnOut)
        OnOut(F.Text);
    } else if (F.Type == "err") {
      if (OnErr)
        OnErr(F.Text);
    } else if (F.Type == "busy") {
      // Admission control bounced us; terminal for this connection.
      // The frame carries the daemon's queue depth and suggested
      // retry-after for the caller's backoff logic.
      if (Exit)
        *Exit = F;
      if (Err)
        *Err = "daemon busy (queue depth " + std::to_string(F.QueueDepth) +
               ")";
      Sock.close();
      return BusyRejected;
    } else if (F.Type == "exit") {
      if (Exit)
        *Exit = F;
      Sock.close();
      return F.Code;
    } else {
      return Fail("unknown frame type '" + F.Type + "'");
    }
  }
}

int DaemonClient::requestWithRetry(
    const std::string &SocketHostPath, const DaemonRequest &Req,
    const std::function<void(const std::string &)> &OnOut,
    const std::function<void(const std::string &)> &OnErr,
    const RetryPolicy &Policy, DaemonFrame *Exit, std::string *Err) {
  // Doubling backoff with full jitter: each sleep is uniform in
  // [Backoff/2, Backoff], so a thundering herd of rejected clients
  // spreads out instead of re-colliding in lockstep.
  std::mt19937 Rng(Policy.JitterSeed
                       ? Policy.JitterSeed
                       : static_cast<unsigned>(
                             std::chrono::steady_clock::now()
                                 .time_since_epoch()
                                 .count()));
  unsigned Backoff = std::max(Policy.InitialBackoffMs, 1u);
  int Last = TransportError;
  const unsigned Attempts = std::max(Policy.Attempts, 1u);
  for (unsigned Attempt = 0; Attempt != Attempts; ++Attempt) {
    DaemonClient C = connect(SocketHostPath);
    if (!C.connected()) {
      if (Err)
        *Err = "no daemon listening on '" + SocketHostPath + "'";
      // Nothing listens: retrying cannot help unless a daemon is
      // about to (re)appear — transport retries cover a drain window.
      Last = TransportError;
    } else {
      DaemonFrame F;
      Last = C.roundTrip(Req, OnOut, OnErr, &F, Err);
      if (Exit)
        *Exit = F;
      if (Last >= 0)
        return Last;
      if (Attempt + 1 != Attempts) {
        // The daemon knows its queue better than our exponential
        // schedule does: when it suggested a retry-after, the larger
        // of the two wins.
        if (Last == BusyRejected && F.RetryAfterMs > Backoff)
          Backoff = F.RetryAfterMs;
      }
    }
    if (Attempt + 1 == Attempts)
      break;
    std::uniform_int_distribution<unsigned> Jitter(Backoff / 2,
                                                   std::max(Backoff, 1u));
    const unsigned SleepMs = Jitter(Rng);
    if (Policy.OnBackoff)
      Policy.OnBackoff(Attempt, SleepMs);
    std::this_thread::sleep_for(std::chrono::milliseconds(SleepMs));
    Backoff = std::min(Backoff * 2, MaxBackoffMs);
  }
  return Last;
}
