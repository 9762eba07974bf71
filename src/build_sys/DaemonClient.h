//===- build_sys/DaemonClient.h - Build-daemon client -----------*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Client side of the build-daemon protocol (see Daemon.h): connect to
/// `<OutDir>/.daemon.sock`, send one DaemonRequest, stream the response
/// frames to callbacks until the terminating `exit` frame. `scbuild
/// --daemon` is a thin wrapper over this class; tests drive it
/// directly.
///
/// The daemon is a shared service and may answer `busy` under load
/// (admission control) or vanish mid-request (drain, crash). The
/// requestWithRetry() entry point owns that client-side contract:
/// bounded attempts with doubling backoff + jitter, honoring the
/// daemon's suggested retry-after, before giving up so the caller can
/// fall back to an in-process build.
///
//===----------------------------------------------------------------------===//

#ifndef SC_BUILD_SYS_DAEMONCLIENT_H
#define SC_BUILD_SYS_DAEMONCLIENT_H

#include "build_sys/Daemon.h"
#include "support/Socket.h"

#include <functional>
#include <string>

namespace sc {

class DaemonClient {
public:
  /// roundTrip()/requestWithRetry() results below 0. Any value >= 0 is
  /// the exit code from the daemon's exit frame.
  static constexpr int TransportError = -1; ///< Connect/send/recv failed.
  static constexpr int BusyRejected = -2;   ///< Daemon answered `busy`.

  /// Client-side retry contract for requestWithRetry().
  struct RetryPolicy {
    /// Total connection attempts (first try included). 1 = no retry.
    unsigned Attempts = 4;
    /// Backoff before the second attempt; doubles each retry, up to
    /// 1 s before jitter.
    unsigned InitialBackoffMs = 25;
    /// Test hook: fixed jitter seed for reproducible backoff; 0 seeds
    /// from the clock.
    unsigned JitterSeed = 0;
    /// Test/observability hook: invoked before each sleep with
    /// (attempt index, sleep ms).
    std::function<void(unsigned, unsigned)> OnBackoff;
  };

  /// Connects to the daemon socket at \p SocketHostPath. The result is
  /// disconnected (no error text — "no daemon running" is an expected,
  /// quiet condition the caller falls back from) when nothing listens.
  static DaemonClient connect(const std::string &SocketHostPath);

  bool connected() const { return Sock.valid(); }

  /// Sends \p Req and streams response frames: `out` frame text to
  /// \p OnOut, `err` frame text to \p OnErr, until the `exit` frame,
  /// whose full content (code + counters) is copied to \p Exit when
  /// non-null. Returns the exit code from the frame, TransportError on
  /// a transport/protocol failure (\p Err describes it), or
  /// BusyRejected when the daemon bounced the request under load (the
  /// busy frame — queue depth, suggested retry-after — is copied to
  /// \p Exit). One request per connection: the client is disconnected
  /// afterwards.
  int roundTrip(const DaemonRequest &Req,
                const std::function<void(const std::string &)> &OnOut,
                const std::function<void(const std::string &)> &OnErr,
                DaemonFrame *Exit = nullptr, std::string *Err = nullptr);

  /// The full client contract: connect + roundTrip, retrying `busy`
  /// rejections and transport failures (a draining or vanished daemon)
  /// per \p Policy with doubling backoff + jitter (a busy frame's
  /// retry-after suggestion, when larger, wins over the computed
  /// backoff). Returns the first successful exit code, or the last
  /// failure (TransportError / BusyRejected) once attempts are
  /// exhausted — the caller's cue to fall back to an in-process build.
  static int requestWithRetry(
      const std::string &SocketHostPath, const DaemonRequest &Req,
      const std::function<void(const std::string &)> &OnOut,
      const std::function<void(const std::string &)> &OnErr,
      const RetryPolicy &Policy, DaemonFrame *Exit = nullptr,
      std::string *Err = nullptr);

private:
  DaemonClient() = default;
  explicit DaemonClient(UnixSocket S) : Sock(std::move(S)) {}

  UnixSocket Sock;
};

} // namespace sc

#endif // SC_BUILD_SYS_DAEMONCLIENT_H
