//===- support/Socket.cpp - Unix-domain socket wrapper -------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Socket.h"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace sc;

// Linux spells write-side SIGPIPE suppression MSG_NOSIGNAL; the BSDs
// (including macOS) spell it SO_NOSIGPIPE on the socket instead. Cover
// both so a dead peer is always a send error, never a fatal signal.
#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace {

/// Best-effort SO_NOSIGPIPE for platforms without MSG_NOSIGNAL. On
/// Linux this is a no-op (the flag covers it); elsewhere it is the only
/// line of defense, applied to every socket we create or accept.
void suppressSigpipe(int FD) {
#ifdef SO_NOSIGPIPE
  int One = 1;
  ::setsockopt(FD, SOL_SOCKET, SO_NOSIGPIPE, &One, sizeof(One));
#else
  (void)FD;
#endif
}

bool fillAddress(const std::string &Path, sockaddr_un &Addr,
                 std::string *Err) {
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    if (Err)
      *Err = "socket path too long (" + std::to_string(Path.size()) +
             " bytes; Unix sockets allow " +
             std::to_string(sizeof(Addr.sun_path) - 1) + "): " + Path;
    return false;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}

using Clock = std::chrono::steady_clock;

/// Milliseconds from now until \p Deadline, clamped to >= 0. A
/// zero-initialized (epoch) deadline means "no deadline" and maps to
/// poll's infinite wait (-1).
int remainingMs(Clock::time_point Deadline) {
  if (Deadline == Clock::time_point())
    return -1;
  auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                  Deadline - Clock::now())
                  .count();
  return Left > 0 ? static_cast<int>(Left) : 0;
}

/// Waits until \p FD is ready for \p Events (POLLIN / POLLOUT) or
/// \p Deadline passes. True on ready, false on timeout or error (with
/// errno left describing the failure for the caller).
bool waitReady(int FD, short Events, Clock::time_point Deadline,
               bool *TimedOut) {
  if (TimedOut)
    *TimedOut = false;
  pollfd P{FD, Events, 0};
  for (;;) {
    int R = ::poll(&P, 1, remainingMs(Deadline));
    if (R > 0)
      return true;
    if (R == 0) {
      if (TimedOut)
        *TimedOut = true;
      return false;
    }
    if (errno != EINTR)
      return false;
  }
}

/// Waits until \p FD is readable within \p TimeoutMs of *now* (a plain
/// single wait, for accept()).
bool waitReadable(int FD, unsigned TimeoutMs, bool *TimedOut) {
  return waitReady(FD, POLLIN,
                   Clock::now() + std::chrono::milliseconds(TimeoutMs),
                   TimedOut);
}

} // namespace

UnixSocket UnixSocket::listenOn(const std::string &Path, std::string *Err) {
  sockaddr_un Addr;
  if (!fillAddress(Path, Addr, Err))
    return UnixSocket();
  int FD = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (FD < 0) {
    if (Err)
      *Err = std::strerror(errno);
    return UnixSocket();
  }
  suppressSigpipe(FD);
  if (::bind(FD, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      ::listen(FD, 8) != 0) {
    if (Err)
      *Err = std::strerror(errno);
    ::close(FD);
    return UnixSocket();
  }
  return UnixSocket(FD);
}

UnixSocket UnixSocket::connectTo(const std::string &Path, std::string *Err) {
  sockaddr_un Addr;
  if (!fillAddress(Path, Addr, Err))
    return UnixSocket();
  int FD = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (FD < 0) {
    if (Err)
      *Err = std::strerror(errno);
    return UnixSocket();
  }
  suppressSigpipe(FD);
  int R;
  do
    R = ::connect(FD, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr));
  while (R != 0 && errno == EINTR);
  if (R != 0) {
    if (Err)
      *Err = std::strerror(errno);
    ::close(FD);
    return UnixSocket();
  }
  return UnixSocket(FD);
}

UnixSocket::UnixSocket(UnixSocket &&Other) noexcept : FD(Other.FD) {
  Other.FD = -1;
}

UnixSocket &UnixSocket::operator=(UnixSocket &&Other) noexcept {
  if (this != &Other) {
    close();
    FD = Other.FD;
    Other.FD = -1;
  }
  return *this;
}

UnixSocket::~UnixSocket() { close(); }

void UnixSocket::close() {
  if (FD >= 0) {
    ::close(FD);
    FD = -1;
  }
}

UnixSocket UnixSocket::accept(unsigned TimeoutMs, bool *TimedOut) {
  if (!waitReadable(FD, TimeoutMs, TimedOut))
    return UnixSocket();
  int Conn;
  do
    Conn = ::accept(FD, nullptr, nullptr);
  while (Conn < 0 && errno == EINTR);
  if (Conn < 0)
    return UnixSocket();
  suppressSigpipe(Conn);
  return UnixSocket(Conn);
}

bool UnixSocket::sendFrame(const std::string &Payload, unsigned TimeoutMs) {
  if (FD < 0 || Payload.size() > MaxFramePayload)
    return false;
  const uint32_t Len = static_cast<uint32_t>(Payload.size());
  unsigned char Header[4] = {
      static_cast<unsigned char>(Len & 0xff),
      static_cast<unsigned char>((Len >> 8) & 0xff),
      static_cast<unsigned char>((Len >> 16) & 0xff),
      static_cast<unsigned char>((Len >> 24) & 0xff)};
  std::string Wire(reinterpret_cast<char *>(Header), 4);
  Wire += Payload;
  // One deadline for the whole frame (0 = none): a peer that stopped
  // draining its receive buffer, or drains it too slowly, fails the
  // send instead of pinning the writing thread. Under a deadline the
  // send never blocks (MSG_DONTWAIT); only a full buffer (EAGAIN) waits
  // for room, and never past the deadline.
  const auto Deadline =
      TimeoutMs ? Clock::now() + std::chrono::milliseconds(TimeoutMs)
                : Clock::time_point();
  const int SendFlags = MSG_NOSIGNAL | (TimeoutMs ? MSG_DONTWAIT : 0);
  size_t Off = 0;
  while (Off != Wire.size()) {
    ssize_t N = ::send(FD, Wire.data() + Off, Wire.size() - Off, SendFlags);
    if (N > 0) {
      Off += static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) &&
        Clock::now() < Deadline && waitReady(FD, POLLOUT, Deadline, nullptr))
      continue;
    return false;
  }
  return true;
}

bool UnixSocket::readable(unsigned TimeoutMs) {
  if (FD < 0)
    return false;
  bool TimedOut = false;
  return waitReadable(FD, TimeoutMs, &TimedOut);
}

bool UnixSocket::recvFrame(std::string &Payload, unsigned TimeoutMs,
                           RecvStatus *Status) {
  auto Fail = [&](RecvStatus R) {
    if (Status)
      *Status = R;
    return false;
  };
  if (FD < 0)
    return Fail(RecvStatus::Disconnected);
  // One deadline for the *whole frame*: header and payload together
  // must arrive within TimeoutMs. Per-chunk waits would let a
  // slow-loris peer (one byte per poll interval) hold a server thread
  // indefinitely; a total deadline bounds the worst case exactly.
  const auto Deadline = Clock::now() + std::chrono::milliseconds(TimeoutMs);
  bool TimedOut = false;
  auto ReadExactly = [&](char *Buf, size_t Want) {
    size_t Off = 0;
    while (Off != Want) {
      if (!waitReady(FD, POLLIN, Deadline, &TimedOut))
        return false;
      ssize_t N = ::recv(FD, Buf + Off, Want - Off, 0);
      if (N <= 0) {
        if (N < 0 && errno == EINTR)
          continue;
        return false; // Disconnect or hard error.
      }
      Off += static_cast<size_t>(N);
    }
    return true;
  };
  unsigned char Header[4];
  if (!ReadExactly(reinterpret_cast<char *>(Header), 4))
    return Fail(TimedOut ? RecvStatus::TimedOut : RecvStatus::Disconnected);
  const uint32_t Len = static_cast<uint32_t>(Header[0]) |
                       (static_cast<uint32_t>(Header[1]) << 8) |
                       (static_cast<uint32_t>(Header[2]) << 16) |
                       (static_cast<uint32_t>(Header[3]) << 24);
  // Reject before resize(): a corrupt header must never drive an
  // allocation.
  if (Len > MaxFramePayload)
    return Fail(RecvStatus::ProtocolError);
  Payload.resize(Len);
  if (Len != 0 && !ReadExactly(Payload.data(), Len))
    return Fail(TimedOut ? RecvStatus::TimedOut : RecvStatus::Disconnected);
  if (Status)
    *Status = RecvStatus::Ok;
  return true;
}
