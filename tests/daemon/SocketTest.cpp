//===- tests/daemon/SocketTest.cpp - Socket deadline tests ----------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The per-connection deadline contract of support/Socket, added for
// the multi-client build daemon:
//
//  * recvFrame's timeout is a *total deadline* for the whole frame — a
//    slow-loris peer dribbling one byte per interval keeps the wait
//    bounded by TimeoutMs, where a per-chunk timeout would let it pin
//    a server thread forever;
//  * sendFrame with a timeout bounds the writer against a peer that
//    stopped draining its receive buffer;
//  * readable() lets a server wait for a client's first byte in slices
//    (observing a stop flag) without consuming any frame bytes.
//
//===----------------------------------------------------------------------===//

#include "support/Socket.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace sc;

namespace {

using Clock = std::chrono::steady_clock;

int64_t msSince(Clock::time_point Start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               Start)
      .count();
}

struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/sc-sockdl-XXXXXX";
    const char *P = ::mkdtemp(Buf);
    EXPECT_NE(P, nullptr);
    Path = P ? P : "";
  }
  ~TempDir() {
    if (!Path.empty()) {
      std::error_code EC;
      std::filesystem::remove_all(Path, EC);
    }
  }
};

/// A listener plus one accepted connection. Exposes the client's raw
/// fd so tests can write partial/dribbled frames sendFrame would never
/// produce.
struct SocketPair {
  TempDir Dir;
  std::string SockPath;
  UnixSocket Listener;
  int RawClient = -1;
  UnixSocket Server;

  SocketPair() {
    SockPath = Dir.Path + "/s.sock";
    std::string Err;
    Listener = UnixSocket::listenOn(SockPath, &Err);
    EXPECT_TRUE(Listener.valid()) << Err;
    RawClient = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(RawClient, 0);
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::memcpy(Addr.sun_path, SockPath.c_str(), SockPath.size() + 1);
    EXPECT_EQ(
        ::connect(RawClient, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
        0);
    bool TimedOut = false;
    Server = Listener.accept(2000, &TimedOut);
    EXPECT_TRUE(Server.valid());
  }
  ~SocketPair() {
    if (RawClient >= 0)
      ::close(RawClient);
  }
};

//===----------------------------------------------------------------------===//
// Total receive deadline (slow-loris)
//===----------------------------------------------------------------------===//

// A client that sends half a length header and then stalls must cost
// the server at most the total deadline, not an unbounded wait.
TEST(SocketDeadline, HalfFrameStallTimesOut) {
  SocketPair P;
  const unsigned char HalfHeader[2] = {0x10, 0x00};
  ASSERT_EQ(::send(P.RawClient, HalfHeader, 2, 0), 2);

  const auto Start = Clock::now();
  std::string Payload;
  UnixSocket::RecvStatus Status;
  EXPECT_FALSE(P.Server.recvFrame(Payload, 200, &Status));
  EXPECT_EQ(Status, UnixSocket::RecvStatus::TimedOut);
  EXPECT_LT(msSince(Start), 2000);
}

// The sharper property: a peer that keeps dribbling one byte per
// interval makes *progress* on every wait, so a per-chunk timeout
// would never fire. The total deadline bounds it anyway.
TEST(SocketDeadline, SlowLorisDribbleIsBoundedByTotalDeadline) {
  SocketPair P;
  // Announce a 4 KiB payload, then feed one byte every 20 ms — far
  // slower than the frame could ever complete within the deadline.
  const unsigned char Header[4] = {0x00, 0x10, 0x00, 0x00};
  ASSERT_EQ(::send(P.RawClient, Header, 4, 0), 4);

  std::atomic<bool> StopDribble{false};
  std::thread Dribbler([&] {
    const char Byte = 'x';
    while (!StopDribble.load()) {
      if (::send(P.RawClient, &Byte, 1, MSG_NOSIGNAL) <= 0)
        break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  const auto Start = Clock::now();
  std::string Payload;
  UnixSocket::RecvStatus Status;
  EXPECT_FALSE(P.Server.recvFrame(Payload, 300, &Status));
  const int64_t Elapsed = msSince(Start);
  EXPECT_EQ(Status, UnixSocket::RecvStatus::TimedOut);
  // Bounded by the total deadline (with scheduling slack), despite the
  // continuous trickle of bytes resetting any per-chunk clock.
  EXPECT_GE(Elapsed, 280);
  EXPECT_LT(Elapsed, 3000);

  StopDribble.store(true);
  Dribbler.join();
}

//===----------------------------------------------------------------------===//
// Send deadline (peer stopped reading)
//===----------------------------------------------------------------------===//

// A peer that never drains its receive buffer eventually backpressures
// the sender. With a timeout, sendFrame must surface that as failure
// within the deadline instead of blocking forever.
TEST(SocketDeadline, SendToStuffedPeerTimesOut) {
  SocketPair P;
  // Large enough to overrun the combined kernel buffers of both ends.
  std::string Big(8u << 20, 'b');
  const auto Start = Clock::now();
  bool AnyFailed = false;
  for (int I = 0; I != 8 && !AnyFailed; ++I)
    AnyFailed = !P.Server.sendFrame(Big, /*TimeoutMs=*/300);
  EXPECT_TRUE(AnyFailed);
  EXPECT_LT(msSince(Start), 5000);
}

// The deadline must not break ordinary sends: a draining peer receives
// the frame intact well within a generous timeout, even when the frame
// exceeds the kernel buffers (forcing many poll+send rounds).
TEST(SocketDeadline, TimedSendDeliversToDrainingPeer) {
  SocketPair P;
  std::string Sent(4u << 20, 's');
  size_t Drained = 0;
  std::thread Drainer([&] {
    std::string Buf(1 << 16, '\0');
    while (Drained < Sent.size() + 4) {
      ssize_t N = ::recv(P.RawClient, Buf.data(), Buf.size(), 0);
      if (N <= 0)
        break;
      Drained += static_cast<size_t>(N);
      // Drain slowly enough to exercise backpressure, fast enough to
      // beat the deadline.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  EXPECT_TRUE(P.Server.sendFrame(Sent, /*TimeoutMs=*/30000));
  Drainer.join();
  EXPECT_EQ(Drained, Sent.size() + 4); // 4-byte length prefix included.
}

// The send deadline is a total one: a peer that keeps draining, but
// far too slowly for the frame, cannot stretch the send past it.
TEST(SocketDeadline, SlowDrainingPeerIsBoundedByTotalDeadline) {
  SocketPair P;
  std::atomic<bool> Done{false};
  std::thread Drainer([&] {
    char Buf[1024];
    while (!Done.load()) {
      if (::recv(P.RawClient, Buf, sizeof(Buf), MSG_DONTWAIT) == 0)
        break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  // 8 MiB at ~200 KiB/s would take ~40 s to drain.
  const auto Start = Clock::now();
  EXPECT_FALSE(P.Server.sendFrame(std::string(8u << 20, 'd'),
                                  /*TimeoutMs=*/300));
  EXPECT_LT(msSince(Start), 3000);
  Done.store(true);
  Drainer.join();
}

//===----------------------------------------------------------------------===//
// readable()
//===----------------------------------------------------------------------===//

TEST(SocketDeadline, ReadableSeesPendingBytesWithoutConsuming) {
  SocketPair P;
  EXPECT_FALSE(P.Server.readable(/*TimeoutMs=*/50)); // Nothing yet.

  // A complete raw frame: header announcing 5 bytes, then "hello".
  const unsigned char Header[4] = {0x05, 0x00, 0x00, 0x00};
  ASSERT_EQ(::send(P.RawClient, Header, 4, 0), 4);
  ASSERT_EQ(::send(P.RawClient, "hello", 5, 0), 5);

  // readable() may be polled any number of times without consuming
  // frame bytes: the subsequent recvFrame still sees the whole frame.
  EXPECT_TRUE(P.Server.readable(/*TimeoutMs=*/2000));
  EXPECT_TRUE(P.Server.readable(/*TimeoutMs=*/50));
  std::string Payload;
  UnixSocket::RecvStatus Status;
  EXPECT_TRUE(P.Server.recvFrame(Payload, 2000, &Status));
  EXPECT_EQ(Status, UnixSocket::RecvStatus::Ok);
  EXPECT_EQ(Payload, "hello");
}

TEST(SocketDeadline, ReadableSeesEof) {
  SocketPair P;
  ::close(P.RawClient);
  P.RawClient = -1;
  // EOF counts as readable (a recv would return 0 immediately) — the
  // daemon's sliced pre-read wait must wake for dead clients too.
  EXPECT_TRUE(P.Server.readable(/*TimeoutMs=*/2000));
  std::string Payload;
  UnixSocket::RecvStatus Status;
  EXPECT_FALSE(P.Server.recvFrame(Payload, 200, &Status));
  EXPECT_EQ(Status, UnixSocket::RecvStatus::Disconnected);
}

} // namespace
