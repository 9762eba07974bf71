//===- cache_sys/RemoteCacheClient.h - sccached client ----------*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The build-side client of `sccached`, speaking CacheProtocol over
/// one persistent connection. The BuildDriver composes its verbs into
/// the tiering contract:
///
///   local misses -> fetchBatch(input keys)   [action -> object -> verify]
///   local hits   -> touchBatch(keys, digests) [keep the fleet's hot set warm]
///   compiled     -> publish(key, digest, bytes)
///
/// Every fetched object is re-verified here (hash(bytes) == digest)
/// before the caller may admit it to the local cache — the daemon
/// verifies too, but a client never trusts the wire. Results are
/// three-valued: Hit/Miss describe the cache, Error means the remote
/// is unusable (dead daemon, protocol desync) — the driver's cue to
/// degrade to local-only. After any Error the client latches into a
/// failed state and answers Error without touching the socket, so one
/// warning covers the whole build.
///
//===----------------------------------------------------------------------===//

#ifndef SC_CACHE_SYS_REMOTECACHECLIENT_H
#define SC_CACHE_SYS_REMOTECACHECLIENT_H

#include "cache_sys/CacheProtocol.h"
#include "support/Socket.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace sc {

class RemoteCacheClient {
public:
  enum class Result { Hit, Miss, Error };

  /// Connects to a listening sccached; null (with \p Err) when nothing
  /// answers — the caller treats that like any other remote error.
  static std::unique_ptr<RemoteCacheClient>
  connect(const std::string &SocketPath, std::string *Err);

  /// One key's answer: a get hits when the object arrived and hashes to
  /// Digest, a touch when the remote holds both entries.
  struct Fetched {
    bool Hit = false;
    uint64_t Digest = 0;
    std::string Bytes;
  };

  /// Resolves input key I to its verified object in \p Out[I], in
  /// ceil(N / CacheMaxBatch) round trips; Error when any failed.
  Result fetchBatch(const std::vector<uint64_t> &InputKeys,
                    std::vector<Fetched> &Out) {
    return lookup(CacheRequest::Op::Get, InputKeys, {}, Out);
  }

  /// Refreshes each locally-clean TU's entries, batched the same way; a
  /// miss means the caller should publish, which is how a warm builder
  /// populates a cold fleet cache without recompiling anything.
  Result touchBatch(const std::vector<uint64_t> &InputKeys,
                    const std::vector<uint64_t> &Digests,
                    std::vector<Fetched> &Out) {
    return lookup(CacheRequest::Op::Touch, InputKeys, Digests, Out);
  }

  /// One-key fetchBatch and touchBatch.
  Result fetch(uint64_t InputKey, uint64_t &Digest, std::string &Bytes);
  Result touchEntry(uint64_t InputKey, uint64_t Digest);

  /// Publishes a compiled object and its action mapping.
  Result publish(uint64_t InputKey, uint64_t Digest,
                 const std::string &Bytes);

  Result stats(CacheStats &Out);

  /// Fetches the daemon's metrics registry rendered both ways:
  /// Prometheus text (\p Text) and registry JSON (\p Json). Hit when
  /// the daemon answered with a non-empty rendering.
  Result metrics(std::string &Text, std::string &Json);

  /// Asks the daemon to exit; true when it acknowledged.
  bool shutdownServer();

  /// True once any operation failed; all further calls return Error
  /// cheaply.
  bool failed() const { return Failed; }

  /// Request/response exchanges attempted over this connection.
  uint64_t roundTrips() const { return RoundTrips; }

private:
  explicit RemoteCacheClient(UnixSocket Conn) : Conn(std::move(Conn)) {}

  /// One request/response exchange, sending \p ObjBytes as a binary
  /// frame after the header when non-null. Object frames that follow
  /// the reply are the caller's to receive.
  bool roundTrip(const CacheRequest &Req, CacheResponse &Resp,
                 const std::string *ObjBytes);
  Result lookup(CacheRequest::Op Op, const std::vector<uint64_t> &Keys,
                const std::vector<uint64_t> &Digests,
                std::vector<Fetched> &Out);
  /// Latches the failed state and closes the connection.
  Result fail();

  UnixSocket Conn;
  bool Failed = false;
  uint64_t RoundTrips = 0;
};

} // namespace sc

#endif // SC_CACHE_SYS_REMOTECACHECLIENT_H
