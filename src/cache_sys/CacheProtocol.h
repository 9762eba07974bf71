//===- cache_sys/CacheProtocol.h - sccached wire protocol -------*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire protocol between `sccached` (the shared object-cache
/// daemon) and its clients, on the length-prefixed JSON framing
/// the build daemon uses (support/Socket.h + FlatJson.h). Every message
/// is one JSON header frame; a `put` request is followed by one binary
/// frame of object bytes, and a `get` response by one per object found,
/// in key order.
///
/// The store holds two entry kinds. An `obj` is object bytes keyed by
/// their 16-hex content hash, so both ends verify every transfer: the
/// daemon rejects a put whose bytes do not hash to the digest and never
/// serves a stored object that fails the check, and the client re-hashes
/// every object it fetches. An `act` maps an *input* key (hash of a
/// TU's content hash, effective import interface hash and build config
/// hash) to the digest of the object those inputs produce, which lets a
/// cold workspace resolve inputs -> digest -> verified bytes; a corrupt
/// one leads to a miss, never to wrong bytes.
///
/// Requests name `entry` (an action and its object) or, for get/touch
/// by digest, `obj`. A put carries one input key and its digest. A get
/// or touch carries one to CacheMaxBatch hex16 keys back to back (a
/// touch also one digest per key); the response's `mask` holds '1'
/// (found) or '0' per key, and a get's `digest` lists the found digests.
/// Daemons that predate batching reject `entry` as a bad request.
/// Messages go through the one field-list codec (support/FlatJson.h):
/// a field that is empty, zero or false is not written, an absent key
/// reads as exactly that, and decoders skip unknown keys, nested ones
/// included, so the protocol can grow without breaking older peers.
///
//===----------------------------------------------------------------------===//

#ifndef SC_CACHE_SYS_CACHEPROTOCOL_H
#define SC_CACHE_SYS_CACHEPROTOCOL_H

#include <cstdint>
#include <string>
#include <vector>

namespace sc {

/// Fixed-width lowercase hex spelling of a 64-bit hash — the wire and
/// on-disk form of every cache key and digest.
std::string hex16(uint64_t V);

/// Strict inverse of hex16(): exactly 16 lowercase/uppercase hex
/// digits. Anything else is a protocol error.
bool parseHex16(const std::string &S, uint64_t &V);

/// Splits one or more hex16 keys back to back; false on anything else.
bool parseHex16List(const std::string &S, std::vector<uint64_t> &Out);

/// Most keys per get/touch: a ~2 KiB header and 64 object frames, each
/// far inside the 64 MiB frame cap and its own 10 s deadline.
inline constexpr size_t CacheMaxBatch = 64;

/// Aggregate counters the daemon reports via `stats` (and prints on
/// shutdown). All lifetime totals since daemon start.
struct CacheStats {
  uint64_t Gets = 0;          ///< get requests served.
  uint64_t Hits = 0;          ///< get requests that found a valid entry.
  uint64_t Misses = 0;        ///< get requests that found nothing.
  uint64_t Puts = 0;          ///< put requests that stored a new entry.
  uint64_t Touches = 0;       ///< touch requests served.
  uint64_t Evictions = 0;     ///< entries evicted to honor the budget.
  uint64_t CorruptDropped = 0; ///< entries failing verification: rejected
                               ///< puts + stored entries evicted on get.
  uint64_t Entries = 0;       ///< live entries (objects + actions).
  uint64_t BytesStored = 0;   ///< live payload bytes.
  uint64_t MaxBytes = 0;      ///< configured budget (0 = unlimited).
};

/// One CacheStats member, named once: its key in a `stats` response and
/// its name in the daemon's metrics registry.
struct CacheStatField {
  const char *Key;    ///< Wire key: "corruptDropped".
  const char *Metric; ///< Registry name: "cache.corrupt_dropped".
  bool Counter;       ///< A lifetime total (counter), else a level (gauge).
  uint64_t CacheStats::*Member;
};

/// Every CacheStats member, in wire order.
inline constexpr CacheStatField CacheStatFields[] = {
    {"gets", "cache.gets", true, &CacheStats::Gets},
    {"hits", "cache.hits", true, &CacheStats::Hits},
    {"misses", "cache.misses", true, &CacheStats::Misses},
    {"puts", "cache.puts", true, &CacheStats::Puts},
    {"touches", "cache.touches", true, &CacheStats::Touches},
    {"evictions", "cache.evictions", true, &CacheStats::Evictions},
    {"corruptDropped", "cache.corrupt_dropped", true,
     &CacheStats::CorruptDropped},
    {"entries", "cache.entries", false, &CacheStats::Entries},
    {"bytesStored", "cache.bytes_stored", false, &CacheStats::BytesStored},
    {"maxBytes", "cache.max_bytes", false, &CacheStats::MaxBytes},
};

/// One client request (the JSON header frame).
struct CacheRequest {
  /// `Metrics` answers with the daemon's metrics registry rendered
  /// both ways inline: Prometheus text exposition (for scrapers and
  /// `scbuild daemon-top`) and the registry JSON object (the same
  /// `"metrics"` shape `scbuild --report-json` carries, so live and
  /// offline views agree field-for-field).
  enum class Op { Get, Put, Touch, Stats, Metrics, Shutdown };
  Op Operation = Op::Stats;
  std::string Kind;   ///< "entry" or "obj"; empty for stats/shutdown.
  std::string Key;    ///< hex16 entry key (get/touch: one or more).
  std::string Digest; ///< put/touch entry: hex16 object digest(s).
  uint64_t Size = 0;  ///< put: byte count of the following binary frame.
};

/// One daemon response (the JSON header frame).
struct CacheResponse {
  bool Ok = false;      ///< Request was well-formed and processed.
  bool Found = false;   ///< get/touch: every key was found.
  std::string Mask;     ///< get/touch: '1' or '0' per requested key.
  bool Stored = false;  ///< put: entry admitted (false = rejected corrupt).
  std::string Digest;   ///< get entry: the found objects' digests.
  uint64_t Size = 0;    ///< Not set: each frame carries its own length.
  std::string Error;    ///< Ok == false: human-readable reason.
  bool HasStats = false;
  CacheStats Stats;

  // -- metrics responses --
  /// Prometheus text exposition of the daemon's registry.
  std::string MetricsText;
  /// The registry as one JSON object {"counters":{},"gauges":{}} —
  /// byte-identical in shape to the `"metrics"` key of scbuild-report.
  std::string MetricsJson;
};

std::string encodeCacheRequest(const CacheRequest &R);
bool decodeCacheRequest(const std::string &Json, CacheRequest &R);

std::string encodeCacheResponse(const CacheResponse &R);
bool decodeCacheResponse(const std::string &Json, CacheResponse &R);

} // namespace sc

#endif // SC_CACHE_SYS_CACHEPROTOCOL_H
