//===- cache_sys/RemoteCacheClient.cpp - sccached client -----------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cache_sys/RemoteCacheClient.h"

#include "support/Hashing.h"

#include <algorithm>

using namespace sc;

namespace {
/// Generous per-frame budget: a fetch of a many-MiB object over a
/// loaded local socket stays well inside it, while a dead daemon
/// (closed socket) fails immediately, not after the timeout.
constexpr unsigned FrameTimeoutMs = 30000;
} // namespace

std::unique_ptr<RemoteCacheClient>
RemoteCacheClient::connect(const std::string &SocketPath, std::string *Err) {
  UnixSocket Conn = UnixSocket::connectTo(SocketPath, Err);
  if (!Conn.valid())
    return nullptr;
  return std::unique_ptr<RemoteCacheClient>(
      new RemoteCacheClient(std::move(Conn)));
}

RemoteCacheClient::Result RemoteCacheClient::fail() {
  Failed = true;
  Conn.close();
  return Result::Error;
}

bool RemoteCacheClient::roundTrip(const CacheRequest &Req, CacheResponse &Resp,
                                  const std::string *ObjBytes) {
  if (Failed)
    return false;
  ++RoundTrips;
  std::string Header;
  if (!Conn.sendFrame(encodeCacheRequest(Req)) ||
      (ObjBytes && !Conn.sendFrame(*ObjBytes)) ||
      !Conn.recvFrame(Header, FrameTimeoutMs, nullptr) ||
      !decodeCacheResponse(Header, Resp) || !Resp.Ok) {
    fail();
    return false;
  }
  return true;
}

RemoteCacheClient::Result
RemoteCacheClient::lookup(CacheRequest::Op Op,
                          const std::vector<uint64_t> &Keys,
                          const std::vector<uint64_t> &Digests,
                          std::vector<Fetched> &Out) {
  const bool Get = Op == CacheRequest::Op::Get;
  Out.assign(Keys.size(), Fetched());
  for (size_t First = 0; First < Keys.size(); First += CacheMaxBatch) {
    const size_t N = std::min(CacheMaxBatch, Keys.size() - First);
    CacheRequest Req;
    Req.Operation = Op;
    Req.Kind = "entry";
    for (size_t I = First; I != First + N; ++I) {
      Req.Key += hex16(Keys[I]);
      if (!Get)
        Req.Digest += hex16(Digests[I]);
    }
    CacheResponse Resp;
    std::vector<uint64_t> Found;
    if (!roundTrip(Req, Resp, nullptr))
      return Result::Error;
    const size_t Hits = std::count(Resp.Mask.begin(), Resp.Mask.end(), '1');
    if (Resp.Mask.size() != N ||
        Resp.Mask.find_first_not_of("01") != std::string::npos ||
        (Get && Hits && !parseHex16List(Resp.Digest, Found)) ||
        Found.size() != (Get ? Hits : 0))
      return fail();
    for (size_t I = 0, F = 0; I != N; ++I) {
      Fetched &R = Out[First + I];
      R.Hit = Resp.Mask[I] == '1';
      if (!R.Hit || !Get)
        continue;
      if (!Conn.recvFrame(R.Bytes, FrameTimeoutMs, nullptr))
        return fail();
      // Never trust the wire: the daemon verified its copy, but these
      // bytes crossed a socket since. A bad one is a miss for its TU.
      R.Digest = Found[F++];
      R.Hit = hashString(R.Bytes) == R.Digest;
    }
  }
  return Result::Hit;
}

RemoteCacheClient::Result
RemoteCacheClient::fetch(uint64_t InputKey, uint64_t &Digest,
                         std::string &Bytes) {
  std::vector<Fetched> Out;
  const Result R = fetchBatch({InputKey}, Out);
  if (R == Result::Hit) {
    Digest = Out[0].Digest;
    Bytes = std::move(Out[0].Bytes);
  }
  return R == Result::Hit && !Out[0].Hit ? Result::Miss : R;
}

RemoteCacheClient::Result
RemoteCacheClient::touchEntry(uint64_t InputKey, uint64_t Digest) {
  std::vector<Fetched> Out;
  const Result R = touchBatch({InputKey}, {Digest}, Out);
  return R == Result::Hit && !Out[0].Hit ? Result::Miss : R;
}

RemoteCacheClient::Result
RemoteCacheClient::publish(uint64_t InputKey, uint64_t Digest,
                           const std::string &Bytes) {
  CacheRequest Req;
  Req.Operation = CacheRequest::Op::Put;
  Req.Kind = "entry";
  Req.Key = hex16(InputKey);
  Req.Digest = hex16(Digest);
  Req.Size = Bytes.size();
  CacheResponse Resp;
  if (!roundTrip(Req, Resp, &Bytes))
    return Result::Error;
  return Resp.Stored ? Result::Hit : Result::Miss;
}

RemoteCacheClient::Result RemoteCacheClient::stats(CacheStats &Out) {
  CacheRequest Req;
  Req.Operation = CacheRequest::Op::Stats;
  CacheResponse Resp;
  if (!roundTrip(Req, Resp, nullptr))
    return Result::Error;
  if (!Resp.HasStats)
    return Result::Miss;
  Out = Resp.Stats;
  return Result::Hit;
}

RemoteCacheClient::Result RemoteCacheClient::metrics(std::string &Text,
                                                     std::string &Json) {
  CacheRequest Req;
  Req.Operation = CacheRequest::Op::Metrics;
  CacheResponse Resp;
  if (!roundTrip(Req, Resp, nullptr))
    return Result::Error;
  if (Resp.MetricsText.empty() && Resp.MetricsJson.empty())
    return Result::Miss; // An older daemon that predates the verb.
  Text = Resp.MetricsText;
  Json = Resp.MetricsJson;
  return Result::Hit;
}

bool RemoteCacheClient::shutdownServer() {
  CacheRequest Req;
  Req.Operation = CacheRequest::Op::Shutdown;
  CacheResponse Resp;
  return roundTrip(Req, Resp, nullptr);
}
