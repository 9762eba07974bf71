//===- cache_sys/CacheDaemon.cpp - Shared object-cache daemon ------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cache_sys/CacheDaemon.h"

#include <cstdio>

#include <unistd.h>

using namespace sc;

CacheDaemon::CacheDaemon(VirtualFileSystem &FS, CacheDaemonConfig Config)
    : Service({"sccached", "cache", &Metrics, Config.IdleTimeoutMs,
               Config.MetricsOut, Config.Quiet}),
      FS(FS), Config(std::move(Config)) {}

CacheDaemon::~CacheDaemon() { shutdown(); }

bool CacheDaemon::start(std::string *Err) {
  if (!listen(Config.SocketPath, Err))
    return false;
  Store = std::make_unique<CacheStore>(FS, Config.CacheRoot, Config.MaxBytes);
  CacheStats S = Store->stats();
  chat("sccached: pid %ld serving '%s' (%llu entries, %llu bytes%s)\n",
       static_cast<long>(::getpid()), socketPath().c_str(),
       static_cast<unsigned long long>(S.Entries),
       static_cast<unsigned long long>(S.BytesStored),
       Config.MaxBytes ? (", budget " + std::to_string(Config.MaxBytes)).c_str()
                       : "");
  return true;
}

void CacheDaemon::publishMetrics() {
  if (!Store)
    return;
  const CacheStats S = Store->stats();
  std::lock_guard<std::mutex> L(MetricsMu);
  // The store reports lifetime totals; counters are monotonic, so fold
  // in the delta since the last publication.
  auto Fold = [&](const char *Name, uint64_t Now, uint64_t Last) {
    if (Now > Last)
      Metrics.counter(Name).add(Now - Last);
  };
  Fold("cache.gets", S.Gets, LastPublished.Gets);
  Fold("cache.hits", S.Hits, LastPublished.Hits);
  Fold("cache.misses", S.Misses, LastPublished.Misses);
  Fold("cache.puts", S.Puts, LastPublished.Puts);
  Fold("cache.touches", S.Touches, LastPublished.Touches);
  Fold("cache.evictions", S.Evictions, LastPublished.Evictions);
  Fold("cache.corrupt_dropped", S.CorruptDropped,
       LastPublished.CorruptDropped);
  Metrics.gauge("cache.entries").set(static_cast<double>(S.Entries));
  Metrics.gauge("cache.bytes_stored").set(static_cast<double>(S.BytesStored));
  Metrics.gauge("cache.max_bytes").set(static_cast<double>(S.MaxBytes));
  LastPublished = S;
}

std::string CacheDaemon::metricsText() {
  publishMetrics();
  return MetricsTextExporter::render(Metrics);
}

void CacheDaemon::serveConnection(UnixSocket &Conn) {
  // Persistent connection: it parks between requests, outside any
  // RequestScope, until the peer leaves or the daemon drains.
  std::string Header;
  while (nextFrame(Conn, Header, /*WaitMs=*/0)) {
    RequestScope InFlight(*this);
    if (!serveRequest(Conn, Header))
      return;
  }
}

bool CacheDaemon::serveRequest(UnixSocket &Conn, const std::string &Header) {
  CacheRequest Req;
  CacheResponse Resp;
  if (!decodeCacheRequest(Header, Req)) {
    Resp.Error = "malformed request";
    send(Conn, encodeCacheResponse(Resp));
    return false; // Out of protocol sync; nothing sane can follow.
  }

  // A put-obj header is always followed by one binary frame; consume
  // it before validating anything else or the stream desyncs.
  std::string PutBytes;
  if (Req.Operation == CacheRequest::Op::Put && Req.Kind == "obj") {
    if (!Conn.recvFrame(PutBytes, IoTimeoutMs))
      return false;
    if (PutBytes.size() != Req.Size) {
      Resp.Error = "payload size does not match header";
      send(Conn, encodeCacheResponse(Resp));
      return false;
    }
  }

  uint64_t Key = 0, Digest = 0;
  const bool NeedsKey = Req.Operation == CacheRequest::Op::Get ||
                        Req.Operation == CacheRequest::Op::Put ||
                        Req.Operation == CacheRequest::Op::Touch;
  if (NeedsKey &&
      (!parseHex16(Req.Key, Key) ||
       (Req.Kind != "obj" && Req.Kind != "act"))) {
    Resp.Error = "bad key or kind";
    return send(Conn, encodeCacheResponse(Resp)); // Still in sync.
  }
  const CacheStore::Kind Kind = Req.Kind == "obj"
                                    ? CacheStore::Kind::Object
                                    : CacheStore::Kind::Action;

  std::string ObjBytes;
  switch (Req.Operation) {
  case CacheRequest::Op::Get:
    Resp.Ok = true;
    if (Kind == CacheStore::Kind::Object) {
      Resp.Found = Store->getObject(Key, ObjBytes);
      Resp.Size = ObjBytes.size();
    } else {
      Resp.Found = Store->getAction(Key, Digest);
      if (Resp.Found)
        Resp.Digest = hex16(Digest);
    }
    break;
  case CacheRequest::Op::Put:
    Resp.Ok = true;
    if (Kind == CacheStore::Kind::Object) {
      Resp.Stored = Store->putObject(Key, PutBytes);
    } else {
      if (!parseHex16(Req.Digest, Digest)) {
        Resp.Ok = false;
        Resp.Error = "bad digest";
      } else {
        Resp.Stored = Store->putAction(Key, Digest);
      }
    }
    break;
  case CacheRequest::Op::Touch:
    Resp.Ok = true;
    Resp.Found = Store->touch(Kind, Key);
    break;
  case CacheRequest::Op::Stats:
    Resp.Ok = true;
    Resp.HasStats = true;
    Resp.Stats = Store->stats();
    break;
  case CacheRequest::Op::Metrics:
    // Both renderings of the same refreshed registry snapshot, so a
    // scraper's text view and a tool's JSON view cannot disagree.
    Resp.Ok = true;
    Resp.MetricsText = metricsText();
    Resp.MetricsJson = Metrics.toJson();
    break;
  case CacheRequest::Op::Shutdown:
    Resp.Ok = true;
    send(Conn, encodeCacheResponse(Resp));
    chat("sccached: shutdown requested by client\n");
    requestStop();
    return false;
  }

  if (!send(Conn, encodeCacheResponse(Resp)))
    return false;
  // A found object's bytes follow its header as one binary frame.
  if (Req.Operation == CacheRequest::Op::Get &&
      Kind == CacheStore::Kind::Object && Resp.Found)
    return send(Conn, ObjBytes);
  return true;
}

int CacheDaemon::serve() {
  const int Code = run();
  if (Store) {
    CacheStats S = Store->stats();
    chat("sccached: exiting — hits %llu, misses %llu, puts %llu, "
         "evictions %llu, corrupt dropped %llu\n",
         static_cast<unsigned long long>(S.Hits),
         static_cast<unsigned long long>(S.Misses),
         static_cast<unsigned long long>(S.Puts),
         static_cast<unsigned long long>(S.Evictions),
         static_cast<unsigned long long>(S.CorruptDropped));
  }
  return Code;
}
