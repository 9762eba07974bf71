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
  // in the delta since the last publication. Every counter exists from
  // the first publication on, so a zero reads as 0, not as absent.
  for (const CacheStatField &F : CacheStatFields) {
    const uint64_t Now = S.*F.Member, Last = LastPublished.*F.Member;
    if (!F.Counter)
      Metrics.gauge(F.Metric).set(static_cast<double>(Now));
    else
      Metrics.counter(F.Metric).add(Now > Last ? Now - Last : 0);
  }
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

  // A put header is always followed by one binary frame; consume it
  // before validating anything else or the stream desyncs.
  std::string PutBytes;
  if (Req.Operation == CacheRequest::Op::Put) {
    if (!Conn.recvFrame(PutBytes, IoTimeoutMs))
      return false;
    if (PutBytes.size() != Req.Size) {
      Resp.Error = "payload size does not match header";
      send(Conn, encodeCacheResponse(Resp));
      return false;
    }
  }

  uint64_t Key = 0, Digest = 0;
  switch (Req.Operation) {
  case CacheRequest::Op::Get:
  case CacheRequest::Op::Touch:
    return serveLookup(Conn, Req);
  case CacheRequest::Op::Put:
    // The action is stored only once its object verified.
    Resp.Ok = Req.Kind == "entry" && parseHex16(Req.Key, Key) &&
              parseHex16(Req.Digest, Digest);
    if (!Resp.Ok)
      Resp.Error = "bad key, kind or digest"; // Still in sync.
    else
      Resp.Stored = Store->putObject(Digest, PutBytes) &&
                    Store->putAction(Key, Digest);
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
  return send(Conn, encodeCacheResponse(Resp));
}

bool CacheDaemon::serveLookup(UnixSocket &Conn, const CacheRequest &Req) {
  const bool Get = Req.Operation == CacheRequest::Op::Get;
  std::vector<uint64_t> Keys, Digests;
  CacheResponse Resp;
  if (!parseHex16List(Req.Key, Keys) || Keys.size() > CacheMaxBatch ||
      Req.Kind != "entry" ||
      (!Get && (!parseHex16List(Req.Digest, Digests) ||
                Digests.size() != Keys.size()))) {
    Resp.Error = "bad key or kind";
    return send(Conn, encodeCacheResponse(Resp)); // Still in sync.
  }
  std::vector<std::string> Objects;
  for (size_t I = 0; I != Keys.size(); ++I) {
    uint64_t Digest = Get ? 0 : Digests[I];
    std::string Bytes;
    bool Found;
    if (Get) {
      Found = Store->getAction(Keys[I], Digest) &&
              Store->getObject(Digest, Bytes);
    } else {
      Found = Store->touch(CacheStore::Kind::Action, Keys[I]);
      Found = Store->touch(CacheStore::Kind::Object, Digest) && Found;
    }
    Resp.Mask += Found ? '1' : '0';
    if (Found && Get) {
      Objects.push_back(std::move(Bytes));
      Resp.Digest += hex16(Digest);
    }
  }
  Resp.Ok = true;
  Resp.Found = Resp.Mask.find('0') == std::string::npos;
  if (!send(Conn, encodeCacheResponse(Resp)))
    return false;
  // Each found object's bytes follow the header, one frame each.
  for (const std::string &Bytes : Objects)
    if (!send(Conn, Bytes))
      return false;
  return true;
}

int CacheDaemon::serve() {
  const int Code = run();
  if (Store)
    chat("sccached: exiting — %s\n",
         describeCacheStats(Store->stats()).c_str());
  return Code;
}
