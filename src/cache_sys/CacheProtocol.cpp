//===- cache_sys/CacheProtocol.cpp - sccached wire protocol --------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cache_sys/CacheProtocol.h"

#include "support/FlatJson.h"

using namespace sc;

std::string sc::hex16(uint64_t V) {
  static const char Digits[] = "0123456789abcdef";
  std::string Out(16, '0');
  for (int I = 15; I >= 0; --I) {
    Out[static_cast<size_t>(I)] = Digits[V & 0xf];
    V >>= 4;
  }
  return Out;
}

bool sc::parseHex16(const std::string &S, uint64_t &V) {
  if (S.size() != 16)
    return false;
  uint64_t Out = 0;
  for (char C : S) {
    Out <<= 4;
    if (C >= '0' && C <= '9')
      Out |= static_cast<uint64_t>(C - '0');
    else if (C >= 'a' && C <= 'f')
      Out |= static_cast<uint64_t>(C - 'a' + 10);
    else if (C >= 'A' && C <= 'F')
      Out |= static_cast<uint64_t>(C - 'A' + 10);
    else
      return false;
  }
  V = Out;
  return true;
}

namespace {

const char *opName(CacheRequest::Op Op) {
  switch (Op) {
  case CacheRequest::Op::Get:      return "get";
  case CacheRequest::Op::Put:      return "put";
  case CacheRequest::Op::Touch:    return "touch";
  case CacheRequest::Op::Stats:    return "stats";
  case CacheRequest::Op::Metrics:  return "metrics";
  case CacheRequest::Op::Shutdown: return "shutdown";
  }
  return "stats";
}

bool opFromName(const std::string &Name, CacheRequest::Op &Op) {
  if (Name == "get")
    Op = CacheRequest::Op::Get;
  else if (Name == "put")
    Op = CacheRequest::Op::Put;
  else if (Name == "touch")
    Op = CacheRequest::Op::Touch;
  else if (Name == "stats")
    Op = CacheRequest::Op::Stats;
  else if (Name == "metrics")
    Op = CacheRequest::Op::Metrics;
  else if (Name == "shutdown")
    Op = CacheRequest::Op::Shutdown;
  else
    return false;
  return true;
}

void appendU64Field(std::string &Out, const char *Key, uint64_t V) {
  Out += ",\"";
  Out += Key;
  Out += "\":";
  Out += std::to_string(V);
}

/// Calls Do(WireKey, Member) once per CacheStats counter: the one list
/// the stats response is encoded and decoded by.
template <class S, class Fn> void forEachCacheStat(S &St, Fn Do) {
  Do("gets", St.Gets);
  Do("hits", St.Hits);
  Do("misses", St.Misses);
  Do("puts", St.Puts);
  Do("touches", St.Touches);
  Do("evictions", St.Evictions);
  Do("corruptDropped", St.CorruptDropped);
  Do("entries", St.Entries);
  Do("bytesStored", St.BytesStored);
  Do("maxBytes", St.MaxBytes);
}

} // namespace

std::string sc::encodeCacheRequest(const CacheRequest &R) {
  std::string Out = "{\"op\":";
  appendJsonString(Out, opName(R.Operation));
  if (!R.Kind.empty()) {
    Out += ",\"kind\":";
    appendJsonString(Out, R.Kind);
  }
  if (!R.Key.empty()) {
    Out += ",\"key\":";
    appendJsonString(Out, R.Key);
  }
  if (!R.Digest.empty()) {
    Out += ",\"digest\":";
    appendJsonString(Out, R.Digest);
  }
  if (R.Size)
    appendU64Field(Out, "size", R.Size);
  Out += '}';
  return Out;
}

bool sc::decodeCacheRequest(const std::string &Json, CacheRequest &R) {
  R = CacheRequest();
  bool SawOp = false, BadOp = false;
  bool Parsed = parseFlatObject(Json, [&](JsonCursor &C, const std::string &K) {
    if (K == "op") {
      SawOp = true;
      if (!opFromName(C.parseString(), R.Operation))
        BadOp = true;
    } else if (K == "kind") {
      R.Kind = C.parseString();
    } else if (K == "key") {
      R.Key = C.parseString();
    } else if (K == "digest") {
      R.Digest = C.parseString();
    } else if (K == "size") {
      R.Size = C.parseU64();
    } else {
      C.skipValue();
    }
  });
  return Parsed && SawOp && !BadOp;
}

std::string sc::encodeCacheResponse(const CacheResponse &R) {
  std::string Out = "{\"ok\":";
  Out += R.Ok ? "true" : "false";
  Out += ",\"found\":";
  Out += R.Found ? "true" : "false";
  Out += ",\"stored\":";
  Out += R.Stored ? "true" : "false";
  if (!R.Digest.empty()) {
    Out += ",\"digest\":";
    appendJsonString(Out, R.Digest);
  }
  if (R.Size)
    appendU64Field(Out, "size", R.Size);
  if (!R.Error.empty()) {
    Out += ",\"error\":";
    appendJsonString(Out, R.Error);
  }
  if (R.HasStats) {
    Out += ",\"hasStats\":true";
    forEachCacheStat(R.Stats, [&](const char *Key, uint64_t V) {
      appendU64Field(Out, Key, V);
    });
  }
  if (!R.MetricsText.empty()) {
    Out += ",\"metricsText\":";
    appendJsonString(Out, R.MetricsText);
  }
  if (!R.MetricsJson.empty()) {
    Out += ",\"metricsJson\":";
    appendJsonString(Out, R.MetricsJson);
  }
  Out += '}';
  return Out;
}

bool sc::decodeCacheResponse(const std::string &Json, CacheResponse &R) {
  R = CacheResponse();
  bool SawOk = false;
  bool Parsed = parseFlatObject(Json, [&](JsonCursor &C, const std::string &K) {
    if (K == "ok") {
      SawOk = true;
      R.Ok = C.parseBool();
    } else if (K == "found") {
      R.Found = C.parseBool();
    } else if (K == "stored") {
      R.Stored = C.parseBool();
    } else if (K == "digest") {
      R.Digest = C.parseString();
    } else if (K == "size") {
      R.Size = C.parseU64();
    } else if (K == "error") {
      R.Error = C.parseString();
    } else if (K == "hasStats") {
      R.HasStats = C.parseBool();
    } else if (K == "metricsText") {
      R.MetricsText = C.parseString();
    } else if (K == "metricsJson") {
      R.MetricsJson = C.parseString();
    } else {
      bool Stat = false;
      forEachCacheStat(R.Stats, [&](const char *Name, uint64_t &V) {
        if (!Stat && K == Name) {
          V = C.parseU64();
          Stat = true;
        }
      });
      if (!Stat)
        C.skipValue();
    }
  });
  return Parsed && SawOk;
}
