//===- cache_sys/CacheProtocol.cpp - sccached wire protocol --------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cache_sys/CacheProtocol.h"

#include "support/FlatJson.h"

#include <algorithm>
#include <iterator>
#include <type_traits>

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

bool sc::parseHex16List(const std::string &S, std::vector<uint64_t> &Out) {
  Out.clear();
  if (S.empty() || S.size() % 16)
    return false;
  for (size_t I = 0; I != S.size(); I += 16)
    if (!parseHex16(S.substr(I, 16), Out.emplace_back()))
      return false;
  return true;
}

namespace {

/// Wire names of CacheRequest::Op, in enumerator order.
constexpr const char *OpNames[] = {"get",   "put",     "touch",
                                   "stats", "metrics", "shutdown"};

/// Calls Do(WireKey, Member) once per CacheStats counter.
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

// The fields of each message besides its "op" or "ok" head: the one
// list it is encoded and decoded by.
template <class R, class Fn> void forEachField(R &X, Fn Do) {
  if constexpr (std::is_same_v<std::remove_const_t<R>, CacheRequest>) {
    Do("kind", X.Kind);
    Do("key", X.Key);
    Do("digest", X.Digest);
    Do("size", X.Size);
  } else {
    Do("found", X.Found);
    Do("mask", X.Mask);
    Do("stored", X.Stored);
    Do("digest", X.Digest);
    Do("size", X.Size);
    Do("error", X.Error);
    Do("hasStats", X.HasStats);
    forEachCacheStat(X.Stats, Do);
    Do("metricsText", X.MetricsText);
    Do("metricsJson", X.MetricsJson);
  }
}

/// Appends every field that is not empty, zero or false; a decoder
/// reads an absent field as exactly that.
template <class R> std::string encodeFields(std::string Out, const R &X) {
  forEachField(X, [&](const char *Key, const auto &V) {
    using T = std::decay_t<decltype(V)>;
    if (V == T())
      return;
    Out.append(",\"").append(Key).append("\":");
    if constexpr (std::is_same_v<T, std::string>)
      appendJsonString(Out, V);
    else if constexpr (std::is_same_v<T, bool>)
      Out += "true";
    else
      Out += std::to_string(V);
  });
  return Out + '}';
}

/// Reads key \p K into its field of \p X; false for an unknown key.
template <class R> bool decodeField(JsonCursor &C, const std::string &K, R &X) {
  bool Known = false;
  forEachField(X, [&](const char *Key, auto &V) {
    using T = std::decay_t<decltype(V)>;
    if (Known || K != Key)
      return;
    Known = true;
    if constexpr (std::is_same_v<T, std::string>)
      V = C.parseString();
    else if constexpr (std::is_same_v<T, bool>)
      V = C.parseBool();
    else
      V = C.parseU64();
  });
  return Known;
}

} // namespace

std::string sc::encodeCacheRequest(const CacheRequest &R) {
  std::string Out = "{\"op\":";
  appendJsonString(Out, OpNames[static_cast<size_t>(R.Operation)]);
  return encodeFields(std::move(Out), R);
}

bool sc::decodeCacheRequest(const std::string &Json, CacheRequest &R) {
  R = CacheRequest();
  bool GoodOp = false;
  bool Parsed = parseFlatObject(Json, [&](JsonCursor &C, const std::string &K) {
    if (K == "op") {
      const std::string Name = C.parseString();
      const auto *It = std::find(std::begin(OpNames), std::end(OpNames), Name);
      GoodOp = It != std::end(OpNames);
      if (GoodOp)
        R.Operation = static_cast<CacheRequest::Op>(It - std::begin(OpNames));
    } else if (!decodeField(C, K, R)) {
      C.skipValue();
    }
  });
  return Parsed && GoodOp;
}

std::string sc::encodeCacheResponse(const CacheResponse &R) {
  return encodeFields(std::string("{\"ok\":") + (R.Ok ? "true" : "false"), R);
}

bool sc::decodeCacheResponse(const std::string &Json, CacheResponse &R) {
  R = CacheResponse();
  bool SawOk = false;
  bool Parsed = parseFlatObject(Json, [&](JsonCursor &C, const std::string &K) {
    if (K == "ok") {
      SawOk = true;
      R.Ok = C.parseBool();
    } else if (!decodeField(C, K, R)) {
      C.skipValue();
    }
  });
  return Parsed && SawOk;
}
