//===- cache_sys/CacheProtocol.cpp - sccached wire protocol --------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cache_sys/CacheProtocol.h"

#include "support/FlatJson.h"

#include <algorithm>
#include <iterator>

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

} // namespace

// The fields of each message besides its "op" or "ok" head. Every one
// is sparse: a peer reads an absent field as empty, zero or false.
namespace sc {

template <> struct JsonFields<CacheRequest> {
  template <class R, class Fn> static void walk(R &X, Fn Do) {
    constexpr JsonField S = JsonField::Sparse;
    Do("kind", X.Kind, S);
    Do("key", X.Key, S);
    Do("digest", X.Digest, S);
    Do("size", X.Size, S);
  }
};

template <> struct JsonFields<CacheResponse> {
  template <class R, class Fn> static void walk(R &X, Fn Do) {
    constexpr JsonField S = JsonField::Sparse;
    Do("found", X.Found, S);
    Do("mask", X.Mask, S);
    Do("stored", X.Stored, S);
    Do("digest", X.Digest, S);
    Do("size", X.Size, S);
    Do("error", X.Error, S);
    Do("hasStats", X.HasStats, S);
    for (const CacheStatField &F : CacheStatFields)
      Do(F.Key, X.Stats.*F.Member, S);
    Do("metricsText", X.MetricsText, S);
    Do("metricsJson", X.MetricsJson, S);
  }
};

} // namespace sc

std::string sc::encodeCacheRequest(const CacheRequest &R) {
  std::string Out = "{\"op\":";
  appendJsonString(Out, OpNames[static_cast<size_t>(R.Operation)]);
  writeJsonFields(Out, R);
  return Out + '}';
}

bool sc::decodeCacheRequest(const std::string &Json, CacheRequest &R) {
  R = CacheRequest();
  bool GoodOp = false;
  auto Head = [&](JsonCursor &C, const std::string &K) {
    if (K != "op") {
      C.skipValue();
      return;
    }
    const std::string Name = C.parseString();
    const auto *It = std::find(std::begin(OpNames), std::end(OpNames), Name);
    GoodOp = It != std::end(OpNames);
    if (GoodOp)
      R.Operation = static_cast<CacheRequest::Op>(It - std::begin(OpNames));
  };
  return decodeJson(Json, R, Head) && GoodOp;
}

std::string sc::encodeCacheResponse(const CacheResponse &R) {
  std::string Out = std::string("{\"ok\":") + (R.Ok ? "true" : "false");
  writeJsonFields(Out, R);
  return Out + '}';
}

bool sc::decodeCacheResponse(const std::string &Json, CacheResponse &R) {
  R = CacheResponse();
  bool SawOk = false;
  auto Head = [&](JsonCursor &C, const std::string &K) {
    if (K != "ok") {
      C.skipValue();
      return;
    }
    SawOk = true;
    R.Ok = C.parseBool();
  };
  return decodeJson(Json, R, Head) && SawOk;
}
