//===- support/FlatJson.h - The project's one JSON codec -------*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON codec of the project. The history ledger line, the
/// `sccached` wire and the `scbuildd` wire are each a struct with a
/// field list, and the templates below write and read all of them.
///
/// A field list is a JsonFields<T> specialization whose
/// `walk(X, Do)` calls `Do(Key, Member)` once per field, in wire order.
/// X is const to encode and mutable to decode, so one list serves both
/// directions. A value is a string, bool, integer, double, vector,
/// string-keyed map, or a struct with a field list of its own, written
/// as a nested object. A list also says how each field is written:
///
///  * `Do(Key, M)` always writes it;
///  * `Do(Key, M, JsonField::Sparse)` omits it when it equals `T{}`
///    (a struct: when it writes no member), so M must default to `T{}`;
///  * `Do(Key, M, Flag)` writes it when the bool `Flag` is set, and
///    reading it sets `Flag`.
///
/// The compatibility rule every form shares: an absent key reads as
/// the default (a decoder starts from a default-constructed struct),
/// and a key the list does not name is skipped, whatever its value
/// holds, nested objects and arrays included. So a message can gain
/// fields without breaking older peers.
///
//===----------------------------------------------------------------------===//

#ifndef SC_SUPPORT_FLATJSON_H
#define SC_SUPPORT_FLATJSON_H

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace sc {

/// Appends \p S to \p Out as a quoted, escaped JSON string literal.
inline void appendJsonString(std::string &Out, std::string_view S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

/// Cursor over a JSON text. Parse failures set Bad; every accessor is a
/// no-op once Bad, so callers check once at the end.
struct JsonCursor {
  const std::string &S;
  size_t I = 0;
  bool Bad = false;

  explicit JsonCursor(const std::string &S) : S(S) {}

  void ws() {
    while (I < S.size() && (S[I] == ' ' || S[I] == '\t' || S[I] == '\n' ||
                            S[I] == '\r'))
      ++I;
  }
  bool eat(char C) {
    ws();
    if (I < S.size() && S[I] == C) {
      ++I;
      return true;
    }
    return false;
  }
  void expect(char C) {
    if (!eat(C))
      Bad = true;
  }
  char peek() {
    ws();
    return I < S.size() ? S[I] : '\0';
  }

  std::string parseString() {
    std::string Out;
    expect('"');
    while (!Bad && I < S.size() && S[I] != '"') {
      char C = S[I++];
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (I >= S.size()) {
        Bad = true;
        break;
      }
      char E = S[I++];
      switch (E) {
      case '"':  Out += '"';  break;
      case '\\': Out += '\\'; break;
      case '/':  Out += '/';  break;
      case 'n':  Out += '\n'; break;
      case 'r':  Out += '\r'; break;
      case 't':  Out += '\t'; break;
      case 'b':  Out += '\b'; break;
      case 'f':  Out += '\f'; break;
      case 'u': {
        if (I + 4 > S.size()) {
          Bad = true;
          break;
        }
        unsigned V = 0;
        for (int K = 0; K != 4; ++K) {
          char H = S[I++];
          V <<= 4;
          if (H >= '0' && H <= '9')
            V |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            V |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            V |= static_cast<unsigned>(H - 'A' + 10);
          else
            Bad = true;
        }
        // The encoder only emits \u00XX control escapes; anything else
        // is clamped into one byte, which is fine for these protocols.
        Out += static_cast<char>(V & 0xff);
        break;
      }
      default:
        Bad = true;
      }
    }
    expect('"');
    return Out;
  }

  int64_t parseInt() {
    ws();
    bool Neg = eat('-');
    ws();
    if (I >= S.size() || S[I] < '0' || S[I] > '9') {
      Bad = true;
      return 0;
    }
    uint64_t V = 0;
    while (I < S.size() && S[I] >= '0' && S[I] <= '9')
      V = V * 10 + static_cast<uint64_t>(S[I++] - '0');
    // Negated as unsigned: no overflow, even for INT64_MIN.
    return static_cast<int64_t>(Neg ? 0 - V : V);
  }

  /// Unsigned 64-bit variant (counters, byte sizes); a leading '-'
  /// marks the document malformed.
  uint64_t parseU64() {
    ws();
    if (I < S.size() && S[I] == '-') {
      Bad = true;
      return 0;
    }
    return static_cast<uint64_t>(parseInt());
  }

  bool parseBool() {
    ws();
    if (S.compare(I, 4, "true") == 0) {
      I += 4;
      return true;
    }
    if (S.compare(I, 5, "false") == 0) {
      I += 5;
      return false;
    }
    Bad = true;
    return false;
  }

  double parseDouble() {
    ws();
    const char *Start = S.c_str() + I;
    char *End = nullptr;
    const double V = std::strtod(Start, &End);
    if (End == Start) {
      Bad = true;
      return 0;
    }
    I += static_cast<size_t>(End - Start);
    return V;
  }

  /// Walks an object, calling \p OnKey(Key) once per member to consume
  /// its value.
  template <typename Fn> void parseObject(Fn OnKey) {
    if (!enter('{'))
      return;
    if (!eat('}')) {
      do {
        std::string Key = parseString();
        expect(':');
        if (Bad)
          break;
        OnKey(Key);
      } while (!Bad && eat(','));
      expect('}');
    }
    --Depth;
  }

  /// Walks an array, calling \p OnElem() once per element to consume it.
  template <typename Fn> void parseArray(Fn OnElem) {
    if (!enter('['))
      return;
    if (!eat(']')) {
      do
        OnElem();
      while (!Bad && eat(','));
      expect(']');
    }
    --Depth;
  }

  /// Skips one value of any shape, nested ones included.
  void skipValue() {
    switch (peek()) {
    case '"':
      parseString();
      break;
    case '{':
      parseObject([&](const std::string &) { skipValue(); });
      break;
    case '[':
      parseArray([&] { skipValue(); });
      break;
    case 't':
    case 'f':
      parseBool();
      break;
    default:
      parseDouble();
    }
  }

private:
  /// Nesting cap: a peer cannot make a reader recurse without bound.
  static constexpr unsigned MaxDepth = 64;
  unsigned Depth = 0;

  /// Opens a nested value with \p Open; false (and Bad) if absent or
  /// too deep.
  bool enter(char Open) {
    if (Bad || Depth == MaxDepth || !eat(Open)) {
      Bad = true;
      return false;
    }
    ++Depth;
    return true;
  }
};

//===----------------------------------------------------------------------===//
// Field-list codec
//===----------------------------------------------------------------------===//

/// How a field list writes one field (see the file comment).
enum class JsonField { Always, Sparse };

/// The field list of T: a specialization provides
/// `template <class R, class Fn> static void walk(R &X, Fn Do)`.
template <class T> struct JsonFields;

/// A double written as its whole part, for values whose fraction is
/// noise (the ledger's microsecond times); read back as a double. It
/// compares as the double, so a Sparse 0.4 is written, as 0.
struct JsonWhole {
  double V = 0;
  bool operator==(const JsonWhole &) const = default;
};

template <class T> void writeJson(std::string &O, const T &V);
template <class T> void readJson(JsonCursor &C, T &V);

namespace json_detail {

template <class T> constexpr bool IsVector = false;
template <class T> constexpr bool IsVector<std::vector<T>> = true;
template <class T> constexpr bool IsMap = false;
template <class T> constexpr bool IsMap<std::map<std::string, T>> = true;
/// Written as a nested object by its field list.
template <class T>
constexpr bool IsStruct =
    !std::is_arithmetic_v<T> && !std::is_same_v<T, std::string> &&
    !std::is_same_v<T, JsonWhole> && !IsVector<T> && !IsMap<T>;

/// The Do of a field list that writes each field as `,"key":value`.
struct FieldWriter {
  std::string &O;

  template <class M>
  void operator()(std::string_view Key, const M &V,
                  JsonField F = JsonField::Always) const {
    if constexpr (IsVector<M> || IsMap<M>) {
      if (F == JsonField::Sparse && V.empty())
        return;
    } else if constexpr (!IsStruct<M>) {
      if (F == JsonField::Sparse && V == M{})
        return;
    }
    const size_t At = O.size();
    O += ',';
    appendJsonString(O, Key);
    O += ':';
    writeJson(O, V);
    if constexpr (IsStruct<M>) {
      if (F == JsonField::Sparse && O.ends_with("{}"))
        O.resize(At);
    }
  }
  template <class M>
  void operator()(std::string_view Key, const M &V,
                  const bool &Present) const {
    if (Present)
      (*this)(Key, V);
  }
};

/// The Do of a field list that reads the value of field \p Key.
struct FieldReader {
  JsonCursor &C;
  std::string_view Key;
  bool &Found;

  template <class M>
  void operator()(std::string_view K, M &&V,
                  JsonField = JsonField::Always) const {
    if (!Found && K == Key) {
      readJson(C, V);
      Found = true;
    }
  }
  template <class M>
  void operator()(std::string_view K, M &&V, bool &Present) const {
    if (!Found && K == Key) {
      readJson(C, V);
      Found = Present = true;
    }
  }
};

} // namespace json_detail

/// Appends each field of \p X that its list writes, as `,"key":value`:
/// the members of an object whose opening the caller wrote.
template <class T> void writeJsonFields(std::string &O, const T &X) {
  JsonFields<T>::walk(X, json_detail::FieldWriter{O});
}

template <class T> void writeJson(std::string &O, const T &V) {
  if constexpr (std::is_same_v<T, std::string>) {
    appendJsonString(O, V);
  } else if constexpr (std::is_same_v<T, bool>) {
    O += V ? "true" : "false";
  } else if constexpr (std::is_integral_v<T>) {
    O += std::to_string(V);
  } else if constexpr (std::is_floating_point_v<T>) {
    char Num[64];
    std::snprintf(Num, sizeof(Num), "%.10g", V);
    O += Num;
  } else if constexpr (std::is_same_v<T, JsonWhole>) {
    O += std::to_string(static_cast<uint64_t>(V.V));
  } else if constexpr (json_detail::IsVector<T>) {
    O += '[';
    for (size_t I = 0; I != V.size(); ++I) {
      if (I)
        O += ',';
      writeJson(O, V[I]);
    }
    O += ']';
  } else if constexpr (json_detail::IsMap<T>) {
    O += '{';
    for (const auto &[Key, Value] : V) {
      if (O.back() != '{')
        O += ',';
      appendJsonString(O, Key);
      O += ':';
      writeJson(O, Value);
    }
    O += '}';
  } else {
    const size_t At = O.size();
    writeJsonFields(O, V);
    if (O.size() == At) {
      O += "{}";
    } else {
      O[At] = '{';
      O += '}';
    }
  }
}

/// Reads the value of \p Key into the field of \p X that its list
/// names so; false (nothing consumed) when no field has that name.
template <class T>
bool readJsonField(JsonCursor &C, std::string_view Key, T &X) {
  bool Found = false;
  JsonFields<T>::walk(X, json_detail::FieldReader{C, Key, Found});
  return Found;
}

template <class T> void readJson(JsonCursor &C, T &V) {
  if constexpr (std::is_same_v<T, std::string>) {
    V = C.parseString();
  } else if constexpr (std::is_same_v<T, bool>) {
    V = C.parseBool();
  } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
    V = static_cast<T>(C.parseInt());
  } else if constexpr (std::is_integral_v<T>) {
    V = static_cast<T>(C.parseU64());
  } else if constexpr (std::is_floating_point_v<T>) {
    V = C.parseDouble();
  } else if constexpr (json_detail::IsVector<T>) {
    V.clear();
    C.parseArray([&] { readJson(C, V.emplace_back()); });
  } else if constexpr (json_detail::IsMap<T>) {
    V.clear();
    C.parseObject([&](const std::string &K) { readJson(C, V[K]); });
  } else {
    C.parseObject([&](const std::string &K) {
      if (!readJsonField(C, K, V))
        C.skipValue();
    });
  }
}

/// \p X as one JSON object.
template <class T> std::string encodeJson(const T &X) {
  std::string O;
  writeJson(O, X);
  return O;
}

/// Reads the JSON object \p Json into \p X, over X's current values.
/// A key X's list does not name goes to \p Other(Cursor, Key), which
/// consumes its value. False when \p Json is malformed.
template <class T, class Fn>
bool decodeJson(const std::string &Json, T &X, Fn Other) {
  JsonCursor C(Json);
  C.parseObject([&](const std::string &K) {
    if (!readJsonField(C, K, X))
      Other(C, K);
  });
  return !C.Bad;
}

/// decodeJson() that skips every key X's list does not name.
template <class T> bool decodeJson(const std::string &Json, T &X) {
  return decodeJson(Json, X,
                    [](JsonCursor &C, const std::string &) { C.skipValue(); });
}

} // namespace sc

#endif // SC_SUPPORT_FLATJSON_H
