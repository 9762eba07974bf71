//===- support/StringUtils.h - Small string helpers -------------*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String helpers shared across the frontend, printers, the build
/// system's dependency scanner and the tools' option parsing.
///
//===----------------------------------------------------------------------===//

#ifndef SC_SUPPORT_STRINGUTILS_H
#define SC_SUPPORT_STRINGUTILS_H

#include <charconv>
#include <string>
#include <string_view>
#include <vector>

namespace sc {

/// Splits \p S on \p Sep; empty pieces are kept.
inline std::vector<std::string> splitString(std::string_view S, char Sep) {
  std::vector<std::string> Parts;
  size_t Start = 0;
  for (size_t I = 0; I <= S.size(); ++I) {
    if (I == S.size() || S[I] == Sep) {
      Parts.emplace_back(S.substr(Start, I - Start));
      Start = I + 1;
    }
  }
  return Parts;
}

inline bool startsWith(std::string_view S, std::string_view Prefix) {
  return S.size() >= Prefix.size() && S.substr(0, Prefix.size()) == Prefix;
}

inline bool endsWith(std::string_view S, std::string_view Suffix) {
  return S.size() >= Suffix.size() &&
         S.substr(S.size() - Suffix.size()) == Suffix;
}

/// Strips leading and trailing spaces, tabs, and newlines.
inline std::string_view trim(std::string_view S) {
  const char *WS = " \t\r\n";
  size_t B = S.find_first_not_of(WS);
  if (B == std::string_view::npos)
    return std::string_view();
  size_t E = S.find_last_not_of(WS);
  return S.substr(B, E - B + 1);
}

/// Strict decimal parse for numeric options: digits only, with a
/// leading '-' when \p T is signed, so an empty string, a '+', a sign
/// on an unsigned \p T ("-1"), trailing junk ("4x") or a value \p T
/// cannot hold is false, and \p Out keeps its value.
template <class T> bool parseDecimal(std::string_view Text, T &Out) {
  const char *End = Text.data() + Text.size();
  T V = 0;
  const auto [Stop, Err] = std::from_chars(Text.data(), End, V);
  if (Err != std::errc() || Stop != End)
    return false;
  Out = V;
  return true;
}

} // namespace sc

#endif // SC_SUPPORT_STRINGUTILS_H
