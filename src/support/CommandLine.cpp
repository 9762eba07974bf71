//===- support/CommandLine.cpp - Table-driven flag parsing ----------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

using namespace sc;

std::string_view CommandLineFlag::name() const {
  return K == Switch ? Spelling : Spelling.substr(0, Spelling.find_first_of(" ="));
}

CommandLine::CommandLine(std::string Tool, std::string Usage,
                         std::vector<CommandLineFlag> Flags)
    : Tool(std::move(Tool)), Usage(std::move(Usage)), Flags(std::move(Flags)) {}

int CommandLine::error(const char *Fmt, ...) const {
  std::fprintf(stderr, "%s: error: ", Tool.c_str());
  va_list Args;
  va_start(Args, Fmt);
  std::vfprintf(stderr, Fmt, Args);
  va_end(Args);
  std::fputc('\n', stderr);
  return 1;
}

int CommandLine::parse(int Argc, const char *const *Argv,
                       std::vector<std::string> *Positionals) const {
  using Flag = CommandLineFlag;
  for (int I = 1; I < Argc; ++I) {
    const std::string_view Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      std::fputs(help().c_str(), stderr);
      return 0;
    }
    const Flag *F = nullptr;
    std::optional<std::string_view> Value; // Set by the `--name=V` form.
    for (const Flag &Row : Flags) {
      const std::string_view Name = Row.name();
      if (Arg == Name) {
        F = &Row;
        break;
      }
      if (Row.K != Flag::Switch && Row.K != Flag::Rest &&
          startsWith(Arg, Name) && Arg.size() > Name.size() &&
          Arg[Name.size()] == '=') {
        F = &Row;
        Value = Arg.substr(Name.size() + 1);
        break;
      }
    }
    if (!F) {
      if (!Positionals || startsWith(Arg, "-"))
        return error("unknown option '%s'", Argv[I]);
      Positionals->emplace_back(Arg);
      continue;
    }
    const std::string Name(F->name());
    const char *N = Name.c_str();
    if (F->K == Flag::Switch) {
      if (bool *const *B = std::get_if<bool *>(&F->Into))
        **B = true;
      else
        std::get<std::function<void()>>(F->Into)();
      continue;
    }
    if (F->K == Flag::Rest) {
      std::get<std::optional<std::vector<std::string>> *>(F->Into)->emplace(
          Argv + I + 1, Argv + Argc);
      return -1;
    }
    if (!Value) {
      if (I + 1 == Argc)
        return error("option '%s' requires a value", N);
      Value = Argv[++I];
    }
    if (F->K == Flag::Value) {
      if (std::string *const *S = std::get_if<std::string *>(&F->Into))
        **S = *Value;
      else
        std::get<std::vector<std::string> *>(F->Into)->emplace_back(*Value);
      continue;
    }
    unsigned *const *U = std::get_if<unsigned *>(&F->Into);
    if (U ? !parseDecimal(*Value, **U)
          : !parseDecimal(*Value, *std::get<uint64_t *>(F->Into)))
      return error("option '%s' requires a %s integer (got '%.*s')", N,
                   F->K == Flag::Jobs ? "positive" : "non-negative",
                   static_cast<int>(Value->size()), Value->data());
    // 0 threads would mean no build at all; the nearest meaningful
    // request is a serial one.
    if (F->K == Flag::Jobs)
      **U = std::max(1u, **U);
  }
  return -1;
}

std::string CommandLine::help() const {
  std::vector<std::pair<std::string, std::string_view>> Lines;
  for (const CommandLineFlag &F : Flags) {
    if (F.Help.empty())
      continue;
    if (!Lines.empty() && Lines.back().second == F.Help)
      Lines.back().first.append("|").append(F.Spelling);
    else
      Lines.emplace_back(F.Spelling, F.Help);
  }
  size_t Width = 0;
  for (const auto &L : Lines)
    Width = std::max(Width, L.first.size());
  std::string Out = "usage: " + Usage + "\noptions:\n";
  for (const auto &[Spelling, Help] : Lines)
    Out += "  " + Spelling + std::string(Width + 2 - Spelling.size(), ' ') +
           std::string(Help) + "\n";
  return Out;
}

std::optional<std::string> sc::readHostFile(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return std::nullopt;
  std::string Out;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  std::fclose(F);
  return Out;
}

bool sc::writeHostFile(const std::string &Path, std::string_view Text,
                       const char *Tool, const char *What) {
  if (std::FILE *F = std::fopen(Path.c_str(), "wb")) {
    const bool Written = std::fwrite(Text.data(), 1, Text.size(), F) ==
                         Text.size();
    if (std::fclose(F) == 0 && Written)
      return true;
  }
  std::fprintf(stderr, "%s: warning: could not write %s '%s'\n", Tool, What,
               Path.c_str());
  return false;
}
