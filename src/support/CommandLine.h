//===- support/CommandLine.h - Table-driven flag parsing --------*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command-line parser every tool shares. A tool declares its flags
/// once, as a table of CommandLineFlag rows; parsing, the error
/// messages and the `--help` text all come from that table:
///
///   <tool>: error: option 'X' requires a value
///   <tool>: error: option 'X' requires a non-negative integer (got 'V')
///   <tool>: error: option '-j' requires a positive integer (got 'V')
///   <tool>: error: unknown option 'X'
///
/// A valued flag is written `--name V` or `--name=V`, and takes the next
/// argument even when it starts with `-`. There are no abbreviations,
/// no environment fallbacks and no subcommands: a word that is no flag
/// is a positional, and the tool gives it meaning.
///
/// Also here: the tools' reads and writes of user-named host files
/// (specs, reports, traces), which bypass the project filesystem.
///
//===----------------------------------------------------------------------===//

#ifndef SC_SUPPORT_COMMANDLINE_H
#define SC_SUPPORT_COMMANDLINE_H

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace sc {

/// One row of a tool's flag table.
struct CommandLineFlag {
  enum Kind : uint8_t {
    Switch, ///< No value: sets its bool or runs its action.
    Value,  ///< A string: stored, or appended to a list (repeatable).
    Number, ///< A non-negative decimal that fits the target.
    Jobs,   ///< A Number read as a thread count: 0 is clamped to 1.
    Rest,   ///< Every argument after it, flags included.
  };
  using Target =
      std::variant<bool *, std::function<void()>, std::string *,
                   std::vector<std::string> *, unsigned *, uint64_t *,
                   std::optional<std::vector<std::string>> *>;

  /// The flag as `--help` shows it. A Value, Number or Jobs flag names
  /// its value after ' ' or '=' ("-j N", "--report-json=FILE"); a Rest
  /// flag its arguments after ' '. A Switch's spelling is its name,
  /// '=' included ("--daemon=auto-start").
  std::string_view Spelling;
  Kind K;
  /// One `--help` line; empty keeps the flag out of `--help`. Adjacent
  /// rows with the same text share a line ("-O0|-O1|-O2").
  std::string_view Help;
  Target Into;

  /// What the user types: the spelling up to its value placeholder.
  std::string_view name() const;
};

/// A tool's flag table and the one loop that reads argv against it.
class CommandLine {
public:
  /// \p Tool prefixes every message; \p Usage is the synopsis after
  /// "usage: ".
  CommandLine(std::string Tool, std::string Usage,
              std::vector<CommandLineFlag> Flags);

  /// Parses Argv[1, Argc). A word that is no flag is appended to
  /// \p Positionals, or is an unknown option when that is null. Returns
  /// -1 to go on, else the exit code: 0 after `--help`/`-h` (help
  /// printed to stderr), 1 after a usage error (already reported).
  int parse(int Argc, const char *const *Argv,
            std::vector<std::string> *Positionals = nullptr) const;

  /// The usage line, then one line per public flag.
  std::string help() const;

  /// Prints "<tool>: error: " and the printf-formatted message to
  /// stderr, and returns 1 (a usage error's exit code).
  [[gnu::format(printf, 2, 3)]] int error(const char *Fmt, ...) const;

private:
  std::string Tool, Usage;
  std::vector<CommandLineFlag> Flags;
};

/// Reads the host file \p Path whole; nullopt when it cannot be read.
std::optional<std::string> readHostFile(const std::string &Path);

/// Writes \p Text to the host file \p Path. On failure warns
/// "<Tool>: warning: could not write <What> '<Path>'" and returns false.
bool writeHostFile(const std::string &Path, std::string_view Text,
                   const char *Tool, const char *What);

} // namespace sc

#endif // SC_SUPPORT_COMMANDLINE_H
