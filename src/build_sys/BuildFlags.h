//===- build_sys/BuildFlags.h - Build-configuration flags -------*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command-line flags that pick a build configuration, defined once.
/// Saved compiler state is valid only under the configuration that
/// produced it (the manifest keys objects by configHash(), and a daemon
/// refuses a request for another configuration), so `scbuild`,
/// `scbuildd` and the arguments `scbuild --daemon=auto-start` passes
/// to the daemon it launches all go through these rows and their
/// inverse.
///
//===----------------------------------------------------------------------===//

#ifndef SC_BUILD_SYS_BUILDFLAGS_H
#define SC_BUILD_SYS_BUILDFLAGS_H

#include "build_sys/BuildSystem.h"
#include "support/CommandLine.h"

#include <string>
#include <vector>

namespace sc {

/// The rows `-O0|-O1|-O2`, which set \p Opt.
std::vector<CommandLineFlag> optLevelFlags(OptLevel &Opt);

/// The rows `-O0|-O1|-O2`, `-j N`, `--stateless`, `--exact` and
/// `--reuse`, which set \p Options' opt level, Jobs, skip mode and
/// reuse. Also gives \p Options the tools' defaults: the paper's
/// HeuristicSkip on every hardware thread.
std::vector<CommandLineFlag> buildConfigFlags(BuildOptions &Options);

/// The exact inverse of buildConfigFlags: the arguments that parse back
/// into \p Options' opt level, Jobs, skip mode and reuse.
std::vector<std::string> buildConfigArgs(const BuildOptions &Options);

} // namespace sc

#endif // SC_BUILD_SYS_BUILDFLAGS_H
