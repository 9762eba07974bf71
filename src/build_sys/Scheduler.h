//===- build_sys/Scheduler.h - Parallel compile scheduler -------*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the dirty set through the compiler on a work-stealing task
/// pool. Jobs arrive already topologically ordered; because a TU's
/// compile inputs are its source plus *scanned* import interfaces
/// (never another TU's compile output), jobs are mutually independent:
/// results land in job order, every participating thread owns a
/// private Compiler, and the shared BuildStateDB is internally
/// synchronized. The linked program is byte-identical for any
/// concurrency level.
///
/// When CompilerOptions::Workers points at the same pool, the two
/// parallelism levels compose: a build with one huge dirty TU no
/// longer serializes on a single worker — the TU occupies one thread
/// and the others steal its per-function pass tasks.
///
//===----------------------------------------------------------------------===//

#ifndef SC_BUILD_SYS_SCHEDULER_H
#define SC_BUILD_SYS_SCHEDULER_H

#include "driver/Compiler.h"

#include <string>
#include <vector>

namespace sc {

class BuildStateDB;
class TaskPool;

/// One dirty translation unit ready to compile.
struct CompileJob {
  std::string Path;
  const std::string *Source = nullptr;  // Owned by the build driver.
  ModuleInterface Imports;              // Resolved direct-import sigs.
};

/// Compiles \p Jobs on \p Pool (the calling thread participates).
/// Returns one CompileResult per job, in job order. \p DB may be null
/// for stateless configurations. Pass the same pool in
/// \p Options.Workers to enable intra-TU function-task stealing.
std::vector<CompileResult> compileInParallel(const std::vector<CompileJob> &Jobs,
                                             const CompilerOptions &Options,
                                             BuildStateDB *DB, TaskPool &Pool);

} // namespace sc

#endif // SC_BUILD_SYS_SCHEDULER_H
