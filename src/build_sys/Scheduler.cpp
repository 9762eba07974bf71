//===- build_sys/Scheduler.cpp - Parallel compile scheduler --------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "build_sys/Scheduler.h"

#include "support/TaskPool.h"
#include "support/Trace.h"

#include <exception>

using namespace sc;

std::vector<CompileResult>
sc::compileInParallel(const std::vector<CompileJob> &Jobs,
                      const CompilerOptions &Options, BuildStateDB *DB,
                      TaskPool &Pool) {
  std::vector<CompileResult> Results(Jobs.size());
  if (Jobs.empty())
    return Results;

  const bool Tracing = Options.Trace && Options.Trace->enabled();

  // Each participating thread lazily builds a private Compiler (the
  // pipeline and its analyses are per-instance state) and writes into
  // pre-sized, disjoint result slots, and each compile looks up and
  // updates only its own TU key in the (internally synchronized) DB —
  // no slot or TU key is ever shared, so results are identical for any
  // work-stealing schedule.
  //
  // Fault containment: one TU blowing up (an internal error escaping
  // as an exception) must not take down the wave — it becomes a failed
  // result for that TU alone, and every independent TU still finishes.
  // Only std::exception is contained; FaultyFileSystem's CrashPoint
  // (simulated process death) deliberately is not.
  std::vector<std::unique_ptr<Compiler>> PerSlot(Pool.maxSlots());
  Pool.parallelFor(Jobs.size(), [&](size_t I, unsigned Slot) {
    if (!PerSlot[Slot]) {
      PerSlot[Slot] = std::make_unique<Compiler>(Options, DB);
      // Once per slot, not per job: naming takes the recorder mutex,
      // which must stay off the per-TU hot path.
      if (Tracing)
        Options.Trace->setThreadName("worker-" + std::to_string(Slot));
    }
    try {
      Results[I] = PerSlot[Slot]->compile(Jobs[I].Path, *Jobs[I].Source,
                                          Jobs[I].Imports);
    } catch (const std::exception &E) {
      Results[I] = CompileResult();
      Results[I].Success = false;
      Results[I].DiagText = "error: " + Jobs[I].Path +
                            ": internal compiler error: " + E.what() + "\n";
    }
  });
  return Results;
}
