//===- build_sys/Scheduler.cpp - Parallel compile scheduler --------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "build_sys/Scheduler.h"

#include "state/BuildStateDB.h"
#include "support/Metrics.h"
#include "support/TaskPool.h"
#include "support/Timer.h"
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

  // Batched state write-back: workers return each TU's new state in
  // its CompileResult instead of locking a DB shard mid-wave; the
  // batch is applied once per shard after the wave quiesces. Previous
  // state LOOKUPS all happen at compile start, before any batch write,
  // so lookup()/applyBatch() never interleave on the same key.
  CompilerOptions WaveOptions = Options;
  if (DB)
    WaveOptions.DeferStateWrite = true;

  // Queue-wait accounting: how long after wave dispatch each TU job
  // actually started, i.e. how backed up the pool was. The max gauge
  // is the wave's worst-case scheduling delay.
  const uint64_t WaveStartNs = nowNanos();
  const bool Tracing = Options.Trace && Options.Trace->enabled();

  // Each participating thread lazily builds a private Compiler (the
  // pipeline and its analyses are per-instance state) and writes into
  // pre-sized, disjoint result slots — no slot or TU key is ever
  // shared, so results are identical for any work-stealing schedule.
  //
  // Fault containment: one TU blowing up (an internal error escaping
  // as an exception) must not take down the wave — it becomes a failed
  // result for that TU alone, and every independent TU still finishes.
  // Only std::exception is contained; FaultyFileSystem's CrashPoint
  // (simulated process death) deliberately is not.
  std::vector<std::unique_ptr<Compiler>> PerSlot(Pool.maxSlots());
  Pool.parallelFor(Jobs.size(), [&](size_t I, unsigned Slot) {
    if (!PerSlot[Slot]) {
      PerSlot[Slot] = std::make_unique<Compiler>(WaveOptions, DB);
      // Once per slot, not per job: naming takes the recorder mutex,
      // which must stay off the per-TU hot path.
      if (Tracing)
        Options.Trace->setThreadName("worker-" + std::to_string(Slot));
    }
    if (Options.Metrics) {
      Options.Metrics->counter("scheduler.jobs_dispatched").add(1);
      Options.Metrics->gauge("scheduler.queue_wait_max_us")
          .max(static_cast<double>(nowNanos() - WaveStartNs) / 1000.0);
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

  if (DB) {
    std::vector<std::pair<std::string, TUState>> Batch;
    Batch.reserve(Jobs.size());
    for (size_t I = 0; I != Jobs.size(); ++I)
      if (Results[I].HasNewState) {
        Batch.emplace_back(Jobs[I].Path, std::move(Results[I].NewState));
        Results[I].HasNewState = false;
      }
    if (!Batch.empty()) {
      TraceSpan BatchSpan(Options.Trace, "build", "state-batch");
      const size_t BatchSize = Batch.size();
      DB->applyBatch(std::move(Batch));
      if (Options.Metrics)
        Options.Metrics->counter("scheduler.state_batched_writes")
            .add(BatchSize);
    }
  }
  return Results;
}

std::vector<CompileResult>
sc::compileInParallel(const std::vector<CompileJob> &Jobs,
                      const CompilerOptions &Options, BuildStateDB *DB,
                      unsigned NumThreads) {
  TaskPool Pool(NumThreads);
  return compileInParallel(Jobs, Options, DB, Pool);
}
