#!/usr/bin/env python3
"""Perf regression gates over committed BENCH_*.json files.

One subcommand per gating ctest (plus `history` and `scenario`, which
validate artifacts rather than re-measure):

  bench_check.py e10 <bench_e10_binary> <committed_BENCH_e10.json>
      Re-measures E10 thread scaling and fails when the stateful-j8
      speedup-over-j1 drops more than E10_ALLOWED_DROP below the
      committed value — the "cross-TU frontier actually scales"
      property is load-bearing and must not silently regress.

  bench_check.py daemon <bench_daemon_binary> <committed_BENCH_daemon.json>
      Re-runs the multi-client daemon load harness. Functional service
      properties are checked unconditionally (concurrent clients must
      coalesce, overload must answer busy instead of queueing without
      bound). Tail latency (p95 per client count) is compared against
      the committed baseline only when the measurement is honest.

Both gates SKIP (exit 77, ctest's skip code) rather than compare
garbage on constrained runners: scaling and latency numbers taken on a
1-2 core CI container measure time-slicing overhead, not the property
under test. The skip is decided both before the run (hardware thread
count) and after it (the fresh JSON flags itself oversubscribed —
defense in depth; the bench decides too). A committed baseline that was
itself taken oversubscribed gates nothing real and also skips.

Each bench binary writes its BENCH_*.json into the current directory.
"""

import json
import os
import subprocess
import sys

SKIP = 77  # ctest SKIP_RETURN_CODE

E10_ALLOWED_DROP = 0.10  # Fail below committed * (1 - drop).
E10_GATED_CONFIG = "stateful-j8"

# Tail latency is noisy; only a substantial regression fails the gate.
DAEMON_ALLOWED_P95_RISE = 0.50  # Fail above committed * (1 + rise).


def skip(msg):
    print(f"SKIP: {msg}")
    sys.exit(SKIP)


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def load_json(path, what):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {what} {path}: {e}")


def run_bench(bench, output_name):
    print(f"running {bench} ...")
    proc = subprocess.run([bench], cwd=os.getcwd())
    if proc.returncode != 0:
        fail(f"bench exited with {proc.returncode}")
    return load_json(output_name, "bench output")


def find_run(doc, key, value):
    for run in doc.get("runs", []):
        if run.get(key) == value:
            return run
    return None


# ---------------------------------------------------------------- e10


def check_e10(bench, committed_path):
    hw = os.cpu_count() or 1
    if hw < 8:
        skip(f"machine has {hw} hardware thread(s); the {E10_GATED_CONFIG} "
             "scaling claim needs >= 8 — not a scaling measurement here")

    committed = load_json(committed_path, "committed baseline")
    fresh = run_bench(bench, "BENCH_e10.json")

    fresh_run = find_run(fresh, "config", E10_GATED_CONFIG)
    if fresh_run is None:
        fail(f"fresh JSON has no {E10_GATED_CONFIG} run")
    if fresh_run.get("oversubscribed"):
        skip(f"fresh {E10_GATED_CONFIG} run is flagged oversubscribed "
             f"(effective_concurrency="
             f"{fresh_run.get('effective_concurrency')})")

    committed_run = find_run(committed, "config", E10_GATED_CONFIG)
    if committed_run is None:
        fail(f"committed baseline has no {E10_GATED_CONFIG} run")
    baseline = committed_run.get("speedup_vs_j1")
    if not baseline or baseline <= 0:
        fail("committed baseline has no usable speedup_vs_j1")
    if committed_run.get("oversubscribed"):
        # A baseline taken on a constrained runner gates nothing real;
        # regenerate it on >= 8 effective threads to arm the check.
        skip("committed baseline was itself taken oversubscribed; "
             "regenerate BENCH_e10.json on >= 8 hardware threads")

    measured = fresh_run.get("speedup_vs_j1", 0)
    floor = baseline * (1.0 - E10_ALLOWED_DROP)
    print(f"{E10_GATED_CONFIG}: committed speedup {baseline:.3f}x, "
          f"measured {measured:.3f}x, floor {floor:.3f}x")
    if measured < floor:
        fail(f"{E10_GATED_CONFIG} speedup regressed: {measured:.3f}x < "
             f"{floor:.3f}x (committed {baseline:.3f}x - "
             f"{E10_ALLOWED_DROP:.0%})")
    print("OK: thread-scaling speedup within tolerance")
    sys.exit(0)


# ------------------------------------------------------------- daemon


def check_daemon(bench, committed_path):
    committed = load_json(committed_path, "committed baseline")
    fresh = run_bench(bench, "BENCH_daemon.json")

    # Functional properties hold on any machine — check them before any
    # oversubscription skip. A broken service must fail even where the
    # latency numbers would be meaningless.
    runs = fresh.get("runs", [])
    if not runs:
        fail("fresh JSON has no runs")
    multi = [r for r in runs if r.get("clients", 0) > 1]
    if not multi:
        fail("fresh JSON has no multi-client run")
    if all(r.get("coalesce_hits", 0) == 0 for r in multi):
        fail("no multi-client run coalesced a single request — identical "
             "concurrent requests must share one build wave")
    overload = fresh.get("overload", {})
    if overload.get("busy_rejections", 0) <= 0:
        fail("overload phase produced no busy rejections — a full queue "
             "must bounce with a structured busy frame, not grow")
    if overload.get("accepted", 0) <= 0:
        fail("overload phase accepted nothing — admission control must "
             "degrade, not deny service entirely")
    print(f"service properties OK: coalesce hits "
          f"{[r.get('coalesce_hits') for r in multi]}, overload "
          f"{overload.get('accepted')} accepted / "
          f"{overload.get('busy_rejections')} busy-rejected")

    # Latency comparison is only honest when neither measurement was
    # oversubscribed (client threads + builder time-slicing one core
    # measures the scheduler, not the service).
    if fresh.get("oversubscribed"):
        skip(f"fresh run is flagged oversubscribed "
             f"(hardware_threads={fresh.get('hardware_threads')}); "
             "service properties verified, tail latency not gated")
    if committed.get("oversubscribed"):
        skip("committed baseline was itself taken oversubscribed; "
             "regenerate BENCH_daemon.json on a multi-core machine to "
             "arm the latency gate")

    failures = []
    for fresh_run in runs:
        clients = fresh_run.get("clients")
        committed_run = find_run(committed, "clients", clients)
        if committed_run is None:
            print(f"note: committed baseline has no {clients}-client run; "
                  "not gated")
            continue
        baseline = committed_run.get("build_latency_p95_ms")
        measured = fresh_run.get("build_latency_p95_ms")
        if not baseline or baseline <= 0 or measured is None:
            continue
        ceiling = baseline * (1.0 + DAEMON_ALLOWED_P95_RISE)
        verdict = "FAIL" if measured > ceiling else "ok"
        print(f"{clients} client(s): committed p95 {baseline:.2f} ms, "
              f"measured {measured:.2f} ms, ceiling {ceiling:.2f} ms "
              f"[{verdict}]")
        if measured > ceiling:
            failures.append(clients)
    if failures:
        fail(f"p95 build latency regressed for client count(s) "
             f"{failures} (> committed + {DAEMON_ALLOWED_P95_RISE:.0%})")
    print("OK: daemon service properties and tail latency within tolerance")
    sys.exit(0)


# ------------------------------------------------------------ history


def check_history(ledger_path):
    """Validates a build-history ledger (history.jsonl) left behind by a
    bench_daemon run: every line is standalone JSON carrying the
    versioned schema and a well-formed checksum, and build ids are
    strictly monotone. Skips when the ledger is absent (bench-daemon
    has not run in this build tree yet)."""
    if not os.path.exists(ledger_path):
        skip(f"no ledger at {ledger_path}; run the bench-daemon test first")
    records = []
    with open(ledger_path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"line {lineno} is not standalone JSON: {e}")
            if rec.get("schema") != "scbuild-history":
                fail(f"line {lineno}: schema is {rec.get('schema')!r}, "
                     "expected 'scbuild-history'")
            if rec.get("schema_version") != 2:
                fail(f"line {lineno}: unexpected schema_version "
                     f"{rec.get('schema_version')!r}")
            crc = rec.get("crc", "")
            if len(crc) != 16 or any(c not in "0123456789abcdef"
                                     for c in crc):
                fail(f"line {lineno}: malformed crc {crc!r}")
            if not line.endswith(',"crc":"%s"}' % crc):
                fail(f"line {lineno}: crc is not the final key — the "
                     "checksum must cover every byte before it")
            records.append(rec)
    if not records:
        fail(f"{ledger_path} holds no records")
    ids = [r.get("build", 0) for r in records]
    if any(b <= a for a, b in zip(ids, ids[1:])):
        fail(f"build ids are not strictly monotone: {ids}")
    for key in ("success", "phases_us", "counters", "tus", "passes"):
        missing = [i for i, r in enumerate(records, 1) if key not in r]
        if missing:
            fail(f"record(s) {missing} lack the '{key}' field")
    print(f"OK: {len(records)} ledger record(s), ids {ids[0]}..{ids[-1]} "
          "monotone, schema v2, checksums well-formed")
    sys.exit(0)


def check_scenario(scworkload, spec_path):
    """Replays a bundled scenario through scworkload and validates the
    "scworkload-replay" report: every phase built, the dependency
    verifier found nothing, and the incremental artifacts byte-matched
    a scratch build after every phase. Scenario replays are
    deterministic at any -j, so this gate never skips for hardware."""
    if not os.path.exists(spec_path):
        fail(f"no scenario spec at {spec_path}")
    report = "BENCH_scenario.json"
    workspace = "bench_scenario_ws"
    if os.path.exists(workspace):
        import shutil
        shutil.rmtree(workspace)
    os.makedirs(workspace)
    print(f"running {scworkload} run {spec_path} ...")
    proc = subprocess.run(
        [scworkload, "run", spec_path, "--dir", workspace, "-j", "4",
         "--quiet", f"--report-json={report}"], cwd=os.getcwd())
    if proc.returncode != 0:
        fail(f"scworkload exited with {proc.returncode}")
    doc = load_json(report, "replay report")
    if doc.get("schema") != "scworkload-replay":
        fail(f"schema is {doc.get('schema')!r}, expected 'scworkload-replay'")
    if doc.get("schema_version") != 1:
        fail(f"unexpected schema_version {doc.get('schema_version')!r}")
    if doc.get("ok") is not True:
        fail(f"replay not ok: findings {doc.get('findings')}")
    if doc.get("findings"):
        fail(f"verifier findings on a clean scenario: {doc['findings']}")
    phases = doc.get("phases", [])
    if not phases:
        fail("report holds no phase outcomes")
    for ph in phases:
        for key in ("phase", "iteration", "build_ok", "scratch_match",
                    "files_compiled", "files_total", "deps_missing",
                    "deps_redundant"):
            if key not in ph:
                fail(f"phase record lacks the {key!r} field: {ph}")
        if not ph["build_ok"]:
            fail(f"phase {ph['phase']!r} failed to build")
        if not ph["scratch_match"]:
            fail(f"phase {ph['phase']!r} diverged from a scratch build")
        if ph["deps_missing"] or ph["deps_redundant"]:
            fail(f"phase {ph['phase']!r} has dependency findings: {ph}")
    print(f"OK: scenario {doc.get('scenario')!r} replayed clean — "
          f"{len(phases)} build(s), zero findings, scratch-identical")
    sys.exit(0)


def main():
    usage = (f"usage: {sys.argv[0]} e10|daemon <bench_binary> "
             f"<committed_json>  |  {sys.argv[0]} history <ledger.jsonl>"
             f"  |  {sys.argv[0]} scenario <scworkload> <spec.scen>")
    if len(sys.argv) == 3 and sys.argv[1] == "history":
        check_history(sys.argv[2])
    if len(sys.argv) != 4:
        fail(usage)
    sub, bench, committed_path = sys.argv[1], sys.argv[2], sys.argv[3]
    if sub == "e10":
        check_e10(bench, committed_path)
    elif sub == "daemon":
        check_daemon(bench, committed_path)
    elif sub == "scenario":
        check_scenario(bench, committed_path)
    else:
        fail(usage)


if __name__ == "__main__":
    main()
