#!/usr/bin/env bash
# Smoke test for the scc / scbuild / scbuildd / sccached command-line
# tools: builds and runs a small two-file project end to end, edits it,
# checks that the incremental path (dirty detection + dormant-pass
# skipping) engages, drives the same project through a resident build
# daemon, and shares objects across workspaces through sccached.
set -eu

SCC="$1"
SCBUILD="$2"
SCBUILDD="$3"
SCCACHED="$4"
SCWORKLOAD="$5"
SCENDIR="$6"

DIR="$(mktemp -d)"
DAEMON_PID=""
CACHE_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
  [ -n "$CACHE_PID" ] && kill "$CACHE_PID" 2>/dev/null || true
  "$SCBUILD" "$DIR/autostart" --daemon-shutdown >/dev/null 2>&1 || true
  rm -rf "$DIR"
}
trap cleanup EXIT
cd "$DIR"

cat > util.mc <<'EOF'
fn triple(x: int) -> int { return x * 3; }
EOF
cat > main.mc <<'EOF'
import "util.mc";
fn main() -> int {
  print(triple(14));
  return 0;
}
EOF

# Full build + run through scbuild.
OUT="$("$SCBUILD" . --quiet --run)"
[ "$OUT" = "42" ] || { echo "FAIL: expected 42, got '$OUT'"; exit 1; }

# No-op rebuild compiles nothing.
SUMMARY="$("$SCBUILD" .)"
echo "$SUMMARY" | grep -q "0/2 files compiled" || {
  echo "FAIL: no-op rebuild recompiled something: $SUMMARY"; exit 1; }

# Stat rules on a real filesystem (docs/BUILD_SYSTEM.md "Stat-clean
# files"): a touched but unchanged source is re-read, found clean and
# compiles nothing.
touch util.mc
SUMMARY="$("$SCBUILD" .)"
echo "$SUMMARY" | grep -q "0/2 files compiled" || {
  echo "FAIL: touching a source recompiled something: $SUMMARY"; exit 1; }

# A same-size edit (same inode) right after a build is rebuilt, and the
# program changes, even when it lands in the manifest's timestamp tick.
"$SCBUILD" . --quiet
printf 'fn triple(x: int) -> int { return x * 4; }\n' > util.mc
SUMMARY="$("$SCBUILD" .)"
echo "$SUMMARY" | grep -q "1/2 files compiled" || {
  echo "FAIL: same-size edit was not rebuilt: $SUMMARY"; exit 1; }
OUT="$("$SCBUILD" . --quiet --run)"
[ "$OUT" = "56" ] || { echo "FAIL after same-size edit: got '$OUT'"; exit 1; }
printf 'fn triple(x: int) -> int { return x * 3; }\n' > util.mc
OUT="$("$SCBUILD" . --quiet --run)"
[ "$OUT" = "42" ] || { echo "FAIL after restoring util.mc: got '$OUT'"; exit 1; }

# A no-op build rewrites no state it left unchanged: out/state.db keeps
# its inode and mtime.
"$SCBUILD" . --quiet
BEFORE="$(stat -c %i.%Y out/state.db)"
"$SCBUILD" . --quiet
[ "$(stat -c %i.%Y out/state.db)" = "$BEFORE" ] || {
  echo "FAIL: a no-op build rewrote out/state.db"; exit 1; }

# Body edit: exactly one file recompiles and dormant passes skip.
sed -i 's/x \* 3/x + x + x/' util.mc
SUMMARY="$("$SCBUILD" .)"
echo "$SUMMARY" | grep -q "1/2 files compiled" || {
  echo "FAIL: expected 1 recompile: $SUMMARY"; exit 1; }
echo "$SUMMARY" | grep -qE "skipped [1-9]" || {
  echo "FAIL: expected skipped passes: $SUMMARY"; exit 1; }
OUT="$("$SCBUILD" . --quiet --run)"
[ "$OUT" = "42" ] || { echo "FAIL after edit: got '$OUT'"; exit 1; }

# Code reuse engages for unchanged functions when an interface changes.
# Warm the code cache first (records gain code keys and blobs), then
# force recompiles with an interface change and expect splicing.
"$SCBUILD" . --reuse --clean --quiet
cat >> util.mc <<'EOF'
fn extra() -> int { return 7; }
EOF
SUMMARY="$("$SCBUILD" . --reuse)"
echo "$SUMMARY" | grep -qE "functions reused [1-9]" || {
  echo "FAIL: expected reused functions: $SUMMARY"; exit 1; }

# scc: single-file compile + object output + run with linked imports.
"$SCC" main.mc -o main.o --stateful --stats > scc.log
[ -s main.o ] || { echo "FAIL: no object produced"; exit 1; }
grep -q "passes run" scc.log || { echo "FAIL: missing stats"; exit 1; }
OUT="$("$SCC" main.mc --run | head -1)"
[ "$OUT" = "42" ] || { echo "FAIL: scc --run got '$OUT'"; exit 1; }

# Errors are reported with a nonzero exit.
echo "fn broken( {" > bad.mc
if "$SCC" bad.mc 2>/dev/null; then
  echo "FAIL: bad source accepted"; exit 1
fi
rm bad.mc # Keep the project buildable for the steps below.

# scbuild --stateless works and produces the same program output.
"$SCBUILD" . --clean --stateless --quiet
OUT="$("$SCBUILD" . --stateless --quiet --run)"
[ "$OUT" = "42" ] || { echo "FAIL: stateless got '$OUT'"; exit 1; }

# Fault injection: a torn write costs persistence only — the build
# succeeds, warns on stderr, and the tree stays consistent.
"$SCBUILD" . --clean --quiet
WARNINGS="$("$SCBUILD" . --quiet --inject-fault torn:1 2>&1 >/dev/null)"
echo "$WARNINGS" | grep -q "scbuild: warning:.*torn" || {
  echo "FAIL: expected a torn-write warning, got: $WARNINGS"; exit 1; }
OUT="$("$SCBUILD" . --quiet --run)"
[ "$OUT" = "42" ] || { echo "FAIL after torn write: got '$OUT'"; exit 1; }

# A simulated crash mid-persist exits with the crash code (3); the
# next build recovers to the identical, correct program.
set +e
"$SCBUILD" . --inject-fault crash:2 >/dev/null 2>&1
RC=$?
set -e
[ "$RC" -eq 3 ] || { echo "FAIL: expected crash exit 3, got $RC"; exit 1; }
OUT="$("$SCBUILD" . --quiet --run)"
[ "$OUT" = "42" ] || { echo "FAIL after crash: got '$OUT'"; exit 1; }

# Malformed fault specs are rejected up front.
if "$SCBUILD" . --inject-fault bogus:1 2>/dev/null; then
  echo "FAIL: bad --inject-fault spec accepted"; exit 1
fi

# Telemetry: --trace-out writes Chrome trace-event JSON and
# --report-json writes the versioned build report; both must parse and
# carry their required keys. A fresh --clean build guarantees compile
# spans are present.
"$SCBUILD" . --clean --quiet --trace-out=trace.json --report-json=report.json
[ -s trace.json ] || { echo "FAIL: no trace written"; exit 1; }
[ -s report.json ] || { echo "FAIL: no report written"; exit 1; }
python3 - <<'PYEOF' || { echo "FAIL: telemetry JSON invalid"; exit 1; }
import json, sys

trace = json.load(open("trace.json"))
events = trace["traceEvents"]
assert isinstance(events, list) and events, "empty traceEvents"
phases = {e["name"] for e in events if e.get("ph") == "X"}
for phase in ("build", "scan", "compile", "link"):
    assert phase in phases, f"missing {phase} span"
assert any(n.startswith("compile:") for n in phases), "no per-TU span"
assert all("ts" in e for e in events if e.get("ph") in ("X", "i"))
assert all("tid" in e for e in events)

report = json.load(open("report.json"))
assert report["schema"] == "scbuild-report", report.get("schema")
assert report["schema_version"] == 1
for key in ("success", "files", "phases_us", "compile_phases_us",
            "passes", "state", "metrics"):
    assert key in report, f"missing report key {key}"
assert report["success"] is True
assert report["files"]["compiled"] == report["files"]["total"] == 2
PYEOF

# An incremental rebuild's trace carries pass-skip instants with
# machine-readable dormancy verdicts: edit one body so its TU
# recompiles while the TU's other functions stay dormant.
sed -i 's/x + x + x/x \* 3/' util.mc
"$SCBUILD" . --quiet --trace-out=trace2.json > /dev/null
python3 - <<'PYEOF' || { echo "FAIL: skip instants missing"; exit 1; }
import json

events = json.load(open("trace2.json"))["traceEvents"]
skips = [e for e in events
         if e.get("ph") == "i" and e.get("cat") == "pass.skip"]
assert skips, "no pass.skip instants in incremental trace"
assert all(e["args"]["reason"].startswith("skipped:") for e in skips)
PYEOF

# --explain replays the recorded decision log. Touch util.mc so the
# last recorded build actually recompiles it.
sed -i 's/return 7;/return 8;/' util.mc
"$SCBUILD" . --quiet > /dev/null
"$SCBUILD" . --explain util.mc > explain.log
grep -q "triple" explain.log || {
  echo "FAIL: explain missing function"; cat explain.log; exit 1; }
grep -qE "ran|skipped" explain.log || {
  echo "FAIL: explain has no verdicts"; cat explain.log; exit 1; }
"$SCBUILD" . --explain main.mc > explain2.log
grep -q "was not recompiled" explain2.log || {
  echo "FAIL: up-to-date TU not reported"; cat explain2.log; exit 1; }
if "$SCBUILD" . --explain util.mc:nonexistent-pass 2>/dev/null; then
  echo "FAIL: unknown pass accepted by --explain"; exit 1
fi

# --quiet on both tools silences the human summaries.
OUT="$("$SCBUILD" . --quiet)"
[ -z "$OUT" ] || { echo "FAIL: scbuild --quiet printed: $OUT"; exit 1; }
OUT="$("$SCC" util.mc --stateful --quiet -o util.o)"
[ -z "$OUT" ] || { echo "FAIL: scc --quiet printed: $OUT"; exit 1; }
# ...and without --quiet, scc prints the same skip summary scbuild does.
"$SCC" util.mc --stateful -o util.o | grep -q "passes run" || {
  echo "FAIL: scc skip summary missing"; exit 1; }

# -j validates its argument: non-numeric values are rejected with a
# clear diagnostic (they used to silently become Jobs=0), and 0 is
# clamped to a serial build rather than refused.
for BAD in abc 4x -- -1; do
  if "$SCBUILD" . -j "$BAD" --quiet 2>jerr.log; then
    echo "FAIL: -j $BAD accepted"; exit 1
  fi
  grep -q "requires a positive integer" jerr.log || {
    echo "FAIL: -j $BAD diagnostic wrong: $(cat jerr.log)"; exit 1; }
done
"$SCBUILD" . -j 0 --quiet || { echo "FAIL: -j 0 must clamp to 1"; exit 1; }

# A parallel build reports its pool scheduling counters and nothing
# about lock contention or the scheduler: neither is counted.
"$SCBUILD" . --clean -j 2 --quiet --report-json=reportj2.json
python3 - <<'PYEOF' || { echo "FAIL: -j 2 report metrics wrong"; exit 1; }
import json
metrics = json.load(open("reportj2.json"))["metrics"]
names = set(metrics["counters"]) | set(metrics["gauges"])
stray = sorted(n for n in names if n.startswith(("lock.", "scheduler.")))
assert not stray, stray
for name in ("pool.steals", "pool.park_wait_ns"):
    assert name in metrics["counters"], f"missing {name}"
PYEOF

# The hidden --lock-timeout-ms takes the same strict parse: -1 is an
# error, not a wait of 4294967295 ms.
set +e
"$SCBUILD" . --lock-timeout-ms -1 --quiet 2>lterr.log
RC=$?
set -e
[ "$RC" -eq 1 ] || { echo "FAIL: --lock-timeout-ms -1 exited $RC"; exit 1; }
grep -q "requires a non-negative integer" lterr.log || {
  echo "FAIL: --lock-timeout-ms -1 diagnostic wrong: $(cat lterr.log)"
  exit 1; }

# scc resolves imports relative to the importing file's directory, so
# compiling from a sibling directory (or anywhere else) works.
mkdir -p sub
cat > sub/part.mc <<'EOF'
fn twelve() -> int { return 12; }
EOF
cat > sub/entry.mc <<'EOF'
import "part.mc";
fn main() -> int {
  print(twelve());
  return 0;
}
EOF
mkdir -p sibling
cd sibling
OUT="$("$SCC" ../sub/entry.mc --run | head -1)"
[ "$OUT" = "12" ] || { echo "FAIL: sibling-dir import got '$OUT'"; exit 1; }
cd "$DIR"
rm -rf sub sibling

#===--- Resident daemon ---------------------------------------------------===#

# Start scbuildd, then drive two builds through scbuild --daemon: the
# first is cold, the second must be fully warm — zero interface
# re-scans and zero object re-parses, as reported by --daemon-status.
"$SCBUILD" . --clean --quiet
"$SCBUILDD" . --quiet &
DAEMON_PID=$!
for _ in $(seq 50); do
  [ -S out/.daemon.sock ] && break
  sleep 0.1
done
[ -S out/.daemon.sock ] || { echo "FAIL: daemon socket never appeared"; exit 1; }

OUT="$("$SCBUILD" . --daemon --quiet --run)"
[ "$OUT" = "42" ] || { echo "FAIL: daemon build got '$OUT'"; exit 1; }
"$SCBUILD" . --daemon | grep -q "0/2 files compiled" || {
  echo "FAIL: daemon no-op rebuild recompiled something"; exit 1; }
STATUS="$("$SCBUILD" . --daemon-status)"
echo "$STATUS" | grep -q "interface scans 0 (cache hits 2)" || {
  echo "FAIL: warm rebuild re-scanned: $STATUS"; exit 1; }
echo "$STATUS" | grep -q "objects parsed 0" || {
  echo "FAIL: warm rebuild re-parsed objects: $STATUS"; exit 1; }

# While the daemon owns the tree, a plain scbuild degrades read-only
# with a diagnostic naming the daemon — it must not time out waiting.
WARN="$("$SCBUILD" . --quiet 2>&1 >/dev/null)"
echo "$WARN" | grep -q "build daemon (pid $DAEMON_PID)" || {
  echo "FAIL: expected daemon-owns-lock warning, got: $WARN"; exit 1; }

# --explain answered by the daemon (same decision log, same text).
sed -i 's/return 8;/return 9;/' util.mc
"$SCBUILD" . --daemon --quiet
"$SCBUILD" . --daemon --explain util.mc > dexplain.log
grep -qE "ran|skipped" dexplain.log || {
  echo "FAIL: daemon --explain has no verdicts"; cat dexplain.log; exit 1; }

# Clean shutdown: the daemon exits, releases the lock, removes the
# socket, and a plain build owns the tree again.
"$SCBUILD" . --daemon-shutdown
wait "$DAEMON_PID" || { echo "FAIL: daemon exited nonzero"; exit 1; }
DAEMON_PID=""
[ ! -e out/.daemon.sock ] || { echo "FAIL: socket left behind"; exit 1; }
[ ! -e out/.lock ] || { echo "FAIL: lock left behind"; exit 1; }
WARN="$("$SCBUILD" . --quiet 2>&1 >/dev/null)"
[ -z "$WARN" ] || { echo "FAIL: post-shutdown build warned: $WARN"; exit 1; }

# With no daemon listening, --daemon falls back to an in-process build.
OUT="$("$SCBUILD" . --daemon --quiet --run)"
[ "$OUT" = "42" ] || { echo "FAIL: daemon fallback got '$OUT'"; exit 1; }

#===--- Multi-client daemon service ---------------------------------------===#

# Restart the daemon with a deliberate service-time floor (--hold-ms)
# and a one-slot queue so concurrent clients genuinely contend.
"$SCBUILDD" . --quiet --hold-ms=750 --max-queue=1 &
DAEMON_PID=$!
for _ in $(seq 50); do
  [ -S out/.daemon.sock ] && break
  sleep 0.1
done
[ -S out/.daemon.sock ] || { echo "FAIL: daemon socket never appeared"; exit 1; }

# Coalescing: while one build occupies the builder, two identical
# requests arrive; the second joins the first's queued wave instead of
# building twice, and both clients get the same rendered summary.
"$SCBUILD" . --daemon --quiet &
WAVE_PID=$!
sleep 0.15
"$SCBUILD" . --daemon > mc1.log &
MC1_PID=$!
sleep 0.15
"$SCBUILD" . --daemon > mc2.log &
MC2_PID=$!
wait "$WAVE_PID" || { echo "FAIL: occupying build failed"; exit 1; }
wait "$MC1_PID" || { echo "FAIL: queued client failed"; exit 1; }
wait "$MC2_PID" || { echo "FAIL: coalesced client failed"; exit 1; }
cmp -s mc1.log mc2.log || {
  echo "FAIL: coalesced clients saw different output"; exit 1; }

# Overload: occupy the builder again, fill the one-slot queue with a
# --clean request, then send a third request that cannot coalesce with
# it (Clean differs). The daemon must answer a structured busy frame —
# the client retries with backoff and still completes its build.
"$SCBUILD" . --daemon --quiet &
WAVE_PID=$!
sleep 0.15
"$SCBUILD" . --daemon --clean --quiet &
MC1_PID=$!
sleep 0.15
"$SCBUILD" . --daemon --quiet 2> busy.log &
MC2_PID=$!
wait "$WAVE_PID" || { echo "FAIL: occupying build failed"; exit 1; }
wait "$MC1_PID" || { echo "FAIL: queued clean build failed"; exit 1; }
wait "$MC2_PID" || { echo "FAIL: busy-bounced client failed"; exit 1; }

# The service counters record exactly what happened: one coalesced
# waiter, one busy rejection, and every connection served.
STATUS="$("$SCBUILD" . --daemon-status)"
echo "$STATUS" | grep -q "coalesced 1" || {
  echo "FAIL: expected one coalesce hit: $STATUS"; exit 1; }
echo "$STATUS" | grep -qE "busy rejections [1-9]" || {
  echo "FAIL: expected a busy rejection: $STATUS"; exit 1; }

# SIGTERM is a graceful drain, same as the shutdown verb: the daemon
# exits cleanly, leaves no stale socket or lock, and a plain build
# owns the tree again immediately.
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || { echo "FAIL: daemon exited nonzero on SIGTERM"; exit 1; }
DAEMON_PID=""
[ ! -e out/.daemon.sock ] || { echo "FAIL: SIGTERM left socket"; exit 1; }
[ ! -e out/.lock ] || { echo "FAIL: SIGTERM left lock"; exit 1; }
WARN="$("$SCBUILD" . --quiet 2>&1 >/dev/null)"
[ -z "$WARN" ] || { echo "FAIL: post-SIGTERM build warned: $WARN"; exit 1; }

#===--- Remote object cache (sccached) ------------------------------------===#

# Start sccached on a temp socket, then build the same sources from two
# fresh workspaces: the first publishes every object, the second must
# fetch everything — RemoteHits > 0 and zero recompiles.
CACHE_SOCK="$DIR/cache.sock"
"$SCCACHED" --socket="$CACHE_SOCK" --quiet &
CACHE_PID=$!
for _ in $(seq 50); do
  [ -S "$CACHE_SOCK" ] && break
  sleep 0.1
done
[ -S "$CACHE_SOCK" ] || { echo "FAIL: sccached socket never appeared"; exit 1; }

for WS in ws1 ws2; do
  mkdir -p "$WS"
  cat > "$WS/util.mc" <<'EOF'
fn triple(x: int) -> int { return x * 3; }
EOF
  cat > "$WS/main.mc" <<'EOF'
import "util.mc";
fn main() -> int {
  print(triple(14));
  return 0;
}
EOF
done

# Workspace 1: cold cache — everything compiles, everything publishes.
"$SCBUILD" ws1 --quiet --remote-cache="$CACHE_SOCK"

# Workspace 2: warm cache — zero recompiles, objects fetched remotely,
# counters in both the summary line and the JSON report.
SUMMARY="$("$SCBUILD" ws2 --remote-cache="$CACHE_SOCK" \
           --report-json=ws2-report.json)"
echo "$SUMMARY" | grep -q "0/2 files compiled" || {
  echo "FAIL: warm-cache workspace recompiled: $SUMMARY"; exit 1; }
echo "$SUMMARY" | grep -q "remote cache: 2 hit(s)" || {
  echo "FAIL: expected remote hits in summary: $SUMMARY"; exit 1; }
python3 - <<'PYEOF' || { echo "FAIL: remote report invalid"; exit 1; }
import json

report = json.load(open("ws2-report.json"))
assert report["remote"]["hits"] == 2, report["remote"]
assert report["remote"]["errors"] == 0, report["remote"]
assert report["files"]["compiled"] == 0, report["files"]
PYEOF
OUT="$("$SCBUILD" ws2 --quiet --run)"
[ "$OUT" = "42" ] || { echo "FAIL: remote-fed build got '$OUT'"; exit 1; }

# The remote-fed objects are byte-identical to the compiled ones.
cmp ws1/out/util.mc.o ws2/out/util.mc.o || {
  echo "FAIL: remote-fed object differs from compiled object"; exit 1; }

# Workspace 1 again, through the warm cache: every TU is clean, so the
# build touches them all in one batched round trip and publishes nothing.
"$SCBUILD" ws1 --quiet --remote-cache="$CACHE_SOCK" \
  --report-json=ws1-warm.json
python3 - <<'PYEOF' || { echo "FAIL: warm rebuild round trips"; exit 1; }
import json

remote = json.load(open("ws1-warm.json"))["remote"]
assert remote["round_trips"] == 1, remote
assert remote["puts"] == 0, remote
PYEOF

# --stats answers over the same socket.
"$SCCACHED" --socket="$CACHE_SOCK" --stats | grep -q "entries" || {
  echo "FAIL: sccached --stats failed"; exit 1; }

# Clean shutdown removes the socket.
"$SCCACHED" --socket="$CACHE_SOCK" --shutdown
wait "$CACHE_PID" || { echo "FAIL: sccached exited nonzero"; exit 1; }
CACHE_PID=""
[ ! -e "$CACHE_SOCK" ] || { echo "FAIL: cache socket left behind"; exit 1; }

# A dead daemon degrades the build to local-only: success, exactly one
# warning on stderr, never a failed build.
rm -rf ws2/out
WARN="$("$SCBUILD" ws2 --quiet --remote-cache="$CACHE_SOCK" 2>&1 >/dev/null)"
[ "$(echo "$WARN" | grep -c "remote cache")" = "1" ] || {
  echo "FAIL: expected exactly one remote warning, got: $WARN"; exit 1; }
OUT="$("$SCBUILD" ws2 --quiet --run)"
[ "$OUT" = "42" ] || { echo "FAIL: degraded build got '$OUT'"; exit 1; }

# --remote-cache is a per-build flag; the resident daemon configures
# the tier at startup instead.
if "$SCBUILD" ws2 --daemon --remote-cache="$CACHE_SOCK" 2>/dev/null; then
  echo "FAIL: --remote-cache with --daemon accepted"; exit 1
fi

#===--- Build-history ledger + scbuild analyze -----------------------------===#

# Three builds — clean, incremental, failed — must land three
# checksummed records with monotone ids in out/history.jsonl. A fresh
# workspace keeps the ids at exactly 1, 2, 3.
mkdir -p hist
cat > hist/util.mc <<'EOF'
fn triple(x: int) -> int { return x * 3; }
EOF
cat > hist/main.mc <<'EOF'
import "util.mc";
fn main() -> int {
  print(triple(14));
  return 0;
}
EOF
"$SCBUILD" hist --quiet                      # 1: clean
sed -i 's/x \* 3/x + x + x/' hist/util.mc
"$SCBUILD" hist --quiet                      # 2: incremental
cp hist/main.mc hist/main.mc.good
echo 'fn main( -> int { broken' > hist/main.mc
set +e
"$SCBUILD" hist --quiet 2>/dev/null          # 3: failed
RC=$?
set -e
[ "$RC" -ne 0 ] || { echo "FAIL: broken project built"; exit 1; }
mv hist/main.mc.good hist/main.mc
python3 - <<'PYEOF' || { echo "FAIL: history ledger invalid"; exit 1; }
import json
recs = [json.loads(l) for l in open("hist/out/history.jsonl")]
assert len(recs) == 3, f"expected 3 records, got {len(recs)}"
assert [r["build"] for r in recs] == [1, 2, 3]
assert [r["success"] for r in recs] == [True, True, False]
for r in recs:
    assert r["schema"] == "scbuild-history" and r["schema_version"] == 2
    assert "samples" not in r, "schema 2 dropped the samples array"
    crc = r["crc"]
    assert len(crc) == 16 and all(c in "0123456789abcdef" for c in crc)
# The incremental build's dirty set is smaller than the clean build's.
assert 0 < len(recs[1]["dirty"]) < len(recs[0]["dirty"])
PYEOF

# analyze: the human view names the critical path; --against diffs two
# builds with stable reason codes; --json is machine-parseable.
"$SCBUILD" hist analyze > analyze.log
grep -q "critical path" analyze.log || {
  echo "FAIL: analyze missing critical path"; cat analyze.log; exit 1; }
"$SCBUILD" hist analyze --build=2 --against=1 > adiff.log
grep -q "vs build 1" adiff.log || {
  echo "FAIL: analyze --against missing diff"; cat adiff.log; exit 1; }
"$SCBUILD" hist analyze --build=2 --against=1 --json > analyze.json
python3 - <<'PYEOF' || { echo "FAIL: analyze JSON invalid"; exit 1; }
import json
doc = json.load(open("analyze.json"))
assert doc["schema"] == "scbuild-analyze" and doc["schema_version"] == 3
assert "lock_wait_ns" not in doc, "schema 3 dropped the lock-wait table"
assert doc["build"] == 2 and doc["against"] == 1
assert "samples" not in doc, "schema 2 dropped the samples array"
assert doc["slowest_tu"]["name"], "no slowest TU named"
assert "critical_path" in doc and doc["critical_path"]
assert "diff" in doc
codes = {e["reason"] for e in doc["diff"]["changes"]}
assert codes <= {"node-new", "node-slower", "node-faster", "node-fixed"}, codes
PYEOF
if "$SCBUILD" hist analyze --build=99 2>/dev/null; then
  echo "FAIL: analyze accepted an unknown build id"; exit 1
fi

#===--- Fleet metrics export ----------------------------------------------===#

# scbuildd serves the `metrics` verb (Prometheus text) and dumps the
# same text to --metrics-out; at shutdown --report-json carries the
# same registry as JSON. The two views must agree counter for counter.
# A dedicated workspace: the source scan is recursive, so serving "."
# here would sweep up every scratch project above.
mkdir -p fleet
cp hist/util.mc hist/main.mc fleet/
"$SCBUILDD" fleet --quiet --metrics-out=metrics.prom \
            --report-json=dreport.json &
DAEMON_PID=$!
for _ in $(seq 50); do
  [ -S fleet/out/.daemon.sock ] && break
  sleep 0.1
done
[ -S fleet/out/.daemon.sock ] || {
  echo "FAIL: daemon socket never appeared"; exit 1; }
"$SCBUILD" fleet --daemon --quiet

# daemon-top renders the live service/cache gauges from the metrics
# verb plus the status verb — one frame, no daemon restart.
"$SCBUILD" fleet daemon-top > top.log
grep -q "queue depth" top.log || {
  echo "FAIL: daemon-top missing queue depth"; cat top.log; exit 1; }
# Its cache lines read build.* samples under their derived names; a
# stale name would make the scan-cache line silently disappear.
grep -q "scan cache:" top.log || {
  echo "FAIL: daemon-top missing scan cache"; cat top.log; exit 1; }

"$SCBUILD" fleet --daemon-shutdown
wait "$DAEMON_PID" || { echo "FAIL: daemon exited nonzero"; exit 1; }
DAEMON_PID=""
python3 - <<'PYEOF' || { echo "FAIL: metrics export invalid"; exit 1; }
import json
# Parse the Prometheus text exposition dump.
samples = {}
for line in open("metrics.prom"):
    line = line.strip()
    if not line or line.startswith("#"):
        continue
    name, value = line.rsplit(" ", 1)
    samples[name] = float(value)
assert samples, "metrics.prom carries no samples"
assert samples.get("scbuild_build_builds_total", 0) >= 1, samples
assert "scbuild_daemon_queue_depth" in samples, samples
# Every counter in the JSON report's registry dump must appear in the
# Prometheus text under its mapped name with the same value.
report = json.load(open("dreport.json"))
for name, value in report["metrics"]["counters"].items():
    prom = "scbuild_" + name.replace(".", "_") + "_total"
    assert prom in samples, f"{prom} missing from metrics.prom"
    assert samples[prom] == value, (prom, samples[prom], value)
PYEOF

# One build fact, one value: for the daemon's single build above, every
# integer fact in the fact table of docs/OBSERVABILITY.md must read the
# same in --report-json, in the ledger's newest record and in the
# Prometheus text, and the table must list every build.* fact metric.
export FACTS_DOC="$SCENDIR/../../docs/OBSERVABILITY.md"
python3 - <<'PYEOF' || { echo "FAIL: build facts disagree"; exit 1; }
import json, os, re
doc = open(os.environ["FACTS_DOC"]).read()
facts = re.findall(r"^\| `[A-Za-z.]+` \| (counter|gauge|time) \| [^|]+ \| "
                   r"`([a-z_.]+)` \| `(build\.[a-z_]+)` \|", doc, re.M)
assert len(facts) > 30, f"fact table not found ({len(facts)} rows)"
report = json.load(open("dreport.json"))
ledger = [json.loads(l) for l in open("fleet/out/history.jsonl")][-1]
samples = {}
for line in open("metrics.prom"):
    if line.strip() and not line.startswith("#"):
        name, value = line.rsplit(" ", 1)
        samples[name] = float(value)

def at(doc, path, default=None):
    for part in path.split("."):
        if part not in doc and default is not None:
            return default
        doc = doc[part]
    return doc

checked = 0
for kind, path, metric in facts:
    if kind == "time":
        continue  # Report, ledger and registry round times differently.
    want = int(at(report, path))
    # The ledger writes `passes` as `skip` and omits the zero-valued
    # facts that schema 1 did not carry.
    ledger_path = re.sub(r"^passes\.", "skip.", path)
    assert int(at(ledger, ledger_path, 0)) == want, (path, ledger_path, want)
    prom = "scbuild_" + metric.replace(".", "_")
    prom += "_total" if kind == "counter" else ""
    assert samples[prom] == want, (path, prom, samples[prom], want)
    checked += 1
derived = {"build.builds", "build.warnings", "build.history_appends"}
published = {n for n in list(report["metrics"]["counters"]) +
             list(report["metrics"]["gauges"])
             if n.startswith("build.")} - derived
listed = {m for _, _, m in facts}
assert published == listed, published ^ listed
assert checked > 20, checked
PYEOF

# sccached: the same metrics verb + the shared "metrics" key in
# --stats --json (the shape scbuildd --report-json uses). A fresh
# store — the default cache dir would resurrect the earlier section's
# entries and turn every put into a hit.
"$SCCACHED" --socket="$CACHE_SOCK" --cache-dir="$DIR/cache-fleet" --quiet &
CACHE_PID=$!
for _ in $(seq 50); do
  [ -S "$CACHE_SOCK" ] && break
  sleep 0.1
done
[ -S "$CACHE_SOCK" ] || { echo "FAIL: sccached socket never appeared"; exit 1; }
rm -rf ws1/out
"$SCBUILD" ws1 --quiet --remote-cache="$CACHE_SOCK"
"$SCCACHED" --socket="$CACHE_SOCK" --metrics > cmetrics.prom
grep -q "scbuild_cache_" cmetrics.prom || {
  echo "FAIL: sccached --metrics has no cache samples"; cat cmetrics.prom
  exit 1; }
"$SCCACHED" --socket="$CACHE_SOCK" --stats --json > cstats.json
python3 - <<'PYEOF' || { echo "FAIL: sccached stats JSON invalid"; exit 1; }
import json
doc = json.load(open("cstats.json"))
assert doc["schema"] == "sccached-stats" and doc["schema_version"] == 1
assert doc["puts"] >= 1, doc
# The shared registry key: same shape as scbuildd --report-json.
assert "counters" in doc["metrics"] and "gauges" in doc["metrics"]
assert doc["metrics"]["counters"].get("cache.puts", 0) == doc["puts"], doc
PYEOF

# Every stat is in the registry from the first publication on, zeros
# included: each top-level counter equals its cache.* counter, and each
# level its cache.* gauge.
python3 - <<'PYEOF' || { echo "FAIL: sccached registry misses a stat"; exit 1; }
import json
doc = json.load(open("cstats.json"))
counters = {"gets", "hits", "misses", "puts", "touches", "evictions",
            "corrupt_dropped"}
for key, value in doc.items():
    if key in ("schema", "schema_version", "metrics"):
        continue
    kind = "counters" if key in counters else "gauges"
    got = doc["metrics"][kind].get("cache." + key)
    assert got == value, (kind, key, got, value)
PYEOF
"$SCCACHED" --socket="$CACHE_SOCK" --shutdown
wait "$CACHE_PID" || { echo "FAIL: sccached exited nonzero"; exit 1; }
CACHE_PID=""

# --- scworkload: scenario replay + dependency verification ------------------

# The bundled clean scenario replays end to end: every phase builds,
# the dependency verifier finds nothing, and the incremental artifacts
# byte-match a scratch build after every phase.
mkdir -p replay-clean
"$SCWORKLOAD" run "$SCENDIR/refactor-storm.scen" --dir replay-clean \
  -j 4 --quiet --report-json=replay.json || {
  echo "FAIL: clean scenario replay failed"; exit 1; }
python3 - <<'PYEOF' || { echo "FAIL: replay report invalid"; exit 1; }
import json
doc = json.load(open("replay.json"))
assert doc["schema"] == "scworkload-replay" and doc["schema_version"] == 1
assert doc["ok"] is True, doc
assert doc["findings"] == [], doc
assert all(p["build_ok"] and p["scratch_match"] for p in doc["phases"]), doc
PYEOF

# A scenario spec with a deliberately planted dependency error makes
# the replay fail (exit 2) with a dep-missing reason naming TU + path,
# and `scbuild --verify-deps` on the sabotaged tree exits 6.
mkdir -p replay-planted
set +e
"$SCWORKLOAD" run "$SCENDIR/planted-missing.scen" --dir replay-planted \
  --quiet 2> planted.err
PLANTED_EXIT=$?
set -e
[ "$PLANTED_EXIT" = 2 ] || {
  echo "FAIL: planted scenario exited $PLANTED_EXIT, want 2"; exit 1; }
grep -q "dep-missing: .*\.mc reads '.*\.mc'" planted.err || {
  echo "FAIL: no dep-missing finding:"; cat planted.err; exit 1; }
set +e
"$SCBUILD" replay-planted --verify-deps --quiet 2> verify.err
VERIFY_EXIT=$?
set -e
[ "$VERIFY_EXIT" = 6 ] || {
  echo "FAIL: scbuild --verify-deps exited $VERIFY_EXIT, want 6"; exit 1; }
grep -q "dep-missing: " verify.err || {
  echo "FAIL: scbuild --verify-deps printed no finding:"; cat verify.err
  exit 1; }

# On a healthy tree the same flag verifies clean (exit 0).
"$SCBUILD" replay-clean --verify-deps --quiet || {
  echo "FAIL: --verify-deps failed on a clean tree"; exit 1; }

# `scworkload check` round-trips the spec through the parser.
"$SCWORKLOAD" check "$SCENDIR/refactor-storm.scen" > normalized.scen
grep -q "scenario: refactor-storm" normalized.scen || {
  echo "FAIL: scworkload check did not echo the spec"; exit 1; }

# --via-daemon asks the daemon for the replay's own configuration
# (ExactSkip at the replay's -O), so a daemon started with --exact
# serves every phase build and the scratch comparison holds.
mkdir -p replay-daemon
"$SCBUILDD" replay-daemon --exact --quiet &
DAEMON_PID=$!
for _ in $(seq 50); do
  [ -S replay-daemon/out/.daemon.sock ] && break
  sleep 0.1
done
[ -S replay-daemon/out/.daemon.sock ] || {
  echo "FAIL: daemon socket never appeared"; exit 1; }
"$SCWORKLOAD" run "$SCENDIR/refactor-storm.scen" --dir replay-daemon \
  --via-daemon --quiet || { echo "FAIL: replay through the daemon failed"; exit 1; }
"$SCBUILD" replay-daemon --daemon-shutdown
wait "$DAEMON_PID" || { echo "FAIL: daemon exited nonzero"; exit 1; }
DAEMON_PID=""

#===--- --run arguments and an auto-started daemon ------------------------===#

# --run arguments are strict signed integers: a bad one is a usage
# error that quotes it, with or without --daemon; a good one reaches
# main().
mkdir -p runargs
echo 'fn main(a: int) -> int { return a + 1; }' > runargs/main.mc
for MODE in "" --daemon; do
  set +e
  "$SCBUILD" runargs --quiet $MODE --run abc 2> runargs.err
  RC=$?
  set -e
  [ "$RC" = 1 ] && grep -q "scbuild: error: .*'abc'" runargs.err || {
    echo "FAIL: --run abc ($MODE) exited $RC: $(cat runargs.err)"; exit 1; }
done
set +e
"$SCBUILD" runargs --quiet --run 41
RC=$?
set -e
[ "$RC" = 42 ] || { echo "FAIL: --run 41 exited $RC, want 42"; exit 1; }

# --daemon=auto-start launches a scbuildd with the build's own flags:
# the launching build runs through it, and a request for another
# configuration (the default HeuristicSkip at -O2) is refused.
mkdir -p autostart
cp hist/util.mc hist/main.mc autostart/
OUT="$("$SCBUILD" autostart --daemon=auto-start --exact -O1 --quiet --run)"
[ "$OUT" = "42" ] || { echo "FAIL: auto-started daemon build got '$OUT'"; exit 1; }
STATUS="$("$SCBUILD" autostart --daemon-status)"
echo "$STATUS" | grep -q "builds served 1" || {
  echo "FAIL: auto-started daemon did not serve the build: $STATUS"; exit 1; }
# It idles out on its own, so it cannot keep out/.lock forever.
AUTO_PID="$(echo "$STATUS" | sed -n 's/^scbuildd: pid \([0-9]*\).*/\1/p' | head -1)"
[ -n "$AUTO_PID" ] && tr '\0' '\n' < "/proc/$AUTO_PID/cmdline" |
  grep -q '^--idle-timeout-ms=' || {
  echo "FAIL: auto-started daemon (pid '$AUTO_PID') has no idle timeout"; exit 1; }
set +e
"$SCBUILD" autostart --daemon --quiet 2> autostart.err
RC=$?
set -e
[ "$RC" = 1 ] && grep -q "different compiler configuration" autostart.err || {
  echo "FAIL: mismatched request exited $RC: $(cat autostart.err)"; exit 1; }
"$SCBUILD" autostart --daemon-shutdown
for _ in $(seq 50); do
  [ -e autostart/out/.daemon.sock ] || break
  sleep 0.1
done
[ ! -e autostart/out/.daemon.sock ] || {
  echo "FAIL: auto-started daemon left its socket"; exit 1; }

echo "tools smoke: OK"
