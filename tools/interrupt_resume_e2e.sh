#!/usr/bin/env bash
# interrupt_resume_e2e.sh — end-to-end check of the long-run lifecycle
# (docs/checking.md, "Long runs") through the real CLI binaries:
#
#   1. explorer: deterministic interrupt (--max-levels) with a checkpoint,
#      exit 4, then --resume to a final graph identical to an uninterrupted
#      run — serial and work-stealing, with and without reduction; and
#      periodic checkpoints (--checkpoint-every): the work-stealing engine's
#      last checkpoint is byte-identical to the serial engine's and resumes
#      to the uninterrupted graph.
#   2. fuzzer: coverage campaign interrupted at a run boundary
#      (--stop-after-runs), exit 4, then --resume to a byte-identical
#      final report.
#   3. SIGINT smoke: a real ^C against a running explorer produces either a
#      clean finish (0) or a resumable interrupt (4) — never a crash — and
#      an interrupt leaves a loadable checkpoint behind.
#   4. Stale/corrupt checkpoints exit 1 with a diagnostic, not a wrong graph.
#
# Every interrupted run also carries the full observability flag set
# (--metrics-json --trace-out --heartbeat-out): an exit-4 run must finalize
# and atomically write ALL of its artifacts, and a resumed run appending to
# the same heartbeat stream must validate as one continuous stream
# (docs/observability.md, "Resume continuity").
#
# Usage: tools/interrupt_resume_e2e.sh [build-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
EXPLORER="$BUILD_DIR/tools/explorer_cli"
FUZZER="$BUILD_DIR/tools/fuzz_shrink_cli"
CHECK="$BUILD_DIR/tools/report_check"
for bin in "$EXPLORER" "$FUZZER" "$CHECK"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not found or not executable; build first" >&2
    exit 1
  fi
done

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT INT TERM
fail() { echo "FAIL: $*" >&2; exit 1; }

# Graph shape line ("task: N nodes, M transitions, depth D...") from a run's
# stdout — the cross-run comparison key. Resumed runs must reproduce the
# uninterrupted graph exactly; metrics counters intentionally differ (they
# count per-session work), so the comparison uses the shape, not the report.
shape() { sed -n '1p' "$1"; }

echo "== explorer interrupt/resume =="
for engine_args in "--engine serial" "--engine workstealing --threads 4"; do
  for red in none both; do
    # shellcheck disable=SC2086  # engine_args is intentionally word-split
    "$EXPLORER" dac4-sym $engine_args --reduction "$red" \
        > "$TMP/base.txt" || fail "baseline run failed ($engine_args $red)"
    rc=0
    HB="$TMP/hb-${engine_args//[^a-z0-9]/}-$red.jsonl"
    # shellcheck disable=SC2086
    "$EXPLORER" dac4-sym $engine_args --reduction "$red" --max-levels 2 \
        --checkpoint "$TMP/e.ckpt" --metrics-json "$TMP/partial.json" \
        --trace-out "$TMP/partial.trace.json" \
        --heartbeat-out "$HB" --heartbeat-every 0.02 \
        > "$TMP/part.txt" || rc=$?
    [[ $rc -eq 4 ]] || fail "interrupt expected exit 4, got $rc"
    grep -q '(interrupted)' "$TMP/part.txt" || fail "no interrupted marker"
    # Satellite contract: an exit-4 run finalizes every artifact it was
    # asked for — a valid run report, a valid trace, a valid heartbeat
    # stream — not torn or missing files.
    "$CHECK" run-report "$TMP/partial.json" > /dev/null \
        || fail "partial RunReport invalid"
    "$CHECK" trace "$TMP/partial.trace.json" > /dev/null \
        || fail "partial trace invalid"
    "$CHECK" heartbeat "$HB" > /dev/null \
        || fail "partial heartbeat stream invalid"
    # shellcheck disable=SC2086
    "$EXPLORER" dac4-sym $engine_args --reduction "$red" \
        --resume "$TMP/e.ckpt" --metrics-json "$TMP/resumed.json" \
        --heartbeat-out "$HB" --heartbeat-every 0.02 \
        > "$TMP/res.txt" || fail "resume failed ($engine_args $red)"
    [[ "$(shape "$TMP/base.txt")" == "$(shape "$TMP/res.txt")" ]] \
        || fail "resumed graph differs ($engine_args $red):
  base:    $(shape "$TMP/base.txt")
  resumed: $(shape "$TMP/res.txt")"
    "$CHECK" run-report "$TMP/resumed.json" > /dev/null \
        || fail "resumed RunReport invalid"
    # The resumed run appended to the interrupted run's stream: same run_id,
    # continued sequence numbers, cumulative counters still monotone.
    "$CHECK" heartbeat "$HB" > /dev/null \
        || fail "heartbeat splice across resume invalid"
    runs_ids="$(grep -o '"run_id":"[a-f0-9]*"' "$HB" | sort -u | wc -l)"
    [[ "$runs_ids" == 1 ]] || fail "run_id changed across resume"
    finals="$(grep -c '"final":true' "$HB")"
    [[ "$finals" == 2 ]] \
        || fail "expected 2 final lines (interrupt + resume), got $finals"
  done
done
echo "ok: resumed graphs identical (2 engines x 2 reductions);" \
     "exit-4 artifacts + heartbeat splices all validate"

echo "== explorer periodic checkpoints =="
"$EXPLORER" dac5 > "$TMP/pbase.txt" || fail "baseline dac5 run failed"
for engine_args in "--engine serial" "--engine workstealing --threads 4"; do
  tag="${engine_args//[^a-z0-9]/}"
  # shellcheck disable=SC2086
  "$EXPLORER" dac5 $engine_args --checkpoint "$TMP/p-$tag.ckpt" \
      --checkpoint-every 2 > "$TMP/p-$tag.txt" \
      || fail "periodic-checkpoint run failed ($engine_args)"
  [[ "$(shape "$TMP/pbase.txt")" == "$(shape "$TMP/p-$tag.txt")" ]] \
      || fail "periodic-checkpoint run changed the graph ($engine_args)"
done
cmp "$TMP/p-engineserial.ckpt" "$TMP/p-engineworkstealingthreads4.ckpt" \
    || fail "work-stealing periodic checkpoint differs from serial's"
"$EXPLORER" dac5 --engine workstealing --threads 4 \
    --resume "$TMP/p-engineworkstealingthreads4.ckpt" > "$TMP/pres.txt" \
    || fail "resume from a periodic checkpoint failed"
[[ "$(shape "$TMP/pbase.txt")" == "$(shape "$TMP/pres.txt")" ]] \
    || fail "graph resumed from a periodic checkpoint differs"
echo "ok: periodic checkpoints byte-identical across engines and resumable"

echo "== fuzzer interrupt/resume =="
FUZZ_ARGS=(dac3 --coverage --runs 300 --seed 9)
"$FUZZER" "${FUZZ_ARGS[@]}" > "$TMP/fbase.txt" || fail "baseline fuzz failed"
rc=0
"$FUZZER" "${FUZZ_ARGS[@]}" --stop-after-runs 100 \
    --checkpoint "$TMP/f.ckpt" > "$TMP/fpart.txt" || rc=$?
[[ $rc -eq 4 ]] || fail "fuzz interrupt expected exit 4, got $rc"
"$FUZZER" "${FUZZ_ARGS[@]}" --resume "$TMP/f.ckpt" > "$TMP/fres.txt" \
    || fail "fuzz resume failed"
diff "$TMP/fbase.txt" "$TMP/fres.txt" > /dev/null \
    || fail "resumed fuzz report differs from uninterrupted run"
echo "ok: resumed fuzz report byte-identical"

echo "== SIGINT smoke =="
# dac6 (~250k nodes, a second or two) runs long enough that a ^C shortly
# after launch lands mid-exploration on any machine fast or slow. Both
# outcomes are legal — finished before the signal (0) or interrupted at a
# level boundary (4); anything else is a bug.
rc=0
"$EXPLORER" dac6 --checkpoint "$TMP/s.ckpt" \
    --metrics-json "$TMP/sig.run.json" --trace-out "$TMP/sig.trace.json" \
    --heartbeat-out "$TMP/sig.hb.jsonl" --heartbeat-every 0.05 \
    > "$TMP/sig.txt" &
pid=$!
sleep 0.2
kill -INT "$pid" 2>/dev/null || true
wait "$pid" || rc=$?
# Whether the run finished (0) or was interrupted (4), every requested
# artifact must exist and validate — a ^C must never leave torn JSON.
"$CHECK" run-report "$TMP/sig.run.json" > /dev/null \
    || fail "RunReport after SIGINT invalid"
"$CHECK" trace "$TMP/sig.trace.json" > /dev/null \
    || fail "trace after SIGINT invalid"
"$CHECK" heartbeat "$TMP/sig.hb.jsonl" > /dev/null \
    || fail "heartbeat stream after SIGINT invalid"
if [[ $rc -eq 4 ]]; then
  [[ -f "$TMP/s.ckpt" ]] || fail "interrupted without a checkpoint on disk"
  "$EXPLORER" dac6 --resume "$TMP/s.ckpt" > "$TMP/sigres.txt" \
      || fail "resume after SIGINT failed"
  "$EXPLORER" dac6 > "$TMP/sigbase.txt" || fail "baseline run failed"
  [[ "$(shape "$TMP/sigbase.txt")" == "$(shape "$TMP/sigres.txt")" ]] \
      || fail "graph after SIGINT+resume differs from uninterrupted run"
  echo "ok: SIGINT -> exit 4, checkpoint resumes to identical graph"
elif [[ $rc -eq 0 ]]; then
  echo "ok: run finished before the signal landed (exit 0)"
else
  fail "SIGINT produced exit $rc (want 0 or 4)"
fi

echo "== stale/corrupt checkpoints rejected =="
rc=0
"$EXPLORER" dac4-sym --max-levels 1 --checkpoint "$TMP/stale.ckpt" \
    > /dev/null || rc=$?
[[ $rc -eq 4 ]] || fail "checkpoint setup expected exit 4, got $rc"
rc=0
"$EXPLORER" dac3-sym --resume "$TMP/stale.ckpt" > /dev/null \
    2> "$TMP/stale.err" || rc=$?
[[ $rc -eq 1 ]] || fail "wrong-task resume expected exit 1, got $rc"
grep -qi "precondition\|mismatch\|does not match" "$TMP/stale.err" \
    || fail "wrong-task resume error lacks a diagnostic"
head -c 100 "$TMP/stale.ckpt" > "$TMP/trunc.ckpt"
rc=0
"$EXPLORER" dac4-sym --resume "$TMP/trunc.ckpt" > /dev/null 2>&1 || rc=$?
[[ $rc -eq 1 ]] || fail "corrupt resume expected exit 1, got $rc"
echo "ok: stale and corrupt checkpoints rejected with exit 1"

echo "PASS: interrupt/resume e2e"
