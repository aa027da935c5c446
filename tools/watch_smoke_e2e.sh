#!/usr/bin/env bash
# watch_smoke_e2e.sh — the live-telemetry loop end to end through the real
# binaries (docs/observability.md, "Watching a run"): explorer_cli streams
# --heartbeat-out while lbsa_watch tails the file *concurrently*, exits on
# the final heartbeat, and writes a --summary-json digest. `report_check
# heartbeat` then validates both artifacts, and the digest's totals are
# cross-checked against the stream's last line.
# A stream whose task drifts mid-stream must make lbsa_watch exit 1.
#
# Usage: tools/watch_smoke_e2e.sh [build-dir]
#   WATCH_TASK   task to run (default dac5 — long enough for the watcher to
#                genuinely tail a live file, still sub-second on CI)
set -euo pipefail

BUILD_DIR="${1:-build}"
EXPLORER="$BUILD_DIR/tools/explorer_cli"
WATCH="$BUILD_DIR/tools/lbsa_watch"
CHECK="$BUILD_DIR/tools/report_check"
WATCH_TASK="${WATCH_TASK:-dac5}"

for bin in "$EXPLORER" "$WATCH" "$CHECK"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not found or not executable; build first" >&2
    exit 1
  fi
done

TMP="$(mktemp -d)"
EXPLORER_PID=""
cleanup() {
  [[ -n "$EXPLORER_PID" ]] && kill "$EXPLORER_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

HB="$TMP/heartbeat.jsonl"
SUMMARY="$TMP/summary.json"

# Start the watcher BEFORE the producer: it must cope with the stream file
# not existing yet, then pick it up and follow.
"$WATCH" "$HB" --summary-json "$SUMMARY" --timeout-s 120 --quiet &
WATCH_PID=$!

# A fast heartbeat interval so even a sub-second exploration yields a
# multi-line stream for the watcher to chew through.
"$EXPLORER" "$WATCH_TASK" --threads 2 \
    --heartbeat-out "$HB" --heartbeat-every 0.02 \
    --metrics-json "$TMP/run.json" > "$TMP/explorer.out" &
EXPLORER_PID=$!

wait "$EXPLORER_PID"
EXPLORER_PID=""
if ! wait "$WATCH_PID"; then
  echo "error: lbsa_watch did not exit 0 on the final heartbeat" >&2
  exit 1
fi

echo "--- artifacts"
"$CHECK" heartbeat "$HB" "$SUMMARY"
"$CHECK" run-report "$TMP/run.json"

# The digest must agree with the stream it summarizes.
last_line="$(tail -n 1 "$HB")"
for field in run_id nodes_total transitions_total; do
  stream_value="$(sed -nE "s/.*\"$field\":\"?([a-z0-9]+)\"?[,}].*/\1/p" \
                  <<<"$last_line")"
  digest_value="$(sed -nE "s/.*\"$field\":\"?([a-z0-9]+)\"?[,}].*/\1/p" \
                  < "$SUMMARY")"
  if [[ -z "$stream_value" || "$stream_value" != "$digest_value" ]]; then
    echo "error: digest $field=$digest_value != stream $field=$stream_value" \
         >&2
    exit 1
  fi
done
grep -q '"final_seen":true' "$SUMMARY" || {
  echo "error: digest does not record the final heartbeat" >&2
  exit 1
}

# At least two lines: the watcher really followed a stream, not a one-shot.
lines="$(wc -l < "$HB")"
if (( lines < 2 )); then
  echo "error: expected a multi-line stream, got $lines line(s)" >&2
  exit 1
fi

# The watcher applies the same stream checks as `report_check heartbeat`: a
# stream whose task changes mid-stream must be refused even when it ends in
# a final line.
DRIFT="$TMP/drift.jsonl"
head -n 1 "$HB" > "$DRIFT"
sed -n 2p "$HB" |
  sed -E 's/"task":"[^"]*"/"task":"drifted"/; s/"final":false/"final":true/' \
  >> "$DRIFT"
if "$WATCH" "$DRIFT" --timeout-s 5 --quiet 2> "$TMP/drift.err"; then
  echo "error: lbsa_watch accepted a stream whose task changed" >&2
  exit 1
fi
grep -q "task changed mid-stream" "$TMP/drift.err" || {
  echo "error: lbsa_watch rejected the drifted stream for another reason:" >&2
  cat "$TMP/drift.err" >&2
  exit 1
}
echo "ok: watched $lines heartbeats live; stream + digest validate;" \
     "task drift refused"
