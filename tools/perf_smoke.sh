#!/usr/bin/env bash
# perf_smoke.sh — coarse parallel-vs-serial throughput gate for CI.
#
# Runs explorer_cli on dac5 (the smallest task big enough that exploration
# time dominates engine setup) with the serial engine, and with the
# work-stealing engine and the default (auto) engine at 4 threads,
# best-of-3 after a warmup, and fails if either 4-thread run's nodes/sec
# falls below MIN_RATIO x serial. This is a 1.0x regression gate on the
# parallel hot path, not a microbenchmark — scheduler noise on shared CI
# runners makes tighter ratios flaky.
#
# On a single-core host the gate is skipped (exit 0 with a warning): with
# every thread timesharing one core, parallel throughput measures per-node
# overhead rather than speedup, and a ">= serial" gate would fail for
# reasons no code change can fix. The measured ratio is still printed so
# the log records what the host saw.
#
# A second gate bounds observability overhead: a run with a heartbeat
# sampler attached must stay within MAX_OBS_OVERHEAD_PCT of the
# LBSA_OBS_DISABLED baseline (docs/observability.md, "Overhead"). The
# engines add deltas to the run's Progress at quiescence points and the
# sampler reads them, so the expected cost is well under a percent. Short
# runs cannot resolve 2% on a shared host, so the gate compares paired,
# interleaved samples of at least a second each and gates the median of the
# per-pair overheads.
#
# A third gate asserts that symmetry reduction pays at wall-clock: the same
# task explored serially with --reduction symmetry must finish strictly
# faster than with --reduction none (docs/checking.md, "State-space
# reduction"). Serial and single-threaded on both sides, so this gate runs
# on single-core hosts too. It protects the pruned canonical search and
# orbit cache from regressing back to "reduction costs more than it saves".
#
# Usage: tools/perf_smoke.sh [build-dir]
#   MIN_RATIO             parallel gate threshold (default 1.0)
#   PERF_TASK             task to run (default dac5)
#   MAX_OBS_OVERHEAD_PCT  heartbeat overhead gate on the median (default 2)
#   SYM_TASK              symmetry-pays gate task (default dac5-sym; must
#                         have a nontrivial symmetry group — plain dac5 has
#                         distinct inputs, so its group is trivial and
#                         reduction=symmetry is pure overhead there)
set -euo pipefail

BUILD_DIR="${1:-build}"
EXPLORER="$BUILD_DIR/tools/explorer_cli"
MIN_RATIO="${MIN_RATIO:-1.0}"
PERF_TASK="${PERF_TASK:-dac5}"

if [[ ! -x "$EXPLORER" ]]; then
  echo "error: $EXPLORER not found or not executable; build first" >&2
  exit 1
fi

CORES="$(nproc 2>/dev/null || echo 1)"

# best_rate ENGINE THREADS -> best nodes/sec of 3 timed runs (1 warmup).
best_rate() {
  local engine="$1" threads="$2" best=0 rate
  "$EXPLORER" "$PERF_TASK" --engine "$engine" --threads "$threads" \
      > /dev/null
  for _ in 1 2 3; do
    rate="$("$EXPLORER" "$PERF_TASK" --engine "$engine" \
                --threads "$threads" \
            | sed -nE 's/^ *elapsed [0-9.]+ s, ([0-9]+) nodes\/s$/\1/p')"
    if (( rate > best )); then best="$rate"; fi
  done
  echo "$best"
}

ratio() {
  awk -v p="$1" -v s="$2" 'BEGIN { printf("%.2f", (s > 0) ? p / s : 0) }'
}

SERIAL="$(best_rate serial 1)"
WORKSTEALING="$(best_rate workstealing 4)"
AUTO="$(best_rate auto 4)"
WS_RATIO="$(ratio "$WORKSTEALING" "$SERIAL")"
AUTO_RATIO="$(ratio "$AUTO" "$SERIAL")"
echo "perf smoke ($PERF_TASK, $CORES cores):" \
     "serial=$SERIAL workstealing(t4)=$WORKSTEALING auto(t4)=$AUTO" \
     "workstealing/serial=${WS_RATIO}x auto/serial=${AUTO_RATIO}x"

if (( CORES < 2 )); then
  # The overhead gate below still runs: it compares like against like, so a
  # timeshared core cancels out of the ratio.
  echo "warn: single-core host; parallel-vs-serial gate skipped" >&2
else
  for gate in "workstealing $WS_RATIO" "auto $AUTO_RATIO"; do
    read -r engine r <<<"$gate"
    if awk -v r="$r" -v m="$MIN_RATIO" 'BEGIN { exit !(r < m) }'; then
      echo "error: $engine (t4) is ${r}x serial (< ${MIN_RATIO}x)" >&2
      exit 1
    fi
  done
  echo "ok: workstealing and auto (t4) >= ${MIN_RATIO}x serial"
fi

# --- heartbeat-overhead gate ------------------------------------------------
MAX_OBS_OVERHEAD_PCT="${MAX_OBS_OVERHEAD_PCT:-2}"
# dac6 at 4 threads runs about 0.75 s on a 4-core host, so a sample of 3
# runs spans over 2 s.
OBS_TASK=dac6
OBS_PAIRS=9
OBS_REPS=3
HB_TMP="$(mktemp -d)"
trap 'rm -rf "$HB_TMP"' EXIT INT TERM

# sample_obs MODE -> summed elapsed seconds of OBS_REPS back-to-back runs at
# 4 threads, with a heartbeat sampler ticking every 0.1s (mode=heartbeat,
# fresh stream per run) or the runtime kill switch set (mode=disabled).
sample_obs() {
  for ((rep = 0; rep < OBS_REPS; ++rep)); do
    if [[ "$1" == heartbeat ]]; then
      rm -f "$HB_TMP/hb.jsonl"
      "$EXPLORER" "$OBS_TASK" --threads 4 \
          --heartbeat-out "$HB_TMP/hb.jsonl" --heartbeat-every 0.1
    else
      LBSA_OBS_DISABLED=1 "$EXPLORER" "$OBS_TASK" --threads 4
    fi
  done | awk '/^ *elapsed / { s += $2 } END { printf("%.6f\n", s) }'
}

# One warmup run per mode, then OBS_PAIRS pairs alternating which side runs
# first, so host drift within a pair cancels over the pairs instead of
# always favoring one side. Prints one overhead percentage per pair.
OBS_REPS=1 sample_obs heartbeat > /dev/null
OBS_REPS=1 sample_obs disabled > /dev/null
declare -A took
for ((pair = 0; pair < OBS_PAIRS; ++pair)); do
  order=(heartbeat disabled)
  if (( pair % 2 )); then order=(disabled heartbeat); fi
  for mode in "${order[@]}"; do took[$mode]="$(sample_obs "$mode")"; done
  awk -v h="${took[heartbeat]}" -v o="${took[disabled]}" \
      'BEGIN { printf("%.4f\n", (h - o) * 100.0 / o) }'
done > "$HB_TMP/overheads"
# Median and quartiles, interpolated between order statistics.
read -r MEDIAN Q1 Q3 < <(sort -g "$HB_TMP/overheads" | awk '{ v[NR] = $1 }
  function q(p,  h, l) {
    h = 1 + (NR - 1) * p; l = int(h)
    return v[l] + (h - l) * (v[l + 1] - v[l])
  }
  END { printf("%.2f %.2f %.2f\n", q(0.5), q(0.25), q(0.75)) }')
echo "obs overhead ($OBS_TASK t4, $OBS_PAIRS pairs x $OBS_REPS runs):" \
     "median=${MEDIAN}% iqr=$(awk -v a="$Q1" -v b="$Q3" \
                                  'BEGIN { printf("%.2f", b - a) }')%" \
     "(q1=${Q1}% q3=${Q3}%)"
if awk -v x="$MEDIAN" -v m="$MAX_OBS_OVERHEAD_PCT" \
       'BEGIN { exit !(x > m) }'; then
  echo "error: heartbeat sampling costs ${MEDIAN}% wall time (median)" \
       "(> ${MAX_OBS_OVERHEAD_PCT}%)" >&2
  exit 1
fi
echo "ok: heartbeat overhead median <= ${MAX_OBS_OVERHEAD_PCT}%"

# --- symmetry-pays gate -----------------------------------------------------
SYM_TASK="${SYM_TASK:-dac5-sym}"

# best_elapsed REDUCTION -> smallest elapsed seconds of 3 timed runs
# (1 warmup), serial engine, one thread. The gate is on wall-clock, not
# nodes/sec: the two reductions explore different numbers of nodes, so only
# elapsed time compares them fairly.
best_elapsed() {
  local reduction="$1" best="" t
  "$EXPLORER" "$SYM_TASK" --engine serial --threads 1 \
      --reduction "$reduction" > /dev/null
  for _ in 1 2 3; do
    t="$("$EXPLORER" "$SYM_TASK" --engine serial --threads 1 \
             --reduction "$reduction" \
         | sed -nE 's/^ *elapsed ([0-9.]+) s, [0-9]+ nodes\/s$/\1/p')"
    if [[ -z "$best" ]] || awk -v t="$t" -v b="$best" \
           'BEGIN { exit !(t < b) }'; then
      best="$t"
    fi
  done
  echo "$best"
}

NONE_S="$(best_elapsed none)"
SYM_S="$(best_elapsed symmetry)"
echo "sym cost ($SYM_TASK, serial t1): none=${NONE_S}s symmetry=${SYM_S}s"
if awk -v s="$SYM_S" -v n="$NONE_S" 'BEGIN { exit !(s >= n) }'; then
  echo "error: reduction=symmetry (${SYM_S}s) is not faster than" \
       "reduction=none (${NONE_S}s)" >&2
  exit 1
fi
echo "ok: symmetry reduction beats reduction=none on wall-clock"
