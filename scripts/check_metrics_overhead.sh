#!/usr/bin/env bash
# Telemetry overhead budget check (DESIGN.md "Observability"): stepping
# with metrics enabled must stay within MAX_OVERHEAD_PCT (default 2%) of
# the same steps with telemetry off, and so must stepping with the
# attribution profiler on top (per-class network attribution, per-link
# loads and task-graph critical paths; all step-scale feeds).
#
# The profiling-OFF configuration must pay nothing per message: every
# profiler call site gates on obs::profiling_enabled(), a single relaxed
# atomic load, so the telemetry-on / profiling-off configuration measures
# that gate too — a regression that does work behind the gate shows up
# here as telemetry overhead.
#
# Methodology: one process (bench/bench_telemetry_overhead.cpp) replays
# the same checkpointed block of steps of the examples/configs/
# water_machine.cfg system under each configuration in turn, round after
# round, and reports each configuration's median block-time ratio to the
# telemetry-off block of the same round.  Separate processes swing by
# ±10-20% on a shared host and cannot resolve 2%; paired in-process
# blocks of identical work can.  Tracing is deliberately left off: the
# budget covers always-on metrics; trace recording is opt-in and
# buffered.
#
# Usage: scripts/check_metrics_overhead.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
MAX_OVERHEAD_PCT="${MAX_OVERHEAD_PCT:-2.0}"
BENCH_BIN="$BUILD_DIR/bench/bench_telemetry_overhead"

if [[ ! -x "$BENCH_BIN" ]]; then
  echo "error: $BENCH_BIN not found — build the default preset first" >&2
  exit 2
fi

echo "measuring: $BENCH_BIN (in-process A/B)"
out=$("$BENCH_BIN")
echo "$out" | sed '$d'
read -r overhead prof_overhead <<< "$(echo "$out" | tail -n 1)"
echo "telemetry on overhead: ${overhead}%   profiling on overhead: ${prof_overhead}%"

status=0
if awk -v o="$overhead" -v cap="$MAX_OVERHEAD_PCT" 'BEGIN {exit !(o > cap)}'
then
  echo "FAIL: telemetry overhead ${overhead}% exceeds budget ${MAX_OVERHEAD_PCT}%" >&2
  status=1
fi
if awk -v o="$prof_overhead" -v cap="$MAX_OVERHEAD_PCT" \
    'BEGIN {exit !(o > cap)}'
then
  echo "FAIL: profiling overhead ${prof_overhead}% exceeds budget ${MAX_OVERHEAD_PCT}%" >&2
  status=1
fi
[[ $status -ne 0 ]] && exit $status
echo "OK: within the ${MAX_OVERHEAD_PCT}% budget"
