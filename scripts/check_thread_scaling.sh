#!/usr/bin/env bash
# Thread-scaling check for the task-graph execution layer: runs the f1-size
# water benchmark (4096 molecules = 12288 atoms, cluster kernel, GSE
# electrostatics) at 1/2/4/8 threads, byte-compares every trajectory
# against the single-thread run (determinism is a hard requirement, so
# `cmp` — not a tolerance diff — is the bar), and checks the 8-thread
# speedup.
#
# The speedup assertion (>= 3x at 8 threads) only fires on hosts with at
# least 8 physical execution units; on smaller machines the determinism
# check still runs and the measured speedups are reported as informational.
#
# Usage: scripts/check_thread_scaling.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
RUN="${BUILD_DIR}/examples/antmd_run"
if [ ! -x "$RUN" ]; then
  echo "building antmd_run in ${BUILD_DIR}..."
  cmake -B "${BUILD_DIR}" -S . > /dev/null
  cmake --build "${BUILD_DIR}" --target antmd_run -j > /dev/null
fi

WORK="$(mktemp -d /tmp/antmd_scaling.XXXXXX)"
trap 'rm -rf "$WORK"' EXIT

STEPS="${ANTMD_SCALING_STEPS:-40}"
MIN_SPEEDUP="${ANTMD_SCALING_MIN_SPEEDUP:-3.0}"

run_one() {  # threads -> writes ${WORK}/t${threads}.xyz, echoes seconds
  local threads="$1"
  local tag="t${threads}"
  cat > "${WORK}/${tag}.cfg" <<EOF
system = water
size = 4096
steps = ${STEPS}
dt_fs = 2.0
temperature = 300
thermostat = langevin
electrostatics = gse
cutoff = 9.0
skin = 1.5
seed = 3
threads = ${threads}
xyz = ${WORK}/${tag}.xyz
EOF
  local t0 t1
  t0="$(date +%s.%N)"
  "$RUN" "${WORK}/${tag}.cfg" > "${WORK}/${tag}.log" 2>&1 \
    || { echo "FAIL: antmd_run ${tag} exited non-zero" >&2; \
         tail -5 "${WORK}/${tag}.log" >&2; exit 1; }
  t1="$(date +%s.%N)"
  echo "$t0 $t1" | awk '{printf "%.3f", $2 - $1}'
}

status=0
declare -A wall
for t in 1 2 4 8; do
  wall[$t]="$(run_one "$t")"
  echo "threads=${t}: ${wall[$t]} s"
done

# Determinism: every thread count must reproduce the 1-thread trajectory.
for t in 2 4 8; do
  if cmp -s "${WORK}/t1.xyz" "${WORK}/t${t}.xyz"; then
    echo "OK  trajectory --threads 1 == --threads ${t} (byte-identical)"
  else
    echo "FAIL trajectory differs at ${t} threads:"
    cmp "${WORK}/t1.xyz" "${WORK}/t${t}.xyz" || true
    status=1
  fi
done

speedup8="$(awk -v a="${wall[1]}" -v b="${wall[8]}" \
  'BEGIN {printf "%.2f", (b > 0) ? a / b : 0}')"
echo "speedup at 8 threads: ${speedup8}x (1t ${wall[1]}s / 8t ${wall[8]}s)"

CORES="$(nproc 2>/dev/null || echo 1)"
if [ "$CORES" -ge 8 ]; then
  if awk -v s="$speedup8" -v m="$MIN_SPEEDUP" 'BEGIN {exit !(s >= m)}'; then
    echo "OK  8-thread speedup ${speedup8}x >= ${MIN_SPEEDUP}x"
  else
    echo "FAIL 8-thread speedup ${speedup8}x < required ${MIN_SPEEDUP}x"
    status=1
  fi
else
  echo "note: host has ${CORES} core(s) < 8 — speedup is informational only"
fi

if [ "$status" -eq 0 ]; then
  echo "thread scaling: all checks passed"
else
  echo "thread scaling: FAILURES above"
fi
exit "$status"
