#!/usr/bin/env bash
# antmd_run's guarded-run contract, end to end through the CLI.  A 60-step
# LJ-125 run (dt 4 fs) gets one poisoned force (fault nan_force:25:1:7) and
# must behave per its `health` key:
#
#   off       (with --supervise, and with --checkpoint) completes after a
#             bit-exact rollback: the final xyz frame equals the fault-free
#             run's final frame
#   rollback  completes after a rollback that resumes at dt 2 fs
#   throw     exits 4 (numerical failure) and writes its RecoveryReport,
#             with or without --supervise
#   bogus     exits 2 (configuration error), with or without --supervise
#
# plus a deterministic blow-up: at dt 80 fs the run overheats a few steps
# after the step-0 snapshot, every bit-exact replay overheats again, and a
# `health = off` --checkpoint run must exit 5 (budget exhausted, report
# written) instead of looping; and checkpoint/resume: a clean 40-step
# --checkpoint run (interval 20), resumed with --resume and steps = 60, ends
# on a final frame byte-equal to the uninterrupted 60-step run.
#
# Usage: scripts/check_run_recovery.sh
# Env:
#   ANTMD_RUN_BIN  path to a prebuilt antmd_run; when unset the script
#                  configures/builds the default tree.  The ctest
#                  registration sets it to the freshly built CLI.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ -z "${ANTMD_RUN_BIN:-}" ]]; then
  cmake -B build -S . >/dev/null
  cmake --build build --target antmd_run -j "$(nproc)" >/dev/null
  ANTMD_RUN_BIN="build/examples/antmd_run"
fi

WORK="$(mktemp -d /tmp/antmd_run_recovery.XXXXXX)"
trap 'rm -rf "$WORK"' EXIT

ATOMS=125
FAULT="nan_force:25:1:7"

# write_cfg NAME STEPS HEALTH [DT_FS]: the LJ-125 run writing
# $WORK/NAME.xyz (dt 4 fs unless given).
write_cfg() {
  cat > "$WORK/$1.cfg" <<EOF
system      = ljfluid
size        = $ATOMS
seed        = 1
engine      = host
steps       = $2
dt_fs       = ${4:-4.0}
temperature = 120
cutoff      = 7.0
thermostat  = langevin
threads     = 1
health      = $3
report_out  = $WORK/$1.report
xyz         = $WORK/$1.xyz
EOF
}

# Final trajectory frame (atom lines + 2 header lines) of an xyz file.
final_frame() {
  tail -n "$(( ATOMS + 2 ))" "$WORK/$1.xyz"
}

fail=0
# run NAME EXPECTED_EXIT ARGS...: runs antmd_run on NAME.cfg, output in
# NAME.out; returns nonzero (and reports) when the exit code differs.
run() {
  local name="$1" want="$2" rc=0
  shift 2
  "$ANTMD_RUN_BIN" "$WORK/$name.cfg" "$@" > "$WORK/$name.out" 2>&1 || rc=$?
  if (( rc != want )); then
    echo "FAIL $name: exit $rc, expected $want" >&2
    sed 's/^/    /' "$WORK/$name.out" >&2
    fail=1
    return 1
  fi
}

# same_final_frame NAME: NAME's final frame equals the fault-free run's.
same_final_frame() {
  if ! final_frame "$1" | cmp -s - "$WORK/ref.frame"; then
    echo "FAIL $1: final frame differs from the fault-free run" >&2
    fail=1
  fi
}

write_cfg ref 60 off
run ref 0
final_frame ref > "$WORK/ref.frame"

write_cfg off_supervise 60 off
if run off_supervise 0 --supervise --fault "$FAULT"; then
  if ! grep -q "rollbacks: *[1-9]" "$WORK/off_supervise.out"; then
    echo "FAIL off_supervise: the poisoned force caused no rollback" >&2
    fail=1
  fi
  same_final_frame off_supervise
fi

write_cfg off_checkpoint 60 off
if run off_checkpoint 0 --checkpoint "$WORK/off.ckpt" --fault "$FAULT"; then
  same_final_frame off_checkpoint
fi

write_cfg rollback 60 rollback
if run rollback 0 --fault "$FAULT"; then
  if ! grep -q "recovery report: run completed" "$WORK/rollback.out" ||
     ! grep -q "dt now 2 fs" "$WORK/rollback.out"; then
    echo "FAIL rollback: expected a completed run resumed at dt 2 fs" >&2
    sed 's/^/    /' "$WORK/rollback.out" >&2
    fail=1
  fi
fi

# has_report NAME: NAME's escalated RecoveryReport was written.
has_report() {
  if ! grep -q "run abandoned" "$WORK/$1.report" 2>/dev/null; then
    echo "FAIL $1: no RecoveryReport written" >&2
    fail=1
  fi
}

write_cfg throw 60 throw
run throw 4 --fault "$FAULT" && has_report throw
rm -f "$WORK/throw.report"
run throw 4 --supervise --fault "$FAULT" && has_report throw

write_cfg bogus 60 bogus
run bogus 2 || true
run bogus 2 --supervise || true

write_cfg blowup 60 off 80.0
run blowup 5 --checkpoint "$WORK/blowup.ckpt" --checkpoint-interval 20 &&
  has_report blowup

write_cfg first_leg 40 off
run first_leg 0 --checkpoint "$WORK/resume.ckpt" --checkpoint-interval 20 ||
  true
write_cfg resumed 60 off
if run resumed 0 --checkpoint "$WORK/resume.ckpt" --checkpoint-interval 20 \
    --resume; then
  same_final_frame resumed
fi

if (( fail )); then
  exit 1
fi
echo "check_run_recovery: OK"
