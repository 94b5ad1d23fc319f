#!/usr/bin/env bash
# Build the ASan-instrumented tree and run the tests that exercise memory
# ownership across the checkpoint/restore, fault-injection and supervisor
# recovery paths (serialized buffers, rollback restores, node-failure
# remaps) under AddressSanitizer.
#
# Usage: scripts/run_asan_tests.sh [extra ctest -R regex]
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset asan
cmake --build --preset asan -j "$(nproc)"

# Checkpointing touches util (serialize), io (v2 container), md/runtime
# (restore paths) and resilience (supervisor rollback); fault_test drives
# the injected failures end to end.  ewald_test drives the GSE spread/gather
# passes, which index raw row pointers into the charge grid and gather two
# charges per vector; fft_test drives the batched FFT butterflies over raw
# strided lines; mshake_test drives the per-cluster SHAKE scratch.
FILTER="${1:-util_test|io_test|md_test|runtime_test|sampling_test|checkpoint_test|fault_test|supervisor_test|profile_test|simd_kernel_test|ewald_test|fft_test|mshake_test}"

ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1 detect_leaks=1}" \
  ctest --test-dir build-asan -R "$FILTER" --output-on-failure

# The golden-physics harness walks every tile mask of the cluster-pair
# kernel (gather buffers, padding slots, chunk scratch) — run it under ASan
# so a layout bug shows up as an instrumented fault, not a physics diff.
ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1 detect_leaks=1}" \
  ctest --test-dir build-asan -L golden --output-on-failure
