#!/usr/bin/env bash
# Build the UBSan-instrumented tree and run the tests that push arithmetic
# to its edges: fixed-point conversion/overflow, CRC table generation, the
# bit-flip fault payload decoding (bit indices derived from arbitrary
# payload integers) and the audit digest serialization.  Undefined behaviour
# in any of these would silently change the "deterministic" baseline the
# audit engine compares against, so they get their own sanitizer pass.
#
# Usage: scripts/run_ubsan_tests.sh [extra ctest -R regex]
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset ubsan
cmake --build --preset ubsan -j "$(nproc)"

# audit_test covers the CRC-64 kernel, scrubber bit addressing and the
# shadow-replay digest path; the rest mirror the ASan suite so both
# sanitizers see the same checkpoint/fault/recovery surface, plus the GSE
# grid indexing in ewald_test, the strided FFT lines in fft_test, the
# constraint scratch in mshake_test and the saturating fixed-point casts
# in math_test (ANTMD_SANITIZE=undefined adds float-cast-overflow to the
# UBSan checks).
FILTER="${1:-math_test|util_test|io_test|md_test|runtime_test|sampling_test|checkpoint_test|fault_test|supervisor_test|profile_test|audit_test|simd_kernel_test|ewald_test|fft_test|mshake_test}"

UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}" \
  ctest --test-dir build-ubsan -R "$FILTER" --output-on-failure

# The golden-physics harness exercises every tile mask of the cluster-pair
# kernel, where shifts and fixed-point casts are densest — run it under
# UBSan so an out-of-range conversion shows up as an instrumented fault,
# not a physics diff.
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}" \
  ctest --test-dir build-ubsan -L golden --output-on-failure
