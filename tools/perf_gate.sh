#!/usr/bin/env bash
# CI perf gate: run bench_micro with --metrics_out and diff the timer means
# against the checked-in BENCH_baseline.json with `gter_cli report`.
#
# Exit status is the diff's: 0 when every gated timer is within the
# regression threshold, non-zero when any baseline timer's mean-per-call
# regressed past it. Timers whose baseline mean sits under --min_seconds
# never gate (noise floor), so short sub-benchmarks can't flake the gate.
#
# Usage:
#   tools/perf_gate.sh <build-dir> [baseline.json] [regress-ratio] [simd]
#
#   build-dir      CMake build directory holding bench/bench_micro and
#                  tools/gter_cli (e.g. `build`).
#   baseline.json  Metrics snapshot to diff against. Default:
#                  BENCH_baseline.json next to this script's repo root.
#                  Regenerate on the reference machine with:
#                    build/bench/bench_micro \
#                      --metrics_out=BENCH_baseline.json \
#                      --benchmark_min_time=0.05
#   regress-ratio  Allowed fractional slowdown before failing. Default 0.5
#                  (+50%): generous because the checked-in baseline was
#                  recorded on one specific machine; tighten it when the
#                  baseline is regenerated on the machine running the gate.
#   simd           Dispatch level the gate run uses: auto (default),
#                  avx512, or scalar. The gate normally runs the SIMD
#                  path (what production runs — auto picks the highest tier
#                  the host supports); pass `scalar` to compare a candidate
#                  against a pre-SIMD baseline like for like — scalar-only
#                  timers are recorded and the *_avx512 bench variants
#                  skip. Levels above the host's capability clamp down, so
#                  `avx512` is safe to pass everywhere: on a non-avx512
#                  host it degrades to the scalar run.
#
# Wired into ctest behind -DGTER_PERF_GATE=ON with label `perf`:
#   cmake -B build -S . -DGTER_PERF_GATE=ON && cmake --build build -j
#   ctest --test-dir build -L perf --output-on-failure
#
# The ExecContext refactor (DESIGN.md §4e) threaded cancellation polls
# through every hot loop gated here. The bench binaries attach no
# CancelToken, so each poll is a single null-pointer test — the same
# zero-cost path production runs without a deadline. The checked-in
# baseline was regenerated AFTER the poll sites landed; this gate passing
# against it is the standing proof that the polls stay free.

set -u -o pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:?usage: tools/perf_gate.sh <build-dir> [baseline.json] [regress-ratio] [simd]}"
baseline="${2:-${repo_root}/BENCH_baseline.json}"
ratio="${3:-0.5}"
simd="${4:-auto}"

bench="${build_dir}/bench/bench_micro"
cli="${build_dir}/tools/gter_cli"
for binary in "${bench}" "${cli}"; do
  if [[ ! -x "${binary}" ]]; then
    echo "perf_gate: missing binary ${binary} (build with -DGTER_BUILD_BENCHMARKS=ON)" >&2
    exit 2
  fi
done
if [[ ! -f "${baseline}" ]]; then
  echo "perf_gate: missing baseline ${baseline}" >&2
  exit 2
fi

candidate="$(mktemp --suffix=.json)"
trap 'rm -f "${candidate}"' EXIT

# Same min-time the baseline was recorded with, so per-call means compare
# like for like.
echo "perf_gate: running ${bench}" >&2
if ! "${bench}" --metrics_out="${candidate}" --benchmark_min_time=0.05 \
    --simd="${simd}" > /dev/null; then
  echo "perf_gate: bench_micro failed" >&2
  exit 2
fi

"${cli}" report "${baseline}" "${candidate}" --regress_ratio="${ratio}"
