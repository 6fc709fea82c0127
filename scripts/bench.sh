#!/usr/bin/env bash
# Regenerates or gates the tracked benchmark baselines (BENCH_serve.json,
# BENCH_scale.json). Run from anywhere; a mode flag is required.
#
# Serve modes drive the solver-service benchmark (docs/SERVING.md);
# remaining arguments pass through to bench_serve:
#
#   scripts/bench.sh --serve             # full run, rewrites BENCH_serve.json
#   scripts/bench.sh --serve --smoke     # tiny trace, schema validation only
#
# Scale modes drive the million-column sweep (bench_scale,
# docs/PERFORMANCE.md); remaining arguments pass through:
#
#   scripts/bench.sh --scale             # full sweep, rewrites BENCH_scale.json
#   scripts/bench.sh --scale --smoke     # one tiny grid, schema validation only
#
# Gate modes run a fresh full benchmark into a temp file and diff every
# time-like leaf, and the scale baseline's heap peaks, against the
# committed baseline with bench_regression, failing on >15% growth or
# missing leaves:
#
#   scripts/bench.sh --gate-serve          # serve baseline, exit 1 on regression
#   scripts/bench.sh --gate-serve-report   # same diff, never fails the build
#   scripts/bench.sh --gate-scale          # scale baseline, exit 1 on regression
#   scripts/bench.sh --gate-scale-report   # same diff, never fails the build
#
# Remaining arguments after a gate flag pass through to the fresh bench
# run (e.g. `scripts/bench.sh --gate-scale --smoke` for a quick machinery
# check — expect missing leaves against the full baseline).
# Speed claims are made against the repository benchmark (benchmark/);
# see docs/PERFORMANCE.md for how to read the output and
# docs/OBSERVABILITY.md for the regression-gate workflow.
set -euo pipefail
cd "$(dirname "$0")/.."

# gate <bin> <baseline> <report-only?> [passthrough args...]
gate() {
  local bin="$1" baseline="$2" report_only="$3"
  shift 3
  local fresh
  fresh="$(mktemp)"
  trap 'rm -f "$fresh"' EXIT
  echo "==> fresh $bin run (baseline untouched)"
  cargo run --release -q -p spfactor-bench --bin "$bin" -- --out "$fresh" "$@"
  echo "==> diff against $baseline"
  if [ "$report_only" = "yes" ]; then
    cargo run --release -q -p spfactor-bench --bin bench_regression -- \
      --baseline "$baseline" --new "$fresh" --report-only
  else
    cargo run --release -q -p spfactor-bench --bin bench_regression -- \
      --baseline "$baseline" --new "$fresh"
  fi
}

case "${1:-}" in
  --gate-serve)        shift; gate bench_serve BENCH_serve.json no  "$@" ;;
  --gate-serve-report) shift; gate bench_serve BENCH_serve.json yes "$@" ;;
  --gate-scale)        shift; gate bench_scale BENCH_scale.json no  "$@" ;;
  --gate-scale-report) shift; gate bench_scale BENCH_scale.json yes "$@" ;;
  --serve)
    shift
    exec cargo run --release -q -p spfactor-bench --bin bench_serve -- "$@"
    ;;
  --scale)
    shift
    exec cargo run --release -q -p spfactor-bench --bin bench_scale -- "$@"
    ;;
  *)
    echo "usage: scripts/bench.sh --serve | --scale | --gate-serve[-report] | --gate-scale[-report] [args...]" >&2
    exit 2
    ;;
esac
