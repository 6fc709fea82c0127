#!/usr/bin/env bash
# Regenerates or gates the tracked benchmark baselines
# (BENCH_pipeline.json, BENCH_serve.json, BENCH_scale.json). Run from
# anywhere. Without a mode flag, all arguments pass through to the
# pipeline bench binary:
#
#   scripts/bench.sh                 # full run, rewrites BENCH_pipeline.json
#   scripts/bench.sh --smoke         # tiny grid, schema validation only
#   scripts/bench.sh --out /tmp/b.json
#   scripts/bench.sh --side 300 --grain 50 --out /tmp/b.json
#
# Serve modes drive the solver-service benchmark instead
# (docs/SERVING.md); remaining arguments pass through to bench_serve:
#
#   scripts/bench.sh --serve             # full run, rewrites BENCH_serve.json
#   scripts/bench.sh --serve --smoke     # tiny trace, schema validation only
#
# Scale modes drive the million-column sweep instead (bench_scale,
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
#   scripts/bench.sh --gate                # pipeline baseline, exit 1 on regression
#   scripts/bench.sh --gate-report         # same diff, never fails the build
#   scripts/bench.sh --gate-serve          # serve baseline, exit 1 on regression
#   scripts/bench.sh --gate-serve-report   # same diff, never fails the build
#   scripts/bench.sh --gate-scale          # scale baseline, exit 1 on regression
#   scripts/bench.sh --gate-scale-report   # same diff, never fails the build
#
# Remaining arguments after a gate flag pass through to the fresh bench
# run (e.g. `scripts/bench.sh --gate --smoke` for a quick machinery
# check — expect missing leaves against the full baseline).
# See docs/PERFORMANCE.md for how to read the output and
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
  --gate)              shift; gate bench_pipeline BENCH_pipeline.json no  "$@" ;;
  --gate-report)       shift; gate bench_pipeline BENCH_pipeline.json yes "$@" ;;
  --gate-serve)        shift; gate bench_serve    BENCH_serve.json    no  "$@" ;;
  --gate-serve-report) shift; gate bench_serve    BENCH_serve.json    yes "$@" ;;
  --gate-scale)        shift; gate bench_scale    BENCH_scale.json    no  "$@" ;;
  --gate-scale-report) shift; gate bench_scale    BENCH_scale.json    yes "$@" ;;
  --serve)
    shift
    exec cargo run --release -q -p spfactor-bench --bin bench_serve -- "$@"
    ;;
  --scale)
    shift
    exec cargo run --release -q -p spfactor-bench --bin bench_scale -- "$@"
    ;;
  *)
    exec cargo run --release -q -p spfactor-bench --bin bench_pipeline -- "$@"
    ;;
esac
