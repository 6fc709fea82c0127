#!/usr/bin/env bash
# Regenerates or gates the tracked scale baseline (BENCH_scale.json).
# Run from anywhere; a mode flag is required.
#
# Scale modes drive the million-column sweep (bench_scale,
# docs/PERFORMANCE.md); remaining arguments pass through:
#
#   scripts/bench.sh --scale             # full sweep, rewrites BENCH_scale.json
#   scripts/bench.sh --scale --smoke     # one tiny grid, schema validation only
#
# Gate modes run a fresh full sweep into a temp file and diff every
# time-like leaf and heap peak against the committed baseline with
# bench_regression, failing on >15% growth or missing leaves:
#
#   scripts/bench.sh --gate-scale          # exit 1 on regression
#   scripts/bench.sh --gate-scale-report   # same diff, never fails the build
#
# Remaining arguments after a gate flag pass through to the fresh bench
# run (e.g. `scripts/bench.sh --gate-scale --smoke` for a quick machinery
# check — expect missing leaves against the full baseline).
# Speed claims, serve's included, are made against the repository
# benchmark (benchmark/); see docs/PERFORMANCE.md for how to read the
# output and docs/OBSERVABILITY.md for the regression-gate workflow.
set -euo pipefail
cd "$(dirname "$0")/.."

# gate <report-only?> [passthrough args...]
gate() {
  local report_only="$1"
  shift
  local fresh
  fresh="$(mktemp)"
  trap 'rm -f "$fresh"' EXIT
  echo "==> fresh bench_scale run (baseline untouched)"
  cargo run --release -q -p spfactor-bench --bin bench_scale -- --out "$fresh" "$@"
  echo "==> diff against BENCH_scale.json"
  if [ "$report_only" = "yes" ]; then
    cargo run --release -q -p spfactor-bench --bin bench_regression -- \
      --baseline BENCH_scale.json --new "$fresh" --report-only
  else
    cargo run --release -q -p spfactor-bench --bin bench_regression -- \
      --baseline BENCH_scale.json --new "$fresh"
  fi
}

case "${1:-}" in
  --gate-scale)        shift; gate no  "$@" ;;
  --gate-scale-report) shift; gate yes "$@" ;;
  --scale)
    shift
    exec cargo run --release -q -p spfactor-bench --bin bench_scale -- "$@"
    ;;
  *)
    echo "usage: scripts/bench.sh --scale | --gate-scale[-report] [args...]" >&2
    exit 2
    ;;
esac
