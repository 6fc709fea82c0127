#!/usr/bin/env bash
# Checks the benchmark itself in under a minute: BENCHMARK.json against
# the contract's limits and the binary's tables, then two smoke runs of
# every workload (tiny inputs, same metrics, same output checks) whose
# exact counts must agree. Smoke timings are too short to hold a bound,
# so only missing values and differing counts fail the comparison.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
run=benchmark/run.sh
out=benchmark/out
"$run" --check-contract
"$run" --smoke --seed 7 --out "$out/selftest_a.json" 2>/dev/null
"$run" --smoke --seed 7 --out "$out/selftest_b.json" 2>/dev/null
compared=$("$run" --compare "$out/selftest_a.json" "$out/selftest_b.json" || true)
echo "$compared"
if grep -q "differs\|missing" <<<"$compared"; then
    echo "selftest: FAILED" >&2
    exit 1
fi
echo "selftest: ok"
