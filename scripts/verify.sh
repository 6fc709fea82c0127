#!/usr/bin/env bash
# Full verification for spfactor. Run from the repo root.
#
#   scripts/verify.sh
#
# Tier-1 (the gate every PR must keep green) plus the observability
# checks: one instrumentation path (no twins, no compile-out build), one
# unit-block kernel under both schedule executors, numeric factors that
# share the symbolic structure instead of copying it, a dependency graph
# that keeps exactly its predecessor edges and analysis engines that hold
# no partition-wide table, one plan value built
# by one chain and scheduled on first use, a stored plan that is a key, a
# fingerprint and a permutation, one kernel and no mp in the solver
# service, no fault layer in mp, the metrics doc held to the code, and a
# warning-free rustdoc surface.
set -euo pipefail
cd "$(dirname "$0")/.."

# call_sites <regex> <dir>...: the lines of library code under the
# directories that match — outside comments, the allocators' own
# definitions and #[cfg(test)] modules. The "one X" guards count them.
call_sites() {
  local call="$1" f
  shift
  for f in $(find "$@" -name '*.rs'); do
    awk -v f="$f" -v call="$call" '
      /#\[cfg\(test\)\]/ { exit }
      /^[[:space:]]*\/\// || /fn (block|wrap)_allocation\(/ { next }
      $0 ~ call { print f ":" FNR ": " $0 }' "$f"
  done
}

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> lints: cargo fmt --check"
cargo fmt --all --check

echo "==> lints: cargo clippy --workspace (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> lints: no unwrap/expect in the error-handling surfaces"
# The workspace clippy pass above enforces these because the sources carry
# deny(clippy::unwrap_used, clippy::expect_used) attributes; here we only
# assert the attributes have not been dropped. (Forcing the lints via
# command-line -D would also lint dependency crates, which legitimately
# unwrap in non-error-handling code.)
grep -q "deny(clippy::unwrap_used, clippy::expect_used)" crates/mp/src/lib.rs \
  || { echo "crates/mp lost its unwrap/expect lint gate"; exit 1; }
grep -q "deny(clippy::unwrap_used, clippy::expect_used)" crates/matrix/src/lib.rs \
  || { echo "matrix::io lost its unwrap/expect lint gate"; exit 1; }
grep -q "deny(clippy::unwrap_used, clippy::expect_used)" crates/serve/src/lib.rs \
  || { echo "crates/serve lost its unwrap/expect lint gate"; exit 1; }

echo "==> deps equivalence smoke: sweep engines vs element oracle"
cargo test -q -p spfactor --test deps_equivalence deps_engines_identical_on_all_paper_matrices

echo "==> benchmark-subject equivalence: lap9 70x70 g25 P=16, block + wrap"
cargo test -q -p spfactor --test deps_equivalence deps_engines_identical_on_the_benchmark_subject
cargo test -q -p spfactor --test engine_equivalence engines_identical_on_the_benchmark_subject

echo "==> order equivalence smoke: OrderEngine::Direct (the driver) vs the mmd oracle"
cargo test -q -p spfactor --test order_engine direct_matches_oracle
cargo test -q -p spfactor --test order_engine permutations_are_pinned_to_the_pre_driver_values
# The driver's wider oracle checks (lap9 120², 200 random geometric
# graphs) are ignored unoptimized: the oracle needs seconds per input.
cargo test --release -q -p spfactor-order driver_matches_oracle
# The driver's quotient graph lives in flat arrays (docs/PERFORMANCE.md,
# "The two ordering engines, one driver"); a per-variable Vec of Vecs
# coming back is the regression this line is here for.
if grep -n 'Vec<Vec<' crates/order/src/compress.rs; then
  echo "nested Vec state returned to the minimum-degree driver"
  exit 1
fi

echo "==> one minimum degree: the paper's, one parameter"
# "Minimum degree" is Liu's MMD with its tolerance δ, in the driver and in
# the oracle; an approximate-degree variant had to be proven twice against
# an oracle that carried both, and lost end to end on every tracked input
# (docs/PERFORMANCE.md, "Landed changes whose 'before' is gone").
if grep -rnE '\bapprox\b|ApproximateMinimumDegree' crates/order/src; then
  echo "an approximate-degree variant returned to crates/order"
  exit 1
fi

echo "==> partition equivalence smoke: closed-form ownership + work vs per-update oracle"
cargo test -q -p spfactor --test partition_equivalence partition_matches_oracle_on_all_paper_matrices

echo "==> numeric kernel bits: paired-column cholesky + multi-RHS solves vs the kept oracles"
# Every test in the file: the oracles on every subject, the panel paths
# (runs reaching both columns, only the first, only the second; unpaired
# columns; odd-width supernodes), signed zeros and exact cancellations,
# and the error precedence inside a panel.
cargo test -q -p spfactor --test numeric_kernel_bits
# The oracle at n = 40,000 (lap9 200²), the block-parallel executor at
# P = 2 and the solve's relative residual; ignored unoptimized.
cargo test --release -q -p spfactor --test numeric_kernel_bits \
  kernel_matches_the_oracle_at_side_200 -- --ignored

echo "==> mp checks, it does not survive: no fault layer, mismatched schedules fail typed"
# The message-passing runtime is the executable check of the simulator's
# counts over in-process channels that lose nothing; a fault injector,
# retries or re-solicitation coming back is the regression this guards
# (docs/ROBUSTNESS.md).
sites=$(call_sites 'FaultPlan|FaultInjector|FaultTrace|RetryPolicy|MpConfig|Query|lossy|backoff' \
  crates/mp/src crates/core/src)
if [ -n "$sites" ]; then
  echo "fault-layer machinery returned to crates/mp or crates/core:"; echo "$sites"
  exit 1
fi
cargo test -q -p spfactor --test numeric_kernel_bits executors_reject_mismatched_schedule_inputs
cargo test -q -p spfactor-matrix --test io_robustness

echo "==> one machine model, mp counters predicted"
# A run of a schedule is priced by simulate_timed under the one
# NetworkModel (crates/simulate/src/timed.rs); the runtime prices nothing,
# and every mp message counter equals simulate::messages, per processor.
sites=$(grep -rEn --include='*.rs' 'CommModel|proc_time|estimated_time' crates tests examples || true)
if [ -n "$sites" ]; then
  echo "a second cost model or the runtime's own estimate returned:"; echo "$sites"
  exit 1
fi
models=$(grep -rEn --include='*.rs' 'pub struct (CommModel|NetworkModel)\b' crates | cut -d: -f1)
if [ "$models" != "crates/simulate/src/timed.rs" ]; then
  echo "expected one cost model, NetworkModel in crates/simulate/src/timed.rs:"; echo "$models"
  exit 1
fi
cargo test -q -p spfactor --test mp_cross_validation
cargo test -q -p spfactor-mp --test prop_traffic

echo "==> chaos-serve smoke: warm-restart drill + zero-deadline request"
# A restarted service must reload its artifact store with zero cold
# rebuilds and identical bits, and a blown deadline must fail typed; the
# artifact round-trip robustness suite backs the store's trust model.
cargo test -q -p spfactor --test chaos_serve chaos_serve_smoke
cargo test -q -p spfactor-sched --test artifact_robustness

echo "==> one instrumentation path: no twins, no recorder plumbing, no trace feature"
# A phase has one public entry that finds its recorder through
# spfactor_trace::current(). (clippy -D warnings above turns a leftover
# cfg(feature = "trace") into an unexpected_cfgs error too.)
if grep -rnE 'pub fn \w+_(traced|observed)\b|Option<&Recorder>|feature *= *"trace"' \
     crates tests examples; then
  echo "instrumentation twin, recorder parameter or trace feature found (see docs/METRICS.md, \"How recording is scoped\")"
  exit 1
fi
# Pipeline::with_recorder and ServeConfig::recorder are the two attach
# points; a second builder, or a recorder kept in a struct beneath them,
# is the plumbing coming back in a shape the line above does not see.
if grep -rnE 'fn with_recorder' crates | grep -v '^crates/core/src/lib.rs:'; then
  echo "with_recorder outside Pipeline: record through spfactor_trace::current()"
  exit 1
fi
held=$(grep -rnE 'Option<(std::sync::)?Arc<(spfactor::)?Recorder>>' crates/serve/src || true)
if [ "$(grep -c . <<<"$held")" -ne 2 ] \
   || grep -qvE 'service.rs:[0-9]+: +(pub )?recorder: ' <<<"$held"; then
  echo "crates/serve holds a recorder beside ServeConfig::recorder and the SolverService handle's:"
  echo "$held"
  exit 1
fi

echo "==> one unit kernel: no per-update-pair scripts in the schedule executors"
# What a unit block computes is numeric::unit's business alone; the two
# executors are transports around it (docs/ARCHITECTURE.md, "One unit
# kernel, two transports").
if grep -rnE 'for_each_update|entry_id\(|struct OpRec' \
     crates/numeric/src/block_parallel.rs crates/mp/src; then
  echo "a schedule executor enumerates update pairs itself (see crates/numeric/src/unit.rs)"
  exit 1
fi
cargo test -q -p spfactor --test numeric_kernel_bits unit
cargo test -q -p spfactor --test metrics_surface block_parallel_allocates_nothing_per_update_pair

echo "==> a factorization allocates only its values"
# Every numeric factor holds handles on its symbolic factor's column
# structure (docs/ARCHITECTURE.md, "The row structure of L"); a kernel or
# executor that copies colptr/rowidx into its factor again is the
# regression this guards, and numeric_alloc bounds the heap each one adds.
sites=$(call_sites 'colptr\(\)\.to_vec\(\)|rowidx\(\)\.to_vec\(\)' crates/numeric/src crates/mp/src)
if [ -n "$sites" ]; then
  echo "a numeric factor copies the symbolic structure again:"; echo "$sites"
  exit 1
fi
cargo test -q -p spfactor --test numeric_alloc

echo "==> the dependency graph keeps predecessors only"
# A DepGraph stores the predecessor lists and the category counts; the
# successors are derived on the first succs() call, and the sweep lays the
# lists out cluster by cluster (docs/PERFORMANCE.md, "The three deps
# engines"). The side-100 oracle check needs release (seconds per scheme).
cargo test --release -q -p spfactor --test deps_equivalence \
  deps_sweep_matches_the_oracle_at_side_100 -- --ignored

echo "==> deps keeps exactly its edges; the analysis engines hold no partition-wide table"
# Each predecessor list is boxed at its length, and the deps sweep and the
# block simulator derive a column's ownership segments when their walk of
# partition::source_runs reaches it (docs/PERFORMANCE.md, "Deps keeps
# exactly its edges"); the flat all-columns segmentation is the partition
# work tally's alone. deps_alloc bounds the heap a build adds and what the
# graph keeps, simulate_alloc the heap the block engine adds.
sites=$(call_sites 'segmentation\(\)' crates/simulate/src crates/partition/src/sweep.rs)
if [ -n "$sites" ]; then
  echo "an analysis engine builds the all-columns segmentation again:"; echo "$sites"
  exit 1
fi
cargo test -q -p spfactor --test deps_alloc
cargo test -q -p spfactor --test simulate_alloc

echo "==> one traffic replay: the simulator walks the update operations in one function"
# The traffic report, the timed simulation's transfers and the
# consolidation analysis are closures over simulate::replay_fetches
# (docs/ARCHITECTURE.md, "three cross-validation oracles").
for call in 'ops::for_each_update\(' 'ops::for_each_scaling\('; do
  sites=$(call_sites "$call" crates/simulate/src)
  if [ "$(grep -c . <<<"$sites")" -ne 1 ]; then
    echo "expected exactly one call site of $call under crates/simulate/src, found:"; echo "$sites"
    exit 1
  fi
done
cargo test -q -p spfactor --test engine_equivalence traffic_views_agree_on_all_paper_matrices

echo "==> one set of source runs: deps and simulate sweep the same runs, on one thread"
# The deps sweep and the simulator's block engine handle a supernode's
# columns in the same source runs (docs/PERFORMANCE.md, "One traversal
# under both analysis engines"): walked by one function in partition, and
# no thread fan-out in the simulator.
sites=$(call_sites 'fn source_runs[(<]' crates/partition/src)
if [ "$(grep -c . <<<"$sites")" -ne 1 ]; then
  echo "expected exactly one definition of source_runs under crates/partition/src, found:"; echo "$sites"
  exit 1
fi
if [ -z "$(call_sites 'source_runs\(' crates/simulate/src)" ]; then
  echo "crates/simulate/src no longer walks partition::source_runs"
  exit 1
fi
sites=$(call_sites 'crossbeam::scope' crates/simulate/src)
if [ -n "$sites" ]; then
  echo "a thread fan-out returned to crates/simulate/src:"; echo "$sites"
  exit 1
fi
cargo test -q -p spfactor --test engine_equivalence grouped

echo "==> one plan: the front-end chain is spelled out once, the plan is shared"
# sched::plan is the chain; Scheme::partition / Scheme::allocate are the
# only block-vs-wrap fans in library code (docs/ARCHITECTURE.md, "The
# artifact seam"). Count call sites outside comments, definitions and
# #[cfg(test)] modules.
for call in 'Partition::columns\(' 'block_allocation\(' 'wrap_allocation\('; do
  sites=$(call_sites "$call" crates/core/src crates/sched/src crates/serve/src)
  if [ "$(grep -c . <<<"$sites")" -ne 1 ]; then
    echo "expected exactly one library call site of $call, found:"; echo "$sites"
    exit 1
  fi
done
cargo test -q -p spfactor --test metrics_surface a_planned_run_shares_its_plan_instead_of_copying_it

echo "==> a sequential solve does not schedule: the artifact derives its schedule on first use"
# sched::plan stops at the symbolic factor; the one dependency-graph build
# of the front end is the artifact's lazy schedule half (docs/ARCHITECTURE.md,
# "The artifact seam"), which a sequential serve request never reads.
sites=$(call_sites 'build_dependencies\(' crates/core/src crates/sched/src crates/serve/src)
if [ "$(grep -c . <<<"$sites")" -ne 1 ]; then
  echo "expected exactly one library call site of build_dependencies(, found:"; echo "$sites"
  exit 1
fi
cargo test -q -p spfactor --test serve_cache a_sequential_solve_derives_no_schedule

echo "==> a stored plan is a key, a fingerprint and a permutation"
# Everything after the ordering is a deterministic function of the pattern
# and the permutation, so the artifact text stores no schedule and a load
# re-plans it and compares one fingerprint (docs/ARCHITECTURE.md, "The
# artifact seam"); a schedule dump format coming back is the regression
# this guards. (artifact_robustness.rs holds the previous version's text as
# a fixture the reader must reject.)
sites=$(call_sites 'spfactor-schedule|write_schedule|read_schedule|ScheduleDump|sched::export' \
  crates examples tests | grep -v '^crates/sched/tests/artifact_robustness.rs:' || true)
if [ -n "$sites" ]; then
  echo "a schedule dump returned:"; echo "$sites"
  exit 1
fi
cargo test -q -p spfactor-sched --test artifact_robustness
cargo test -q -p spfactor --test serve_cache a_panicking_build_does_not_wedge_its_key

echo "==> mp leaves serve: the solver service has no mp kernel, breaker or failover"
# The message-passing runtime is the pipeline's executable check of the
# simulator (ExecutionBackend::MessagePassing), not a serve kernel; the
# one serve kernel fails only on the matrix, so there is nothing to break
# a circuit on or fail over to (docs/SERVING.md, "Deadlines").
# (`mp::` as a path segment of its own: `std::cmp::Reverse` is not one.)
sites=$(call_sites '(^|[^[:alnum:]_])mp::|MpError|breaker|failover' crates/serve/src)
if [ -n "$sites" ]; then
  echo "mp, a breaker or failover returned to crates/serve:"; echo "$sites"
  exit 1
fi
cargo test -q -p spfactor --test chaos_serve a_non_spd_batch_fails_typed_with_the_sequential_pivot

echo "==> serve runs one kernel: no kernel choice, no successor table derived up front"
# Every served request is factored by numeric::cholesky, which reads the
# permutation and the symbolic factor alone (docs/SERVING.md, "What a cold
# request costs"); the shared-memory executor is the schedule's
# executability check in tests/numeric_kernel_bits.rs, not a serve kernel.
# (The bracketed letters keep these patterns from naming what they forbid.)
sites=$(grep -rnE 'Kernel[K]ind|cholesky_block_parallel' crates/serve || true)
if [ -n "$sites" ]; then
  echo "a kernel choice returned to crates/serve:"; echo "$sites"
  exit 1
fi
sites=$(grep -rn 'derive_[s]uccs' crates tests examples || true)
if [ -n "$sites" ]; then
  echo "the up-front successor derivation returned:"; echo "$sites"
  exit 1
fi
cargo test -q -p spfactor --test chaos_serve
cargo test -q -p spfactor --test serve_cache

echo "==> metrics doc: docs/METRICS.md rows == recorded names"
cargo test -q -p spfactor --test metrics_doc

echo "==> rustdoc (deny warnings): cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> metrics binary emits a JSON document"
# Capture to a file first: truncating the pipe directly would SIGPIPE
# the binary mid-print.
metrics_json="$(mktemp)"
cargo run --release -q -p spfactor-bench --bin metrics > "$metrics_json"
head -c 200 "$metrics_json"
echo
rm -f "$metrics_json"

echo "==> table regenerators: one bin, sections by name"
# all_tables used to launch sibling executables that
# `cargo run --bin all_tables` never builds; the sections are functions now,
# the five studies (ablation, orderings, hotspot, consolidation, mp) included.
fig3_txt="$(mktemp)"
cargo run --release -q -p spfactor-bench --bin all_tables -- fig3 hotspot:LAP30:8 > "$fig3_txt"
grep -q "Figure 3: partitioning a cluster" "$fig3_txt" \
  || { echo "all_tables -- fig3 did not print Figure 3"; exit 1; }
grep -q "LAP30 — wrap: total" "$fig3_txt" \
  || { echo "all_tables -- hotspot:LAP30:8 did not print the wrap heat map"; exit 1; }
rm -f "$fig3_txt"
if cargo run --release -q -p spfactor-bench --bin all_tables -- nonsense 2> /dev/null; then
  echo "all_tables accepted an unknown section"; exit 1
fi

echo "==> frozen consumer: benchmark/ builds against the workspace API, smoke counts agree"
# benchmark/ may not change with the code it measures, so an API deletion
# that breaks it has to fail here rather than in the acceptance run.
bash benchmark/selftest.sh

echo "==> bench smoke run: schema of BENCH_pipeline.json"
bench_json="$(mktemp)"
scripts/bench.sh --smoke --out "$bench_json" > /dev/null
for field in '"schema": "spfactor-bench-pipeline/5"' \
             '"large_grid_speedup"' '"large_grid_deps_speedup"' \
             '"large_grid_order_speedup"' \
             '"matrices"' '"phases_ms"' \
             '"order_ms"' '"oracle"' '"direct"' '"compressed"' \
             '"speedup_order_compressed_over_oracle"' \
             '"deps_ms"' '"sweep_parallel"' \
             '"speedup_deps_sweep_parallel_over_element"' \
             '"simulate_ms"' '"block_parallel"' \
             '"speedup_block_parallel_over_element"'; do
  grep -qF "$field" "$bench_json" \
    || { echo "bench JSON missing $field"; exit 1; }
done
rm -f "$bench_json"

echo "==> scale smoke: schema of BENCH_scale.json, peak-bytes gauges populated"
# The smoke run itself asserts every phase.*.peak_bytes gauge is
# populated and the cheap global identities hold (the binary panics
# otherwise), so passing here witnesses the tracking-allocator plumbing
# end to end.
scale_json="$(mktemp)"
scripts/bench.sh --scale --smoke --out "$scale_json" > /dev/null
for field in '"schema": "spfactor-bench-scale/3"' \
             '"order_engine": "compressed"' \
             '"max_n"' '"max_peak_bytes"' '"slopes"' \
             '"sizes"' '"phases_ms"' '"peak_bytes"' '"counters"' \
             '"deps.engine.walked_segments"' '"simulate.engine.unit_visits"' \
             '"factor_entries"' '"total_ms"'; do
  grep -qF "$field" "$scale_json" \
    || { echo "scale bench JSON missing $field"; exit 1; }
done
rm -f "$scale_json"
# The committed scale baseline must self-compare clean through the gate.
cargo run --release -q -p spfactor-bench --bin bench_regression -- \
  --baseline BENCH_scale.json --new BENCH_scale.json > /dev/null \
  || { echo "bench_regression failed a scale self-compare"; exit 1; }

echo "==> serve smoke: schedule cache + bench_serve schema of BENCH_serve.json"
# The serve integration suite is the cache's executable contract
# (single-flight, LRU order, bit-identical cached solves, Overloaded).
cargo test -q -p spfactor --test serve_cache
serve_json="$(mktemp)"
scripts/bench.sh --serve --smoke --out "$serve_json" > /dev/null
for field in '"schema": "spfactor-bench-serve/3"' \
             '"amortized_speedup"' '"amortized_hit_rate"' \
             '"cold_ms"' '"amortized_ms"' \
             '"throughput_rps"' '"hit_rate"' \
             '"p50_ms"' '"p99_ms"' '"rejected"' \
             '"schemes"' '"cache_sweep"' '"capacity"' \
             '"replans"' '"miss_ms"'; do
  grep -qF "$field" "$serve_json" \
    || { echo "serve bench JSON missing $field"; exit 1; }
done
rm -f "$serve_json"
# The committed serve baseline must self-compare clean through the gate.
cargo run --release -q -p spfactor-bench --bin bench_regression -- \
  --baseline BENCH_serve.json --new BENCH_serve.json > /dev/null \
  || { echo "bench_regression failed a serve self-compare"; exit 1; }

echo "==> timeline smoke: LAP30 traces export, validate, and reconcile"
# The timeline binary self-checks every export: the virtual-clock
# timeline must reconcile exactly against the timed report and each
# trace must pass the Chrome-trace validator before it is written.
timeline_dir="$(mktemp -d)"
cargo run --release -q -p spfactor-bench --bin timeline -- \
  --out-dir "$timeline_dir" --nprocs 8 > /dev/null
for f in lap30_block_sim lap30_block_mp lap30_wrap_sim lap30_wrap_mp; do
  [ -s "$timeline_dir/$f.json" ] \
    || { echo "timeline smoke did not write $f.json"; exit 1; }
done
rm -rf "$timeline_dir"

echo "==> bench regression gate: self-diff passes, report-only never fails"
# Identical documents must compare clean; a smoke run diffed against the
# full baseline exercises the missing-leaf path without failing verify.
cargo run --release -q -p spfactor-bench --bin bench_regression -- \
  --baseline BENCH_pipeline.json --new BENCH_pipeline.json > /dev/null \
  || { echo "bench_regression failed a self-compare"; exit 1; }
regress_json="$(mktemp)"
scripts/bench.sh --smoke --out "$regress_json" > /dev/null
cargo run --release -q -p spfactor-bench --bin bench_regression -- \
  --baseline BENCH_pipeline.json --new "$regress_json" --report-only \
  | tail -n 2
rm -f "$regress_json"

echo "==> docs: every docs/*.md is linked from README.md"
for doc in docs/*.md; do
  grep -qF "$doc" README.md \
    || { echo "README.md does not link $doc"; exit 1; }
done

echo "OK: all verification steps passed"
