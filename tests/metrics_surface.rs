//! Integration test for the documented metrics surface (docs/METRICS.md):
//! a pipeline run with a recorder attached must emit the advertised
//! spans, counters and gauges, and the gauge values must agree with the
//! artifacts the pipeline returns.

use spfactor::{Pipeline, Recorder};
use std::sync::Arc;

// Installed so the pipeline's `phase.*.peak_bytes` gauges are live in
// this binary: they are recorded only when a tracking allocator is
// routing this process's allocations (docs/METRICS.md).
#[global_allocator]
static ALLOC: spfactor::trace::alloc::TrackingAllocator =
    spfactor::trace::alloc::TrackingAllocator::new();

/// The paper's primary configuration: LAP30, grain 4, 16 processors.
fn run_lap30_block() -> (spfactor::PipelineResult, Arc<Recorder>) {
    let rec = Arc::new(Recorder::new());
    let m = spfactor::matrix::gen::paper::lap30();
    let result = Pipeline::new(m.pattern)
        .grain(4)
        .processors(16)
        .with_recorder(rec.clone())
        .run();
    (result, rec)
}

#[test]
fn json_document_is_always_shaped() {
    let (_result, rec) = run_lap30_block();
    let json = rec.to_json();
    for key in ["\"counters\"", "\"gauges\"", "\"spans\""] {
        assert!(json.contains(key), "missing {key} in:\n{json}");
    }
}

#[test]
fn result_carries_the_recorder() {
    let (result, rec) = run_lap30_block();
    let metrics = result.metrics().expect("recorder was attached");
    assert_eq!(metrics.to_json(), rec.to_json());
    // Without a recorder there are no metrics.
    let bare = Pipeline::new(spfactor::matrix::gen::lap9(4, 4)).run();
    assert!(bare.metrics().is_none());
}

mod enabled {
    use super::*;
    use spfactor::Scheme;

    #[test]
    fn gauges_agree_with_pipeline_artifacts() {
        let (result, rec) = run_lap30_block();
        assert_eq!(
            rec.gauge_value("symbolic.fill_in"),
            Some(result.plan.factor().fill_in() as f64)
        );
        assert_eq!(
            rec.gauge_value("simulate.traffic.total"),
            Some(result.traffic.total as f64)
        );
        assert_eq!(
            rec.gauge_value("simulate.work.total"),
            Some(result.work.total as f64)
        );
        assert_eq!(
            rec.gauge_value("partition.units"),
            Some(result.plan.partition().num_units() as f64)
        );
        assert_eq!(
            rec.gauge_value("partition.deps.edges"),
            Some(result.plan.deps().num_edges() as f64)
        );
    }

    #[test]
    fn every_block_phase_emits_its_span() {
        let (_result, rec) = run_lap30_block();
        for span in [
            "phase.order",
            "phase.symbolic",
            "phase.partition",
            "phase.deps",
            "phase.sched",
            "phase.simulate",
            "order.compute",
            "symbolic.from_pattern",
            "partition.identify_clusters",
            "partition.split_units",
            "partition.deps",
            "sched.block_allocation",
            "simulate.data_traffic",
            "simulate.work_distribution",
        ] {
            let stats = rec
                .span_stats(span)
                .unwrap_or_else(|| panic!("span {span} missing; recorded: {:?}", rec.span_names()));
            assert_eq!(stats.count, 1, "span {span} should fire exactly once");
        }
    }

    #[test]
    fn documented_counters_are_present() {
        let (result, rec) = run_lap30_block();
        for counter in [
            "order.mmd.passes",
            "order.mmd.eliminations",
            "order.mmd.degree_updates",
            "order.driver.scanned_entries",
            "order.driver.full_scans",
            "partition.work.pairs",
            "partition.work.segments",
            "simulate.traffic.remote_fetches",
            "simulate.traffic.cache_hits",
            "simulate.traffic.local_accesses",
        ] {
            assert!(
                rec.counter(counter) > 0,
                "counter {counter} missing or zero; recorded: {:?}",
                rec.counter_names()
            );
        }
        // Every merge passed an exact comparison first.
        assert!(
            rec.counter("order.driver.twin_compares")
                >= rec.counter("order.mmd.supervariable_merges")
        );
        // MMD eliminates every supervariable exactly once; there are at
        // most n of them.
        assert!(rec.counter("order.mmd.eliminations") <= result.plan.factor().n() as u64);
        // The work tally splits at most one row run per factor entry.
        assert!(rec.counter("partition.work.pairs") <= result.plan.factor().num_entries() as u64);
        assert!(rec.counter("partition.work.segments") >= rec.counter("partition.work.pairs"));
        // The ten dependency categories partition the update operations.
        let per_category: u64 = (1..=10)
            .map(|c| rec.counter(&format!("partition.deps.category.{c}")))
            .sum();
        assert!(per_category > 0, "no categorized dependencies recorded");
        // The remote-fetch counter is the traffic total by definition.
        assert_eq!(
            rec.counter("simulate.traffic.remote_fetches"),
            result.traffic.total as u64
        );
    }

    #[test]
    fn allocation_branch_counters_cover_every_unit() {
        let (result, rec) = run_lap30_block();
        let branches: u64 = [
            "sched.alloc.independent_wrap",
            "sched.alloc.dependent_pred",
            "sched.alloc.dependent_pool",
            "sched.alloc.triangle_pred",
            "sched.alloc.triangle_pool",
            "sched.alloc.rect_rr",
        ]
        .iter()
        .map(|c| rec.counter(c))
        .sum();
        assert_eq!(branches, result.plan.partition().num_units() as u64);
    }

    #[test]
    fn message_passing_backend_emits_its_surface() {
        let rec = Arc::new(Recorder::new());
        let result = Pipeline::new(spfactor::matrix::gen::lap9(8, 8))
            .grain(4)
            .processors(4)
            .backend(spfactor::ExecutionBackend::MessagePassing(
                spfactor::NetworkModel::default(),
            ))
            .with_recorder(rec.clone())
            .run();
        let exec = result.execution.as_ref().expect("backend ran");
        for span in ["phase.execute", "mp.execute"] {
            let stats = rec
                .span_stats(span)
                .unwrap_or_else(|| panic!("span {span} missing"));
            assert_eq!(stats.count, 1, "span {span} should fire exactly once");
        }
        // The executed runtime reproduces the analytic model exactly, and
        // the counters/gauges mirror the report it returns.
        assert_eq!(
            rec.counter("mp.remote_fetches"),
            result.traffic.total as u64
        );
        assert_eq!(rec.counter("mp.msgs_sent"), exec.msgs_total() as u64);
        assert_eq!(rec.counter("mp.bytes"), exec.bytes_total() as u64);
        assert_eq!(rec.counter("mp.cache_hits"), exec.cache_hits_total() as u64);
        assert_eq!(
            rec.counter("mp.units_run"),
            result.plan.partition().num_units() as u64
        );
        assert_eq!(
            rec.gauge_value("mp.traffic.total"),
            Some(result.traffic.total as f64)
        );
        assert_eq!(
            rec.gauge_value("mp.work.max"),
            Some(result.work.max() as f64)
        );
        assert_eq!(
            rec.gauge_value("mp.estimated_time"),
            Some(exec.estimated_time)
        );
        for p in 0..4 {
            assert_eq!(
                rec.gauge_value(&format!("mp.proc.{p}.traffic")),
                Some(exec.per_proc[p].traffic as f64)
            );
        }
        // The fault/retry surface exists on every traced mp run — and on
        // a reliable network every one of the counters is zero.
        let names = rec.counter_names();
        for counter in [
            "mp.fault.dropped",
            "mp.fault.duplicated",
            "mp.fault.delayed",
            "mp.fault.reordered",
            "mp.fault.stalls",
            "mp.retry.requests",
            "mp.retry.queries",
            "mp.retry.stale",
        ] {
            assert!(
                names.iter().any(|n| n == counter),
                "counter {counter} missing; recorded: {names:?}"
            );
            assert_eq!(
                rec.counter(counter),
                0,
                "counter {counter} must be zero on a reliable network"
            );
        }
        assert!(exec.faults.is_quiet());
    }

    #[test]
    fn fault_injection_shows_up_in_the_metrics() {
        let rec = Arc::new(Recorder::new());
        let result = Pipeline::new(spfactor::matrix::gen::lap9(8, 8))
            .grain(4)
            .processors(4)
            .backend(spfactor::ExecutionBackend::MessagePassing(
                spfactor::NetworkModel::default(),
            ))
            .fault_plan(spfactor::FaultPlan::chaos(21))
            .with_recorder(rec.clone())
            .run();
        let exec = result.execution.as_ref().expect("backend ran");
        // The counters mirror the fault trace the report carries.
        assert_eq!(rec.counter("mp.fault.dropped"), exec.faults.dropped as u64);
        assert_eq!(
            rec.counter("mp.fault.duplicated"),
            exec.faults.duplicated as u64
        );
        assert_eq!(rec.counter("mp.fault.delayed"), exec.faults.delayed as u64);
        assert_eq!(
            rec.counter("mp.fault.reordered"),
            exec.faults.reordered as u64
        );
        assert_eq!(rec.counter("mp.retry.requests"), exec.faults.retries as u64);
        assert_eq!(rec.counter("mp.retry.queries"), exec.faults.queries as u64);
        assert_eq!(rec.counter("mp.retry.stale"), exec.faults.stale as u64);
        // Chaos at these rates always injects something.
        let injected: u64 = [
            "mp.fault.dropped",
            "mp.fault.duplicated",
            "mp.fault.delayed",
            "mp.fault.reordered",
        ]
        .iter()
        .map(|c| rec.counter(c))
        .sum();
        assert!(injected > 0, "chaos plan injected nothing");
        // Faults never change what was computed or moved: the observed
        // traffic still equals the analytic prediction exactly.
        assert_eq!(
            rec.counter("mp.remote_fetches"),
            result.traffic.total as u64
        );
    }

    #[test]
    fn block_engine_emits_its_surface() {
        // Selecting a closed-form engine swaps the simulate spans: the
        // element-model spans disappear and the engine span plus the
        // simulate.engine.* counters appear, while the shared traffic /
        // work gauges keep their values (docs/METRICS.md).
        let rec = Arc::new(Recorder::new());
        let m = spfactor::matrix::gen::paper::lap30();
        let result = Pipeline::new(m.pattern)
            .grain(4)
            .processors(16)
            .engine(spfactor::SimulateEngine::Block)
            .with_recorder(rec.clone())
            .run();
        let stats = rec
            .span_stats("simulate.engine.block")
            .expect("block engine span");
        assert_eq!(stats.count, 1);
        assert!(rec.span_stats("simulate.data_traffic").is_none());
        assert!(rec.span_stats("simulate.work_distribution").is_none());
        assert_eq!(
            rec.counter("simulate.engine.columns"),
            result.plan.factor().n() as u64
        );
        for counter in [
            "simulate.engine.unit_visits",
            "simulate.engine.interval_pieces",
        ] {
            assert!(
                rec.counter(counter) > 0,
                "counter {counter} missing or zero"
            );
        }
        assert_eq!(rec.gauge_value("simulate.engine.threads"), Some(1.0));
        // Shared gauges agree with the returned reports (and therefore
        // with what the element engine would have recorded).
        assert_eq!(
            rec.gauge_value("simulate.traffic.total"),
            Some(result.traffic.total as f64)
        );
        assert_eq!(
            rec.gauge_value("simulate.traffic.mean"),
            Some(result.traffic.mean_f64())
        );
        assert_eq!(
            rec.gauge_value("simulate.work.imbalance"),
            Some(result.work.imbalance())
        );
    }

    #[test]
    fn sweep_deps_engine_emits_its_surface() {
        // Selecting a sweep engine swaps the deps span: the element span
        // `partition.deps` disappears and the engine span plus the
        // deps.engine.* counters appear, while the shared graph gauges
        // and category counters keep their values (docs/METRICS.md).
        let rec = Arc::new(Recorder::new());
        let m = spfactor::matrix::gen::paper::lap30();
        let result = Pipeline::new(m.pattern)
            .grain(4)
            .processors(16)
            .deps_engine(spfactor::DepsEngine::Sweep)
            .with_recorder(rec.clone())
            .run();
        let stats = rec
            .span_stats("deps.engine.sweep")
            .expect("sweep engine span");
        assert_eq!(stats.count, 1);
        assert!(rec.span_stats("partition.deps").is_none());
        assert_eq!(
            rec.counter("deps.engine.columns"),
            result.plan.factor().n() as u64
        );
        let nnz: u64 = (0..result.plan.factor().n())
            .map(|j| result.plan.factor().col_count(j) as u64)
            .sum();
        assert_eq!(rec.counter("deps.engine.pairs"), nnz);
        assert!(rec.counter("deps.engine.segments") >= nnz);
        assert_eq!(rec.gauge_value("deps.engine.threads"), Some(1.0));
        // What the sweep handled itself is at most what it covered.
        let walked = rec.counter("deps.engine.walked_segments");
        assert!(walked > 0 && walked <= rec.counter("deps.engine.segments"));
        // Shared gauges and category counters agree with the returned
        // graph (and therefore with what the element engine records).
        assert_eq!(
            rec.gauge_value("partition.deps.edges"),
            Some(result.plan.deps().num_edges() as f64)
        );
        assert_eq!(
            rec.gauge_value("partition.deps.independent_units"),
            Some(result.plan.deps().independent_units().len() as f64)
        );
        for c in spfactor::partition::DepCategory::all() {
            assert_eq!(
                rec.counter(&format!("partition.deps.category.{}", c.number())),
                result.plan.deps().ops_in_category(c) as u64,
                "category {c:?}"
            );
        }
    }

    #[test]
    fn timeline_gauges_match_the_capture() {
        // The documented timeline.* surface (docs/METRICS.md): gauges
        // mirror the TimelineCapture the pipeline returns, and the
        // capture phase emits its span.
        let rec = Arc::new(Recorder::new());
        let m = spfactor::matrix::gen::paper::lap30();
        let result = Pipeline::new(m.pattern)
            .grain(4)
            .processors(16)
            .timeline(true)
            .with_recorder(rec.clone())
            .run();
        let tl = result.timeline.as_ref().expect("timeline captured");
        assert_eq!(
            rec.gauge_value("timeline.events"),
            Some(tl.simulated.events.len() as f64)
        );
        assert_eq!(
            rec.gauge_value("timeline.makespan"),
            Some(tl.timed.makespan)
        );
        assert_eq!(
            rec.gauge_value("timeline.critical.hops"),
            Some(tl.critical_path.hops.len() as f64)
        );
        assert_eq!(
            rec.gauge_value("timeline.critical.compute"),
            Some(tl.critical_path.compute)
        );
        assert_eq!(
            rec.gauge_value("timeline.critical.transfer"),
            Some(tl.critical_path.transfer)
        );
        assert_eq!(
            rec.gauge_value("timeline.critical.wait"),
            Some(tl.critical_path.wait)
        );
        let stats = rec.span_stats("phase.timeline").expect("timeline span");
        assert_eq!(stats.count, 1);
        // Analytic backend: no executed timeline, no mp gauges.
        assert!(tl.executed.is_none());
        assert_eq!(rec.gauge_value("timeline.mp.events"), None);
    }

    #[test]
    fn mp_timeline_gauges_follow_the_executed_capture() {
        let rec = Arc::new(Recorder::new());
        let result = Pipeline::new(spfactor::matrix::gen::lap9(8, 8))
            .grain(4)
            .processors(4)
            .backend(spfactor::ExecutionBackend::MessagePassing(
                spfactor::NetworkModel::default(),
            ))
            .timeline(true)
            .with_recorder(rec.clone())
            .run();
        let tl = result.timeline.as_ref().expect("timeline captured");
        let executed = tl.executed.as_ref().expect("mp timeline captured");
        assert_eq!(
            rec.gauge_value("timeline.mp.events"),
            Some(executed.events.len() as f64)
        );
        assert_eq!(
            rec.gauge_value("timeline.mp.makespan"),
            Some(executed.makespan())
        );
    }

    #[test]
    fn bench_regression_gauges_are_recorded() {
        // The documented bench.regression.* surface (docs/METRICS.md):
        // RegressionReport::record mirrors the comparison outcome.
        use spfactor::trace::{json, regress};
        let base = json::parse(r#"{"phases_ms": {"order": 10.0, "deps": 100.0}}"#).unwrap();
        let cand = json::parse(r#"{"phases_ms": {"order": 10.0, "deps": 130.0}}"#).unwrap();
        let report = regress::compare(&base, &cand, &regress::RegressOptions::default());
        let rec = Recorder::new();
        report.record(&rec);
        assert_eq!(rec.gauge_value("bench.regression.checked"), Some(2.0));
        assert_eq!(rec.gauge_value("bench.regression.missing"), Some(0.0));
        assert_eq!(rec.gauge_value("bench.regression.count"), Some(1.0));
        assert_eq!(rec.gauge_value("bench.regression.max_ratio"), Some(1.3));
        assert!(!report.passed());
    }

    #[test]
    fn phase_peak_gauges_are_populated() {
        // Every phase publishes its heap high-water mark when the
        // running binary (this one) installs the tracking allocator.
        let (_result, rec) = run_lap30_block();
        for phase in [
            "order",
            "symbolic",
            "partition",
            "deps",
            "sched",
            "simulate",
        ] {
            let gauge = format!("phase.{phase}.peak_bytes");
            let peak = rec.gauge_value(&gauge).unwrap_or_else(|| {
                panic!("gauge {gauge} missing; recorded: {:?}", rec.gauge_names())
            });
            assert!(peak > 0.0, "gauge {gauge} not populated");
        }
    }

    /// The allocator's counts are process-wide, so a heap bound is checked
    /// with no other test running: unless this process already runs one
    /// test at a time, `false` after test `name` has re-run alone and
    /// passed.
    fn running_alone(name: &str) -> bool {
        const ALONE: &str = "--test-threads=1";
        if std::env::args().any(|arg| arg == ALONE) {
            return true;
        }
        let me = std::env::current_exe().expect("test binary path");
        let child = std::process::Command::new(me)
            .args(["--exact", name, ALONE])
            .output()
            .expect("re-run alone");
        assert!(
            child.status.success(),
            "{}{}",
            String::from_utf8_lossy(&child.stdout),
            String::from_utf8_lossy(&child.stderr)
        );
        false
    }

    #[test]
    fn a_planned_run_shares_its_plan_instead_of_copying_it() {
        use spfactor::matrix::gen;
        use spfactor::trace::alloc;
        if !running_alone("enabled::a_planned_run_shares_its_plan_instead_of_copying_it") {
            return;
        }
        // What a result keeps beside the plan is two reports of a few
        // hundred bytes per processor; five copied parts were the whole
        // artifact over again.
        let pipeline = Pipeline::new(gen::lap9(40, 40)).grain(25).processors(16);
        let empty = alloc::current_bytes();
        let artifact = pipeline.try_plan().expect("plans");
        let unscheduled = alloc::current_bytes();
        // The schedule the run reads is derived on first use: derive it
        // here, so that the run's bytes are the run's alone.
        artifact.assignment();
        let planned = alloc::current_bytes();
        let result = pipeline.try_run_planned(&artifact).expect("runs");
        let ran = alloc::current_bytes();
        assert!(result.plan.ptr_eq(&artifact));
        let (plan_bytes, run_bytes) = (planned - empty, ran.saturating_sub(planned));
        assert!(
            run_bytes * 20 < plan_bytes,
            "the run kept {run_bytes} B live beside a {plan_bytes} B plan"
        );
        // Partition, dependency graph and allocation are most of a plan:
        // until something reads them, the artifact holds at most half.
        let lazy_bytes = unscheduled - empty;
        assert!(
            lazy_bytes * 2 <= plan_bytes,
            "an unscheduled plan holds {lazy_bytes} B, a scheduled one {plan_bytes} B"
        );
    }

    #[test]
    fn block_parallel_allocates_nothing_per_update_pair() {
        use spfactor::matrix::gen;
        use spfactor::trace::alloc;
        use spfactor::{numeric, partition, sched, Partition, PartitionParams, SymbolicFactor};
        if !running_alone("enabled::block_parallel_allocates_nothing_per_update_pair") {
            return;
        }
        // lap9 40² at grain 25 on 4 processors: 707,509 update pairs over
        // 37,991 entries. Values, entry lists, row structure, channels
        // and the returned factor are a few tens of bytes per entry; a
        // script of the update pairs alone was 223.
        let pattern = gen::lap9(40, 40);
        let perm = spfactor::order::order(&pattern, spfactor::Ordering::paper_default());
        let a = gen::spd_from_pattern(&pattern.permute(&perm), 3);
        let f = SymbolicFactor::from_pattern(&a.pattern());
        let part = Partition::build(&f, &PartitionParams::with_grain(25));
        let deps = partition::dependencies(&f, &part);
        let assign = sched::block_allocation(&part, &deps, 4);
        alloc::reset_peak();
        let before = alloc::current_bytes();
        let factor = numeric::cholesky_block_parallel(&a, &f, &part, &deps, &assign).expect("SPD");
        let peak = alloc::peak_bytes() - before;
        assert_eq!(factor, numeric::cholesky(&a, &f).expect("SPD"));
        assert!(
            peak < 128 * f.num_entries(),
            "heap peak {peak} B over {} entries = {} B per entry",
            f.num_entries(),
            peak / f.num_entries()
        );
    }

    #[test]
    fn compressed_order_engine_emits_its_surface() {
        // Selecting the compressed engine records the engine counter,
        // the compression-ratio gauges and the weighted-MD work
        // counters (docs/METRICS.md); the direct engine records only
        // its own engine counter.
        let rec = Arc::new(Recorder::new());
        let p = spfactor::matrix::gen::grid5_fe(8, 8);
        let n = p.n() as f64;
        Pipeline::new(p.clone())
            .processors(4)
            .order_engine(spfactor::OrderEngine::Compressed)
            .with_recorder(rec.clone())
            .run();
        assert_eq!(rec.counter("order.engine.compressed"), 1);
        assert_eq!(rec.counter("order.engine.direct"), 0);
        assert_eq!(rec.gauge_value("order.compress.original"), Some(n));
        let nodes = rec
            .gauge_value("order.compress.nodes")
            .expect("nodes gauge");
        assert!(nodes >= 1.0 && nodes <= n);
        // A finite-element grid has indistinguishable columns.
        assert!(nodes < n, "grid5_fe should compress below {n} nodes");
        let ratio = rec
            .gauge_value("order.compress.ratio")
            .expect("ratio gauge");
        assert!((ratio - n / nodes).abs() < 1e-9);
        for counter in [
            "order.mmd.passes",
            "order.mmd.eliminations",
            "order.mmd.degree_updates",
        ] {
            assert!(
                rec.counter(counter) > 0,
                "counter {counter} missing or zero"
            );
        }

        let rec2 = Arc::new(Recorder::new());
        Pipeline::new(p)
            .processors(4)
            .with_recorder(rec2.clone())
            .run();
        assert_eq!(rec2.counter("order.engine.direct"), 1);
        assert_eq!(rec2.counter("order.engine.compressed"), 0);
        assert_eq!(rec2.gauge_value("order.compress.ratio"), None);
    }

    #[test]
    fn order_alg_counter_names_the_method() {
        let (_result, rec) = run_lap30_block();
        assert_eq!(rec.counter("order.alg.mmd"), 1);
        let rec2 = Arc::new(Recorder::new());
        Pipeline::new(spfactor::matrix::gen::lap9(6, 6))
            .ordering(spfactor::Ordering::ReverseCuthillMcKee)
            .with_recorder(rec2.clone())
            .run();
        assert_eq!(rec2.counter("order.alg.rcm"), 1);
        assert_eq!(rec2.counter("order.alg.mmd"), 0);
    }

    #[test]
    fn serve_layer_emits_its_documented_surface() {
        // The documented serve.* surface (docs/METRICS.md): cache
        // traffic counters mirror the cache's own stats, queue and
        // latency gauges are published, and builds/solves run under
        // their spans. The cache-miss build also lands the pipeline's
        // phase.* spans in the same recorder: ordering and symbolic only,
        // because the sequential kernel reads no schedule.
        use spfactor_serve::{ServeConfig, SolveRequest, SolverService, ValueBatch};

        let rec = Arc::new(Recorder::new());
        let service = SolverService::start(ServeConfig {
            cache_capacity: 2,
            queue_depth: 4,
            workers: 1,
            recorder: Some(rec.clone()),
            ..ServeConfig::default()
        });
        let pattern = spfactor::matrix::gen::lap9(8, 8);
        let values = spfactor::matrix::gen::spd_from_pattern(&pattern, 5);
        let rhs = vec![1.0; pattern.n()];
        let request = SolveRequest::new(pattern)
            .processors(4)
            .batch(ValueBatch::new(values).with_rhs(rhs));
        service.solve(request.clone()).unwrap();
        service.solve(request.clone()).unwrap();
        service.submit(request.clone()).unwrap().wait().unwrap();

        let stats = service.cache_stats();
        assert_eq!(rec.counter("serve.cache.hit"), stats.hits);
        assert_eq!(rec.counter("serve.cache.miss"), stats.misses);
        assert_eq!((stats.misses, stats.hits), (1, 2));
        assert_eq!(rec.counter("serve.requests"), 3);
        assert_eq!(rec.gauge_value("serve.queue.depth"), Some(0.0));
        for span in [
            "serve.build",
            "serve.solve",
            "phase.order",
            "phase.symbolic",
        ] {
            assert!(
                rec.span_stats(span).is_some(),
                "span {span} missing; recorded: {:?}",
                rec.span_names()
            );
        }
        for span in ["phase.partition", "phase.deps", "phase.sched"] {
            assert!(rec.span_stats(span).is_none(), "span {span} recorded");
        }
        assert_eq!(rec.span_stats("serve.build").unwrap().count, 1);
        assert_eq!(rec.span_stats("serve.solve").unwrap().count, 3);
        for gauge in [
            "serve.latency.p50_ms",
            "serve.latency.p90_ms",
            "serve.latency.p99_ms",
        ] {
            assert!(
                rec.gauge_value(gauge).is_some(),
                "gauge {gauge} missing; recorded: {:?}",
                rec.gauge_names()
            );
        }
        // Eviction and rejection counters appear once triggered.
        let other = SolveRequest::new(spfactor::matrix::gen::lap9(5, 5)).processors(2);
        let third = SolveRequest::new(spfactor::matrix::gen::lap9(6, 6)).processors(2);
        service.solve(other).unwrap();
        service.solve(third).unwrap();
        assert_eq!(
            rec.counter("serve.cache.evict"),
            service.cache_stats().evictions
        );
        assert!(service.cache_stats().evictions > 0);
        assert_eq!(rec.gauge_value("serve.cache.size"), Some(2.0));
        // Three patterns through two slots: all three permutations stay,
        // and the evicted one comes back without an ordering phase.
        assert_eq!(rec.gauge_value("serve.cache.orderings"), Some(3.0));
        assert_eq!(rec.counter("serve.cache.replan"), 0);
        let ordered = rec.span_stats("phase.order").unwrap().count;
        assert!(!service.solve(request).unwrap().cache_hit);
        assert_eq!(rec.counter("serve.cache.replan"), 1);
        assert_eq!(service.cache_stats().replans, 1);
        assert_eq!(rec.span_stats("phase.order").unwrap().count, ordered);
        assert_eq!(rec.span_stats("serve.build").unwrap().count, 4);
        assert_eq!(service.cold_builds(), 4);
        assert_eq!(rec.gauge_value("serve.cache.orderings"), Some(3.0));
    }

    #[test]
    fn serve_resilience_emits_its_documented_surface() {
        // The resilience additions to the serve.* surface
        // (docs/METRICS.md): deadline counters with per-stage leaves and
        // the warm-restart store counters.
        use spfactor_serve::{ServeConfig, SolveRequest, SolverService, ValueBatch};
        use std::time::Duration;

        let dir =
            std::env::temp_dir().join(format!("spfactor-metrics-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = Arc::new(Recorder::new());
        let service = SolverService::start(ServeConfig {
            recorder: Some(rec.clone()),
            store_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let pattern = spfactor::matrix::gen::lap9(5, 5);
        let values = spfactor::matrix::gen::spd_from_pattern(&pattern, 3);
        let request = SolveRequest::new(pattern)
            .processors(3)
            .batch(ValueBatch::new(values));

        // A zero deadline blows at the queue boundary, typed and counted.
        let _ = service.solve(request.clone().deadline(Duration::ZERO));
        assert_eq!(rec.counter("serve.deadline.exceeded"), 1);
        assert_eq!(rec.counter("serve.deadline.exceeded.queue"), 1);

        // The one cold build, then a hit, spills once to the store.
        service.solve(request.clone()).unwrap();
        service.solve(request.clone()).unwrap();
        assert_eq!(rec.counter("serve.store.spilled"), 1);

        // A restarted service over the same directory indexes the spill
        // and serves the pattern from disk.
        drop(service);
        let rec2 = Arc::new(Recorder::new());
        let service = SolverService::start(ServeConfig {
            recorder: Some(rec2.clone()),
            store_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        service.solve(request).unwrap();
        assert_eq!(rec2.counter("serve.store.loaded"), 1);
        assert_eq!(rec2.counter("serve.store.hit"), 1);
        assert_eq!(rec2.counter("serve.store.rejected"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrap_scheme_records_its_own_branch() {
        let rec = Arc::new(Recorder::new());
        let result = Pipeline::new(spfactor::matrix::gen::lap9(10, 10))
            .scheme(Scheme::Wrap)
            .processors(8)
            .with_recorder(rec.clone())
            .run();
        assert_eq!(
            rec.counter("sched.alloc.wrap_columns"),
            result.plan.partition().num_units() as u64
        );
        assert!(rec.span_stats("sched.wrap_allocation").is_some());
        assert!(rec.span_stats("partition.columns").is_some());
    }
}

/// Recording is opt-in per run: with no recorder attached and none in
/// scope the pipeline records nowhere — a recorder that merely exists
/// stays empty — and the result carries no metrics.
#[test]
fn unscoped_run_leaves_a_bystander_recorder_empty() {
    let bystander = Recorder::new();
    let m = spfactor::matrix::gen::paper::lap30();
    let result = Pipeline::new(m.pattern).grain(4).processors(16).run();
    assert!(result.metrics().is_none());
    assert!(bystander.counter_names().is_empty());
    assert!(bystander.gauge_names().is_empty());
    assert!(bystander.span_names().is_empty());
}
