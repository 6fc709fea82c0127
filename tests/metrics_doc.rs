//! `docs/METRICS.md` checked against the code, both ways: every span,
//! counter and gauge the stack records has a row in the table of its
//! kind, and every row names something a run actually records. There is
//! no allow-list — a stale row or an undocumented metric fails here.
//!
//! A row's name is the first back-ticked string of its first cell;
//! `<placeholder>` segments (`order.alg.<name>`, `mp.proc.<p>.work`)
//! match any one dot-free segment.

use spfactor::simulate::timed::{simulate_timed, CommModel, OrderPolicy};
use spfactor::trace::{self, json, regress};
use spfactor::{
    numeric, DepsEngine, ExecutionBackend, FaultPlan, NetworkModel, OrderEngine, Pipeline,
    Recorder, Scheme, SimulateEngine,
};
use spfactor_serve::{
    ScheduleCache, ServeConfig, ServeError, SolveRequest, SolverService, ValueBatch,
};
use std::collections::BTreeSet;
use std::sync::{mpsc, Arc};
use std::time::Duration;

// Installed so the `phase.*.peak_bytes` gauges are live in this binary.
#[global_allocator]
static ALLOC: trace::alloc::TrackingAllocator = trace::alloc::TrackingAllocator::new();

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Span,
    Counter,
    Gauge,
}

/// The `(kind, name)` of every table row under the document's three
/// top-level metric sections.
fn documented_rows() -> BTreeSet<(Kind, String)> {
    let doc = include_str!("../docs/METRICS.md");
    let mut kind = None;
    let mut rows = BTreeSet::new();
    for line in doc.lines() {
        if let Some(title) = line.strip_prefix("## ") {
            kind = match title.split_whitespace().next() {
                Some("Spans") => Some(Kind::Span),
                Some("Counters") => Some(Kind::Counter),
                Some("Gauges") => Some(Kind::Gauge),
                _ => None,
            };
        }
        let (Some(kind), Some(cell)) = (kind, line.strip_prefix("| `")) else {
            continue;
        };
        let name = cell.split('`').next().expect("split yields a first piece");
        assert!(
            rows.insert((kind, name.to_string())),
            "{kind:?} `{name}` has two rows"
        );
    }
    rows
}

/// Whether a documented name (possibly with `<placeholder>` segments)
/// covers a recorded one.
fn covers(row: &str, recorded: &str) -> bool {
    let (mut row, mut recorded) = (row.split('.'), recorded.split('.'));
    loop {
        match (row.next(), recorded.next()) {
            (None, None) => return true,
            (Some(r), Some(n)) if r == n || (r.starts_with('<') && r.ends_with('>')) => {}
            _ => return false,
        }
    }
}

fn lap9_request(side: usize, seed: u64) -> SolveRequest {
    let pattern = spfactor::matrix::gen::lap9(side, side);
    let values = spfactor::matrix::gen::spd_from_pattern(&pattern, seed);
    let rhs = vec![1.0; pattern.n()];
    SolveRequest::new(pattern)
        .processors(3)
        .batch(ValueBatch::new(values).with_rhs(rhs))
}

/// Every pipeline configuration `tests/metrics_surface.rs` drives.
fn drive_pipelines(rec: &Arc<Recorder>) {
    let grid = spfactor::matrix::gen::lap9(10, 10);
    let pipeline = |p: &spfactor::SymmetricPattern| {
        Pipeline::new(p.clone())
            .processors(4)
            .with_recorder(rec.clone())
    };
    pipeline(&grid).run();
    pipeline(&grid).scheme(Scheme::Wrap).run();
    for (deps, sim) in [
        (DepsEngine::Sweep, SimulateEngine::Block),
        (DepsEngine::SweepParallel, SimulateEngine::BlockParallel),
    ] {
        pipeline(&grid).deps_engine(deps).engine(sim).run();
    }
    pipeline(&spfactor::matrix::gen::grid5_fe(6, 6))
        .order_engine(OrderEngine::Compressed)
        .run();
    let mp = ExecutionBackend::MessagePassing(NetworkModel::default());
    pipeline(&grid).backend(mp).timeline(true).run();
    pipeline(&grid)
        .backend(mp)
        .fault_plan(FaultPlan::chaos(7))
        .run();
}

/// What `crates/bench/src/bin/metrics.rs` adds to its pipeline run, the
/// same way: one scope around the two extra calls.
fn drive_metrics_bin_extras(rec: &Arc<Recorder>) {
    let _scope = trace::scope(rec);
    let pattern = spfactor::matrix::gen::lap9(10, 10);
    let result = Pipeline::new(pattern.clone()).processors(4).run();
    simulate_timed(
        result.plan.factor(),
        result.plan.partition(),
        result.plan.deps(),
        result.plan.assignment(),
        &CommModel::default(),
        OrderPolicy::ScanOrder,
        None,
    );
    let _phase = rec.span("phase.numeric");
    let a =
        spfactor::matrix::gen::spd_from_pattern(&pattern.permute(result.plan.permutation()), 42);
    numeric::cholesky_block_parallel(
        &a,
        result.plan.factor(),
        result.plan.partition(),
        result.plan.deps(),
        result.plan.assignment(),
    )
    .unwrap();
}

fn drive_bench_gate(rec: &Recorder) {
    let base = json::parse(r#"{"phases_ms": {"order": 10.0}}"#).unwrap();
    let cand = json::parse(r#"{"phases_ms": {"order": 13.0}}"#).unwrap();
    regress::compare(&base, &cand, &regress::RegressOptions::default()).record(rec);
}

/// The serve surface: a miss-then-hit round, and one drill per failure
/// counter (the drills of `tests/metrics_surface.rs`, `serve_cache.rs`
/// and `chaos_serve.rs`, shortened).
fn drive_serve(rec: &Arc<Recorder>) {
    let dir = std::env::temp_dir().join(format!("spfactor-metrics-doc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        cache_capacity: 1,
        recorder: Some(rec.clone()),
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };

    let service = SolverService::start(config.clone());
    let request = lap9_request(5, 3);
    // Miss (cold build, spilled to the store), then hit.
    service.solve(request.clone()).unwrap();
    service.submit(request.clone()).unwrap().wait().unwrap();
    // A second pattern overflows the one-entry cache: eviction.
    service.solve(lap9_request(6, 4)).unwrap();
    // Zero budget: blown at the queue boundary.
    assert!(matches!(
        service.solve(request.clone().deadline(Duration::ZERO)),
        Err(ServeError::DeadlineExceeded { .. })
    ));
    // The evicted pattern again: re-planned from its remembered permutation.
    service.solve(request).unwrap();
    drop(service);

    // Restart over the same directory: the spill is indexed and served.
    let service = SolverService::start(config);
    service.solve(lap9_request(6, 4)).unwrap();
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);

    // One wedged worker and a depth-1 queue: flooding must overload.
    let service = SolverService::start(ServeConfig {
        queue_depth: 1,
        workers: 1,
        recorder: Some(rec.clone()),
        ..ServeConfig::default()
    });
    let mut tickets = vec![service.submit(lap9_request(30, 1)).unwrap()];
    tickets.extend((0..8).filter_map(|_| service.submit(lap9_request(4, 2)).ok()));
    assert!(service.rejected() > 0, "flooding a depth-1 queue overloads");
    for t in tickets {
        t.wait().unwrap();
    }

    // Single-flight: the builder holds its flight open until the second
    // lookup has been counted as a wait.
    let cache = ScheduleCache::new(2);
    let pipeline = Pipeline::new(spfactor::matrix::gen::lap9(4, 4)).processors(2);
    let (started_tx, started_rx) = mpsc::channel();
    let _scope = spfactor::trace::scope(rec);
    std::thread::scope(|s| {
        s.spawn(|| {
            let _scope = spfactor::trace::scope(rec);
            cache
                .get_or_build(pipeline.key(), || {
                    started_tx.send(()).unwrap();
                    while cache.stats().waits == 0 {
                        std::thread::yield_now();
                    }
                    Ok(pipeline.plan())
                })
                .unwrap();
        });
        started_rx.recv().unwrap();
        cache
            .get_or_build(pipeline.key(), || unreachable!("coalesced onto the flight"))
            .unwrap();
    });
}

#[test]
fn metrics_doc_matches_the_recorded_surface() {
    let rec = Arc::new(Recorder::new());
    drive_pipelines(&rec);
    drive_metrics_bin_extras(&rec);
    drive_bench_gate(&rec);
    drive_serve(&rec);

    let recorded: Vec<(Kind, String)> = [
        (Kind::Span, rec.span_names()),
        (Kind::Counter, rec.counter_names()),
        (Kind::Gauge, rec.gauge_names()),
    ]
    .into_iter()
    .flat_map(|(kind, names)| names.into_iter().map(move |n| (kind, n)))
    .collect();
    let rows = documented_rows();

    let undocumented: Vec<_> = recorded
        .iter()
        .filter(|(kind, name)| !rows.iter().any(|(k, row)| k == kind && covers(row, name)))
        .collect();
    let stale: Vec<_> = rows
        .iter()
        .filter(|(kind, row)| {
            !recorded
                .iter()
                .any(|(k, name)| k == kind && covers(row, name))
        })
        .collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "docs/METRICS.md disagrees with the code.\n\
         recorded, but no row of that kind: {undocumented:#?}\n\
         row, but nothing recorded it: {stale:#?}"
    );
}
