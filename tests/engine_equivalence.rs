//! Pinned equivalence: all three simulation engines must return
//! bit-identical traffic and work reports on every paper matrix.
//!
//! The element engine is the oracle — it walks each update operation and
//! deduplicates remote fetches one element at a time. The block engines
//! compute the same tallies in closed form from unit-block geometry, so
//! any divergence here means the interval algebra (or its parallel
//! merge) miscounts. This test is the repo-level witness behind the
//! `BENCH_pipeline.json` baseline, which only checks the matrices it
//! happens to time.

use spfactor::{Pipeline, Scheme, SimulateEngine};

fn assert_engines_agree(pattern: spfactor::SymmetricPattern, name: &str, scheme: Scheme) {
    for nprocs in [1usize, 4, 16] {
        let base = Pipeline::new(pattern.clone())
            .scheme(scheme)
            .processors(nprocs)
            .run();
        for engine in [SimulateEngine::Block, SimulateEngine::BlockParallel] {
            let r = Pipeline::new(pattern.clone())
                .scheme(scheme)
                .processors(nprocs)
                .engine(engine)
                .run();
            assert_eq!(
                r.traffic, base.traffic,
                "{name} P={nprocs} {scheme:?}: {engine:?} traffic diverges from element"
            );
            assert_eq!(
                r.work, base.work,
                "{name} P={nprocs} {scheme:?}: {engine:?} work diverges from element"
            );
        }
    }
}

#[test]
fn engines_identical_on_all_paper_matrices_block_scheme() {
    for m in spfactor::matrix::gen::paper::all() {
        assert_engines_agree(m.pattern, m.name, Scheme::Block);
    }
}

#[test]
fn engines_identical_on_all_paper_matrices_wrap_scheme() {
    for m in spfactor::matrix::gen::paper::all() {
        assert_engines_agree(m.pattern, m.name, Scheme::Wrap);
    }
}

#[test]
fn engines_identical_on_figure2_and_scaled_grid() {
    let fig2 = spfactor::matrix::gen::paper::fig2_grid();
    assert_engines_agree(fig2.pattern, fig2.name, Scheme::Block);
    let grid = spfactor::matrix::gen::paper::lap_grid(24);
    assert_engines_agree(grid.pattern, grid.name, Scheme::Block);
}

#[test]
fn engines_identical_on_the_benchmark_subject() {
    // `plan_grid` of the repository benchmark: lap9 70 x 70 at grain 25,
    // P = 16 — and the wrap partition of the same factor — with the
    // worker count pinned, not left to the machine.
    let grid = spfactor::matrix::gen::lap9(70, 70);
    for scheme in [Scheme::Block, Scheme::Wrap] {
        let base = Pipeline::new(grid.clone())
            .grain(25)
            .scheme(scheme)
            .processors(16)
            .order_engine(spfactor::OrderEngine::Compressed)
            .deps_engine(spfactor::DepsEngine::SweepParallel)
            .run();
        for threads in [1usize, 2, 5] {
            let (traffic, work) = spfactor::simulate::simulate_block(
                base.plan.factor(),
                base.plan.partition(),
                base.plan.assignment(),
                threads,
            );
            assert_eq!(traffic, base.traffic, "{scheme:?} T={threads}: traffic");
            assert_eq!(work, base.work, "{scheme:?} T={threads}: work");
        }
    }
}

/// `Pipeline::try_plan` stops at the symbolic factor and the artifact
/// derives its schedule on first use. Under every dependency engine that
/// schedule must be the one the layers called one by one build, frozen
/// eagerly with `ScheduleArtifact::new`: the same parts, fingerprint,
/// text, reports and store round trip.
#[test]
fn a_lazily_scheduled_plan_equals_the_eager_chain() {
    use spfactor::sched::{self, read_artifact_text, rebuild_artifact, ScheduleArtifact};
    use spfactor::{order, partition, DepsEngine, Partition, SymbolicFactor};

    for m in spfactor::matrix::gen::paper::all() {
        for scheme in [Scheme::Block, Scheme::Wrap] {
            for engine in [
                DepsEngine::Element,
                DepsEngine::Sweep,
                DepsEngine::SweepParallel,
            ] {
                let label = format!("{} {scheme:?} {engine:?}", m.name);
                let pipeline = Pipeline::new(m.pattern.clone())
                    .scheme(scheme)
                    .processors(16)
                    .deps_engine(engine);
                let key = pipeline.key();
                let lazy = pipeline.try_plan().expect("plans");

                let perm = order::order_with_engine(&m.pattern, key.ordering, key.order_engine);
                let factor = SymbolicFactor::from_pattern(&m.pattern.permute(&perm));
                let part = match scheme {
                    Scheme::Block => Partition::build(&factor, &key.params),
                    Scheme::Wrap => Partition::columns(&factor),
                };
                let deps = partition::build_dependencies(engine, &factor, &part);
                let assignment = match scheme {
                    Scheme::Block => sched::block_allocation(&part, &deps, key.nprocs),
                    Scheme::Wrap => sched::wrap_allocation(&part, key.nprocs),
                };
                let eager = ScheduleArtifact::new(key, perm, factor, part, deps, assignment);

                assert_eq!(lazy.fingerprint(), eager.fingerprint(), "{label}");
                assert_eq!(lazy.to_text(), eager.to_text(), "{label}");
                assert_eq!(
                    format!("{:?}", lazy.partition()),
                    format!("{:?}", eager.partition()),
                    "{label}"
                );
                assert_eq!(lazy.deps(), eager.deps(), "{label}");
                assert_eq!(lazy.assignment(), eager.assignment(), "{label}");

                let (l, e) = (
                    pipeline.try_run_planned(&lazy).expect("runs"),
                    pipeline.try_run_planned(&eager).expect("runs"),
                );
                assert_eq!((l.traffic, l.work), (e.traffic, e.work), "{label}");
                let dump = read_artifact_text(lazy.to_text().as_bytes()).expect("parses");
                let rebuilt = rebuild_artifact(&m.pattern, &dump).expect("rebuilds");
                assert_eq!(rebuilt.to_text(), lazy.to_text(), "{label}");
            }
        }
    }
}

/// The three views of the §4 traffic rule that share one replay in
/// `crates/simulate` — the traffic report, the timed simulation's
/// per-unit transfers and the consolidation analysis — count the same
/// fetches, and the consolidated message count is the number of distinct
/// (source unit, destination processor) pairs, counted here without it.
#[test]
fn traffic_views_agree_on_all_paper_matrices() {
    use spfactor::simulate::consolidate::consolidated_traffic;
    use spfactor::simulate::timed::{simulate_timed, CommModel, OrderPolicy};
    use spfactor::symbolic::ops;
    use spfactor::trace::timeline::{EventKind, TimelineSink};

    for m in spfactor::matrix::gen::paper::all() {
        for scheme in [Scheme::Block, Scheme::Wrap] {
            let label = format!("{} {scheme:?}", m.name);
            let r = Pipeline::new(m.pattern.clone())
                .scheme(scheme)
                .processors(16)
                .run();
            let (factor, partition) = (r.plan.factor(), r.plan.partition());
            let assignment = r.plan.assignment();

            let sink = TimelineSink::new();
            simulate_timed(
                factor,
                partition,
                r.plan.deps(),
                assignment,
                &CommModel::default(),
                OrderPolicy::ScanOrder,
                Some(&sink),
            );
            let transferred: u64 = (sink.finish().events.iter())
                .filter_map(|e| match e.kind {
                    EventKind::TransferStart { bytes, .. } => Some(bytes / 8),
                    _ => None,
                })
                .sum();
            let consolidated = consolidated_traffic(factor, partition, assignment);
            assert_eq!(transferred as usize, r.traffic.total, "{label}: timed");
            assert_eq!(consolidated.volume, r.traffic.total, "{label}: volume");

            let owner = partition.owner_map();
            let unit_of = |i, j| owner[factor.entry_id(i, j).expect("factor entry")] as usize;
            let mut pairs = std::collections::HashSet::new();
            let mut read = |src_unit: usize, tgt_unit: usize| {
                let dst = assignment.proc_of(tgt_unit);
                if assignment.proc_of(src_unit) != dst {
                    pairs.insert((src_unit, dst));
                }
            };
            ops::for_each_update(factor, |op| {
                let target = unit_of(op.i, op.j);
                read(unit_of(op.i, op.k), target);
                read(unit_of(op.j, op.k), target);
            });
            ops::for_each_scaling(factor, |i, j| read(unit_of(j, j), unit_of(i, j)));
            assert_eq!(consolidated.messages, pairs.len(), "{label}: messages");
        }
    }
}
