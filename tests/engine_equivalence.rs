//! Pinned equivalence: every simulation engine must return bit-identical
//! traffic and work reports on every paper matrix.
//!
//! The element engine is the oracle — it walks each update operation and
//! deduplicates remote fetches one element at a time. The block engine
//! (`Block`, also selected as `BlockParallel`) computes the same tallies
//! in closed form from unit-block geometry, one source run at a time, so
//! any divergence here means the interval algebra or the grouping by runs
//! miscounts. `tests/stress.rs` holds the engines to each other at
//! 40,000 columns (`--ignored`, release).

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
    // P = 16 — and the wrap partition of the same factor.
    let grid = spfactor::matrix::gen::lap9(70, 70);
    for scheme in [Scheme::Block, Scheme::Wrap] {
        let base = Pipeline::new(grid.clone())
            .grain(25)
            .scheme(scheme)
            .processors(16)
            .order_engine(spfactor::OrderEngine::Compressed)
            .deps_engine(spfactor::DepsEngine::SweepParallel)
            .run();
        for engine in [SimulateEngine::Block, SimulateEngine::BlockParallel] {
            let (traffic, work) = spfactor::simulate::simulate(
                engine,
                base.plan.factor(),
                base.plan.partition(),
                base.plan.assignment(),
            );
            assert_eq!(traffic, base.traffic, "{scheme:?} {engine:?}: traffic");
            assert_eq!(work, base.work, "{scheme:?} {engine:?}: work");
        }
    }
}

/// One subject of the grouped-path tests: a factor and a partition of it.
struct Subject {
    label: String,
    factor: spfactor::SymbolicFactor,
    partition: spfactor::Partition,
    wrap: bool,
}

/// Block partitions at every minimum cluster width the paper's Table 4
/// sweeps (and 1), relaxed clusters, a dense factor (one wide supernode)
/// and wrap partitions of wide supernodes.
fn grouped_subjects() -> Vec<Subject> {
    use spfactor::matrix::gen;
    use spfactor::{order, Partition, PartitionParams, SymbolicFactor};
    let factor_of = |p: &spfactor::SymmetricPattern| {
        let perm = order::order(p, spfactor::Ordering::paper_default());
        SymbolicFactor::from_pattern(&p.permute(&perm))
    };
    let dense = spfactor::SymmetricPattern::from_edges(
        12,
        (0..12usize).flat_map(|a| (a + 1..12).map(move |b| (b, a))),
    );
    let factors = [
        ("lap9 16x16", factor_of(&gen::lap9(16, 16))),
        ("grid5 9x9", factor_of(&gen::grid5(9, 9))),
        ("dense 12", SymbolicFactor::from_pattern(&dense)),
    ];
    let mut subjects = Vec::new();
    for (name, factor) in factors {
        for grain in [4, 25] {
            for width in [1, 2, 4, 8] {
                for relax in [0, 1, 3] {
                    let params = PartitionParams {
                        grain,
                        min_cluster_width: width,
                        relax_zeros: relax,
                    };
                    subjects.push(Subject {
                        label: format!("{name} grain {grain} width {width} relax {relax}"),
                        partition: Partition::build(&factor, &params),
                        factor: factor.clone(),
                        wrap: false,
                    });
                }
            }
        }
        subjects.push(Subject {
            label: format!("{name} wrap"),
            partition: Partition::columns(&factor),
            factor,
            wrap: true,
        });
    }
    for n in [0, 2] {
        let pattern = spfactor::SymmetricPattern::from_edges(n, (1..n).map(|i| (i, 0)));
        let factor = SymbolicFactor::from_pattern(&pattern);
        subjects.push(Subject {
            label: format!("{n} columns"),
            partition: Partition::columns(&factor),
            factor,
            wrap: true,
        });
    }
    subjects
}

/// The subjects reach every grouped path of the block engine: runs of
/// one, two and five or more columns, runs whose supernode shares the
/// clique below its cluster, supernodes split over several clusters, and
/// wrap partitions of wide supernodes (single-column runs sharing their
/// supernode's rows below).
#[test]
fn grouped_paths_all_occur_on_the_subjects() {
    use spfactor::partition::source_runs;
    use spfactor::symbolic::fundamental_supernodes;
    let (mut lengths, mut closing, mut split, mut wide_wrap) = ([false; 3], false, false, false);
    for s in grouped_subjects() {
        let mut runs = source_runs(&s.factor, &s.partition);
        while let Some(run) = runs.next_run() {
            match run.cols.len() {
                1 => lengths[0] = true,
                2 => lengths[1] = true,
                5.. => lengths[2] = true,
                _ => {}
            }
            closing |= run.closes > 0;
            wide_wrap |= s.wrap && run.closes >= 5;
        }
        let clusters = &s.partition.clusters;
        let cluster_of = |j: usize| clusters.partition_point(|c| c.cols.hi < j);
        split |= fundamental_supernodes(&s.factor)
            .iter()
            .any(|sn| cluster_of(sn.start) != cluster_of(sn.end - 1));
    }
    assert_eq!(lengths, [true; 3], "run lengths 1, 2, 5+");
    assert!(closing, "no run shares a below-cluster clique");
    assert!(split, "no supernode spans several clusters");
    assert!(wide_wrap, "no wrap partition of a wide supernode");
}

/// `Block` (and `BlockParallel`) equal the element oracle — every field
/// of both reports, `pair_matrix` included — on every grouped-path
/// subject at P = 1 (no traffic), 2 and 16.
#[test]
fn block_engine_equals_the_oracle_on_the_grouped_subjects() {
    use spfactor::partition::{build_dependencies, DepsEngine};
    use spfactor::sched::{block_allocation, wrap_allocation};
    use spfactor::simulate::simulate;
    for s in grouped_subjects() {
        let deps = build_dependencies(DepsEngine::Sweep, &s.factor, &s.partition);
        for nprocs in [1, 2, 16] {
            let a = if s.wrap {
                wrap_allocation(&s.partition, nprocs)
            } else {
                block_allocation(&s.partition, &deps, nprocs)
            };
            let label = format!("{} P={nprocs}", s.label);
            let oracle = simulate(SimulateEngine::Element, &s.factor, &s.partition, &a);
            if nprocs == 1 {
                assert_eq!(oracle.0.total, 0, "{label}");
            }
            for engine in [SimulateEngine::Block, SimulateEngine::BlockParallel] {
                let got = simulate(engine, &s.factor, &s.partition, &a);
                assert_eq!(got, oracle, "{label} {engine:?}");
            }
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

/// The two views of the §4 traffic rule that share one replay in
/// `crates/simulate` — the traffic report and the timed simulation's
/// per-unit transfers — count the same fetches.
#[test]
fn traffic_views_agree_on_all_paper_matrices() {
    use spfactor::simulate::timed::{simulate_timed, NetworkModel, OrderPolicy};
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
                &NetworkModel::default(),
                OrderPolicy::ScanOrder,
                Some(&sink),
            );
            let transferred: u64 = (sink.finish().events.iter())
                .filter_map(|e| match e.kind {
                    EventKind::TransferStart { bytes, .. } => Some(bytes / 8),
                    _ => None,
                })
                .sum();
            assert_eq!(transferred as usize, r.traffic.total, "{label}: timed");
        }
    }
}
