//! Cross-crate integration tests: the full pipeline from pattern to
//! simulation, checked for conservation laws and determinism.

use spfactor::{Ordering, Pipeline, Scheme};

#[test]
fn work_is_conserved_across_schemes_and_processor_counts() {
    let m = spfactor::matrix::gen::paper::dwt512();
    let mut totals = Vec::new();
    for nprocs in [1, 4, 16] {
        for scheme in [Scheme::Block, Scheme::Wrap] {
            let r = Pipeline::new(m.pattern.clone())
                .scheme(scheme)
                .processors(nprocs)
                .run();
            totals.push(r.work.total);
            // Per-processor work sums to the total.
            assert_eq!(r.work.per_proc.iter().sum::<usize>(), r.work.total);
            // Every unit was assigned a valid processor.
            assert!(r
                .plan
                .assignment()
                .proc_of_unit
                .iter()
                .all(|&p| (p as usize) < nprocs));
        }
    }
    assert!(
        totals.windows(2).all(|w| w[0] == w[1]),
        "total work must be independent of mapping: {totals:?}"
    );
}

#[test]
fn single_processor_has_no_traffic_and_zero_imbalance() {
    for m in [
        spfactor::matrix::gen::paper::dwt512(),
        spfactor::matrix::gen::paper::lap30(),
    ] {
        for scheme in [Scheme::Block, Scheme::Wrap] {
            let r = Pipeline::new(m.pattern.clone())
                .scheme(scheme)
                .processors(1)
                .run();
            assert_eq!(r.traffic.total, 0, "{} {scheme:?}", m.name);
            assert_eq!(r.work.imbalance(), 0.0);
            assert_eq!(r.work.efficiency(), 1.0);
        }
    }
}

#[test]
fn pipeline_deterministic_end_to_end() {
    let m = spfactor::matrix::gen::paper::dwt512();
    let a = Pipeline::new(m.pattern.clone())
        .grain(25)
        .processors(16)
        .run();
    let b = Pipeline::new(m.pattern.clone())
        .grain(25)
        .processors(16)
        .run();
    assert_eq!(a.plan.permutation(), b.plan.permutation());
    assert_eq!(a.traffic, b.traffic);
    assert_eq!(a.work, b.work);
    assert_eq!(a.plan.assignment(), b.plan.assignment());
}

#[test]
fn partition_units_cover_all_factor_entries() {
    let m = spfactor::matrix::gen::paper::dwt512();
    for grain in [4, 25] {
        let r = Pipeline::new(m.pattern.clone()).grain(grain).run();
        let owned: usize = r.plan.partition().units.iter().map(|u| u.elements).sum();
        assert_eq!(owned, r.plan.factor().num_entries());
        assert_eq!(
            r.plan.partition().total_work(),
            r.plan.factor().paper_work()
        );
    }
}

#[test]
fn dependency_graph_is_acyclic() {
    // Kahn's algorithm must consume every unit.
    let m = spfactor::matrix::gen::paper::lap30();
    let r = Pipeline::new(m.pattern.clone()).grain(4).run();
    let n = r.plan.partition().num_units();
    let mut indeg: Vec<usize> = (0..n).map(|u| r.plan.deps().preds(u).len()).collect();
    let mut queue: Vec<usize> = (0..n).filter(|&u| indeg[u] == 0).collect();
    let mut seen = 0;
    while let Some(u) = queue.pop() {
        seen += 1;
        for &s in r.plan.deps().succs(u) {
            indeg[s as usize] -= 1;
            if indeg[s as usize] == 0 {
                queue.push(s as usize);
            }
        }
    }
    assert_eq!(seen, n, "dependency graph has a cycle");
}

#[test]
fn timed_simulation_agrees_with_untimed_bounds() {
    // LAP30 has ample parallelism (units >> processors); the thin banded
    // DWT512 substitute would be critical-path-bound instead.
    let m = spfactor::matrix::gen::paper::lap30();
    let r = Pipeline::new(m.pattern.clone())
        .grain(4)
        .processors(8)
        .run();
    let model = spfactor::NetworkModel::free();
    let t = spfactor::simulate::timed::simulate_timed(
        r.plan.factor(),
        r.plan.partition(),
        r.plan.deps(),
        r.plan.assignment(),
        &model,
        spfactor::simulate::timed::OrderPolicy::ScanOrder,
        None,
    );
    // With free communication, makespan is bounded below by both the
    // busiest processor's work and the DAG's critical path, and above by
    // serializing everything.
    let cp = {
        let n = r.plan.partition().num_units();
        let mut indeg: Vec<usize> = (0..n).map(|u| r.plan.deps().preds(u).len()).collect();
        let mut dist: Vec<f64> = (0..n)
            .map(|u| r.plan.partition().units[u].work as f64)
            .collect();
        let mut q: std::collections::VecDeque<usize> = (0..n).filter(|&u| indeg[u] == 0).collect();
        let mut cp: f64 = 0.0;
        while let Some(u) = q.pop_front() {
            cp = cp.max(dist[u]);
            for &s in r.plan.deps().succs(u) {
                let s = s as usize;
                dist[s] = dist[s].max(dist[u] + r.plan.partition().units[s].work as f64);
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    q.push_back(s);
                }
            }
        }
        cp
    };
    assert!(t.makespan >= (r.work.max() as f64).max(cp) - 1e-9);
    assert!(t.makespan <= r.work.total as f64 + 1e-9);
    // DWT512's factor DAG is deep (critical path ≈ 30% of Wtot), so high
    // utilization is impossible at P = 8; demand consistency instead:
    // parallel execution must still beat one processor comfortably.
    assert!(
        t.speedup > 1.5,
        "speedup {} too low for {} units on 8 procs",
        t.speedup,
        r.plan.partition().num_units()
    );
}

#[test]
fn orderings_affect_fill_as_expected() {
    let m = spfactor::matrix::gen::paper::lap30();
    let fill = |o: Ordering| {
        Pipeline::new(m.pattern.clone())
            .ordering(o)
            .processors(1)
            .run()
            .plan
            .factor()
            .fill_in()
    };
    let natural = fill(Ordering::Natural);
    let mmd = fill(Ordering::paper_default());
    let nd = fill(Ordering::NestedDissection);
    assert!(mmd < natural, "MMD {mmd} !< natural {natural}");
    assert!(nd < natural, "ND {nd} !< natural {natural}");
}

#[test]
fn io_round_trip_through_pipeline() {
    // Write a generated matrix as Harwell-Boeing, read it back, and check
    // the pipeline produces identical results on both.
    let p = spfactor::matrix::gen::lap9(8, 8);
    let mut coo = spfactor::matrix::Coo::new(p.n());
    for j in 0..p.n() {
        coo.push(j, j, 1.0).unwrap();
        for &i in p.col(j) {
            coo.push(i, j, 1.0).unwrap();
        }
    }
    let mut buf = Vec::new();
    spfactor::matrix::io::write_hb_pattern(&mut buf, &coo, "pipeline round trip").unwrap();
    let back = spfactor::matrix::io::read_hb(buf.as_slice())
        .unwrap()
        .to_pattern();
    assert_eq!(back, p);
    let a = Pipeline::new(p).processors(4).run();
    let b = Pipeline::new(back).processors(4).run();
    assert_eq!(a.traffic, b.traffic);
}
