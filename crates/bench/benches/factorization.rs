//! Criterion benches for the numerical phase: sequential and supernodal
//! Cholesky, the two executors of the unit-block schedule, and the
//! triangular solves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spfactor::numeric::{
    cholesky, cholesky_block_parallel, cholesky_supernodal, solve, solve_many_permuted,
};
use spfactor::partition::build_dependencies;
use spfactor::{DepsEngine, NetworkModel, Ordering, Partition, PartitionParams, SymbolicFactor};

fn setup(
    m: &spfactor::matrix::gen::paper::TestMatrix,
) -> (spfactor::matrix::SymmetricCsc, SymbolicFactor) {
    let perm = spfactor::order::order(&m.pattern, Ordering::paper_default());
    let a = spfactor::matrix::gen::spd_from_pattern(&m.pattern.permute(&perm), 1);
    let f = SymbolicFactor::from_pattern(&a.pattern());
    (a, f)
}

fn bench_cholesky(c: &mut Criterion) {
    let mut group = c.benchmark_group("cholesky");
    group.sample_size(20);
    for m in [
        spfactor::matrix::gen::paper::dwt512(),
        spfactor::matrix::gen::paper::lap30(),
    ] {
        let (a, f) = setup(&m);
        group.bench_with_input(
            BenchmarkId::new("sequential", m.name),
            &(&a, &f),
            |b, (a, f)| b.iter(|| cholesky(a, f).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("supernodal", m.name),
            &(&a, &f),
            |b, (a, f)| b.iter(|| cholesky_supernodal(a, f, 0).unwrap()),
        );
        // The paper's own schedule, executed numerically.
        let part = Partition::build(&f, &PartitionParams::with_grain(25));
        let deps = build_dependencies(DepsEngine::Sweep, &f, &part);
        let assign = spfactor::sched::block_allocation(&part, &deps, 8);
        group.bench_with_input(
            BenchmarkId::new("block_schedule_p8", m.name),
            &(&a, &f, &part, &deps, &assign),
            |b, (a, f, part, deps, assign)| {
                b.iter(|| cholesky_block_parallel(a, f, part, deps, assign).unwrap())
            },
        );
    }
    group.finish();
}

fn bench_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("triangular_solve");
    group.sample_size(50);
    let m = spfactor::matrix::gen::paper::lap30();
    let (a, f) = setup(&m);
    let l = cholesky(&a, &f).unwrap();
    let b0: Vec<f64> = (0..a.n()).map(|i| (i as f64).sin()).collect();
    group.bench_function("forward_backward_lap30", |bch| {
        bch.iter(|| {
            let mut x = b0.clone();
            solve::lower_solve(&l, &mut x);
            solve::upper_solve(&l, &mut x);
            x
        })
    });
    group.finish();
}

/// The repository benchmark's `factor_grid` subject (BENCHMARK.json),
/// lap9 80² under MMD: `numeric.cholesky_ms`, `numeric.solve_ms` (eight
/// right-hand sides) and `matrix.permute_values_ms` as `cargo bench` sees
/// them, plus its traced profile's two schedule executors on the same
/// grain-25, two-processor plan (`numeric.block_parallel_ms`,
/// `mp.execute_ms`).
fn bench_factor_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("factor_grid");
    group.sample_size(30);
    let m = spfactor::matrix::gen::paper::lap_grid(80);
    let perm = spfactor::order::order(&m.pattern, Ordering::paper_default());
    let a = spfactor::matrix::gen::spd_from_pattern(&m.pattern, 1);
    let pa = a.permute(&perm);
    let f = SymbolicFactor::from_pattern(&pa.pattern());
    let l = cholesky(&pa, &f).unwrap();
    let rhs: Vec<Vec<f64>> = (0..8)
        .map(|k| (0..a.n()).map(|i| ((i + k) as f64).sin()).collect())
        .collect();
    group.bench_function(BenchmarkId::new("cholesky", m.name), |b| {
        b.iter(|| cholesky(&pa, &f).unwrap())
    });
    group.bench_function(BenchmarkId::new("solve_x8", m.name), |b| {
        b.iter(|| solve_many_permuted(&l, &perm, &rhs))
    });
    group.bench_function(BenchmarkId::new("permute", m.name), |b| {
        b.iter(|| a.permute(&perm))
    });
    let part = Partition::build(&f, &PartitionParams::with_grain(25));
    let deps = build_dependencies(DepsEngine::Sweep, &f, &part);
    let assign = spfactor::sched::block_allocation(&part, &deps, 2);
    group.bench_function(BenchmarkId::new("block_parallel_p2", m.name), |b| {
        b.iter(|| cholesky_block_parallel(&pa, &f, &part, &deps, &assign).unwrap())
    });
    let free = NetworkModel::free();
    group.bench_function(BenchmarkId::new("mp_p2", m.name), |b| {
        b.iter(|| spfactor::mp::execute(&pa, &f, &part, &deps, &assign, &free).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_factor_grid, bench_cholesky, bench_solve);
criterion_main!(benches);
