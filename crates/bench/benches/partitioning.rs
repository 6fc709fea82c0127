//! Criterion benches for the partitioner and dependency engine — the
//! paper's automation cost (the price of replacing manual parallelization).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spfactor::partition::{dependencies, Partition, PartitionParams};
use spfactor::{Ordering, SymbolicFactor};

fn factor_of(m: &spfactor::matrix::gen::paper::TestMatrix) -> SymbolicFactor {
    let perm = spfactor::order::order(&m.pattern, Ordering::paper_default());
    SymbolicFactor::from_pattern(&m.pattern.permute(&perm))
}

fn bench_partition_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition_build");
    group.sample_size(20);
    for m in [
        spfactor::matrix::gen::paper::dwt512(),
        spfactor::matrix::gen::paper::lap30(),
    ] {
        let f = factor_of(&m);
        for grain in [4usize, 25] {
            group.bench_with_input(BenchmarkId::new(format!("g{grain}"), m.name), &f, |b, f| {
                b.iter(|| Partition::build(f, &PartitionParams::with_grain(grain)))
            });
        }
    }
    // The repository benchmark's `plan_grid` subject (BENCHMARK.json):
    // `partition.ms` and `partition.columns_ms` as `cargo bench` sees them.
    let m = spfactor::matrix::gen::paper::lap_grid(70);
    let f = factor_of(&m);
    group.bench_with_input(BenchmarkId::new("g25", m.name), &f, |b, f| {
        b.iter(|| Partition::build(f, &PartitionParams::with_grain(25)))
    });
    group.bench_with_input(BenchmarkId::new("columns", m.name), &f, |b, f| {
        b.iter(|| Partition::columns(f))
    });
    group.finish();
}

fn bench_dependencies(c: &mut Criterion) {
    let mut group = c.benchmark_group("dependencies");
    group.sample_size(10);
    for m in [
        spfactor::matrix::gen::paper::dwt512(),
        spfactor::matrix::gen::paper::lap30(),
    ] {
        let f = factor_of(&m);
        for grain in [4usize, 25] {
            let part = Partition::build(&f, &PartitionParams::with_grain(grain));
            group.bench_with_input(
                BenchmarkId::new(format!("g{grain}"), m.name),
                &(&f, &part),
                |b, (f, part)| b.iter(|| dependencies(f, part)),
            );
        }
    }
    group.finish();
}

fn bench_allocation(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocation");
    group.sample_size(30);
    let m = spfactor::matrix::gen::paper::lap30();
    let f = factor_of(&m);
    let part = Partition::build(&f, &PartitionParams::with_grain(4));
    let deps = dependencies(&f, &part);
    for nprocs in [4usize, 16, 32] {
        group.bench_with_input(BenchmarkId::new("block", nprocs), &nprocs, |b, &nprocs| {
            b.iter(|| spfactor::sched::block_allocation(&part, &deps, nprocs))
        });
    }
    let cols = Partition::columns(&f);
    group.bench_function("wrap/16", |b| {
        b.iter(|| spfactor::sched::wrap_allocation(&cols, 16))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_partition_build,
    bench_dependencies,
    bench_allocation
);
criterion_main!(benches);
