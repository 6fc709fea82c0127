//! Criterion benches for the ordering stage: MMD (the paper's choice) on
//! the oracle and under both engines, against RCM and nested dissection,
//! on the paper's matrices; `plan_subjects`, the repository benchmark's
//! own inputs, comes first in the output.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spfactor::{OrderEngine, Ordering};

fn bench_orderings(c: &mut Criterion) {
    let mut group = c.benchmark_group("ordering");
    group.sample_size(10);
    for m in [
        spfactor::matrix::gen::paper::dwt512(),
        spfactor::matrix::gen::paper::lap30(),
        spfactor::matrix::gen::paper::bus1138(),
    ] {
        for (label, method) in [
            ("mmd", Ordering::MultipleMinimumDegree { delta: 0 }),
            ("rcm", Ordering::ReverseCuthillMcKee),
            ("nd", Ordering::NestedDissection),
        ] {
            group.bench_with_input(BenchmarkId::new(label, m.name), &m.pattern, |b, pattern| {
                b.iter(|| spfactor::order::order(pattern, method))
            });
        }
        let id = BenchmarkId::new("mmd-oracle", m.name);
        group.bench_with_input(id, &m.pattern, |b, pattern| {
            b.iter(|| spfactor::order::mmd::multiple_minimum_degree(pattern, 0))
        });
        let id = BenchmarkId::new("mmd-compressed", m.name);
        group.bench_with_input(id, &m.pattern, |b, pattern| {
            let mmd = Ordering::paper_default();
            b.iter(|| spfactor::order::order_with_engine(pattern, mmd, OrderEngine::Compressed))
        });
    }
    group.finish();
}

/// The repository benchmark's own ordering subjects (`plan_grid`'s lap9
/// 70² and the heaviest of `plan_paper`'s matrices), so the order layer
/// has a microbench beside its end-to-end number.
fn bench_plan_subjects(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_subjects");
    group.sample_size(20);
    let mmd = Ordering::paper_default();
    for (name, pattern) in [
        ("lap9_70", spfactor::matrix::gen::lap9(70, 70)),
        ("CANN1072", spfactor::matrix::gen::paper::cann1072().pattern),
    ] {
        for engine in [OrderEngine::Direct, OrderEngine::Compressed] {
            let id = BenchmarkId::new(engine.name(), name);
            group.bench_with_input(id, &pattern, |b, pattern| {
                b.iter(|| spfactor::order::order_with_engine(pattern, mmd, engine))
            });
        }
        let id = BenchmarkId::new("oracle", name);
        group.bench_with_input(id, &pattern, |b, pattern| {
            b.iter(|| spfactor::order::mmd::multiple_minimum_degree(pattern, 0))
        });
    }
    group.finish();
}

fn bench_etree_and_symbolic(c: &mut Criterion) {
    let mut group = c.benchmark_group("symbolic");
    group.sample_size(20);
    for m in [
        spfactor::matrix::gen::paper::lap30(),
        spfactor::matrix::gen::paper::cann1072(),
    ] {
        let perm = spfactor::order::order(&m.pattern, Ordering::paper_default());
        let pp = m.pattern.permute(&perm);
        group.bench_with_input(BenchmarkId::new("factor", m.name), &pp, |b, pp| {
            b.iter(|| spfactor::SymbolicFactor::from_pattern(pp))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_plan_subjects,
    bench_orderings,
    bench_etree_and_symbolic
);
criterion_main!(benches);
