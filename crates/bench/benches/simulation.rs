//! Criterion benches for the machine model: traffic accounting (the cost
//! of regenerating Tables 2 and 5) and the timed DAG execution.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spfactor::{Pipeline, Scheme};

fn bench_traffic(c: &mut Criterion) {
    let mut group = c.benchmark_group("data_traffic");
    group.sample_size(10);
    let m = spfactor::matrix::gen::paper::lap30();
    for (label, scheme, grain) in [
        ("block_g4", Scheme::Block, 4usize),
        ("block_g25", Scheme::Block, 25),
        ("wrap", Scheme::Wrap, 4),
    ] {
        let r = Pipeline::new(m.pattern.clone())
            .scheme(scheme)
            .grain(grain)
            .processors(16)
            .run();
        group.bench_with_input(BenchmarkId::new(label, m.name), &r, |b, r| {
            b.iter(|| {
                spfactor::simulate::data_traffic(
                    r.plan.factor(),
                    r.plan.partition(),
                    r.plan.assignment(),
                )
            })
        });
    }
    group.finish();
}

fn bench_timed(c: &mut Criterion) {
    let mut group = c.benchmark_group("timed_simulation");
    group.sample_size(10);
    let m = spfactor::matrix::gen::paper::lap30();
    let r = Pipeline::new(m.pattern.clone())
        .grain(4)
        .processors(16)
        .run();
    let model = spfactor::simulate::timed::NetworkModel::default();
    group.bench_function("lap30_g4_p16", |b| {
        b.iter(|| {
            spfactor::simulate::timed::simulate_timed(
                r.plan.factor(),
                r.plan.partition(),
                r.plan.deps(),
                r.plan.assignment(),
                &model,
                spfactor::simulate::timed::OrderPolicy::ScanOrder,
                None,
            )
        })
    });
    group.finish();
}

fn bench_full_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    for m in [
        spfactor::matrix::gen::paper::dwt512(),
        spfactor::matrix::gen::paper::lap30(),
    ] {
        group.bench_with_input(BenchmarkId::new("block_g4_p16", m.name), &m, |b, m| {
            b.iter(|| {
                Pipeline::new(m.pattern.clone())
                    .grain(4)
                    .processors(16)
                    .run()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_traffic, bench_timed, bench_full_pipeline);
criterion_main!(benches);
