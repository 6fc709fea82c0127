//! Solver-service benchmark — replays a seeded, Zipf-skewed
//! mixed-tenant trace against `spfactor-serve` and writes
//! `BENCH_serve.json`.
//!
//! The workload models the repeated-solve setting the schedule cache
//! exists for: a handful of *tenants* (each a distinct sparsity pattern
//! with its own front-end parameters) issue a stream of numeric solve
//! requests whose tenant popularity follows a Zipf law — a few hot
//! patterns dominate, a tail of cold ones recurs occasionally. The
//! binary measures:
//!
//! * **cold vs amortized cost** — per-tenant latency of the first
//!   (cache-miss) request vs the steady-state (cache-hit) request, and
//!   the resulting amortized speedup at a 0.9 hit rate;
//! * **served throughput** — closed-loop replay through the bounded
//!   queue with several client threads: requests/s, cache hit rate,
//!   client-observed p50/p99 latency, and admission rejections;
//! * **wrap vs block under serve** — the same trace under both mapping
//!   schemes (the paper's central comparison, here measured as service
//!   throughput rather than simulated traffic);
//! * **hit rate vs cache size** — the same trace replayed against
//!   shrinking cache capacities, showing LRU behaviour under skew, and
//!   beside it what a miss costs there: how many were re-planned from a
//!   remembered permutation, and the mean latency of a missing request;
//! * **latency under faults** — the message-passing kernel solving a
//!   warm tenant at injected fault rates 0 / 1% / 10% (message drops at
//!   that rate, plus a processor crash on that fraction of requests):
//!   amortized latency and the fraction of requests failover degraded
//!   below the requested kernel (see `docs/SERVING.md`).
//!
//! ```text
//! cargo run --release -p spfactor-bench --bin bench_serve
//! cargo run --release -p spfactor-bench --bin bench_serve -- --smoke
//! cargo run --release -p spfactor-bench --bin bench_serve -- --out /tmp/b.json
//! ```
//!
//! `--smoke` shrinks the trace to a few requests over tiny grids so CI
//! can validate the JSON schema quickly; the schema is identical. A
//! full run additionally enforces the repo's amortization acceptance
//! bar: at a ≥0.9 hit rate the cached path must be at least 5× faster
//! than the cold path.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spfactor::matrix::gen::{self, paper};
use spfactor::matrix::SymmetricCsc;
use spfactor::mp::CrashPlan;
use spfactor::{FaultPlan, SymmetricPattern};
use spfactor_serve::{
    KernelKind, ResilienceConfig, ServeConfig, ServeError, SolveRequest, SolverService, ValueBatch,
};

/// Schema identifier validated by `scripts/verify.sh`. `/2` added the
/// `fault_sweep` section (amortized latency and degraded-request
/// fraction per injected fault rate).
const SCHEMA: &str = "spfactor-bench-serve/2";

/// Seed for the trace (tenant sequence) and the per-tenant SPD values.
const TRACE_SEED: u64 = 0x5eed_5e12;

/// Zipf skew exponent for tenant popularity.
const ZIPF_S: f64 = 1.1;

/// One tenant: a sparsity pattern plus its fixed front-end parameters,
/// with pre-generated values and right-hand side so request
/// construction costs nothing measurable inside the timed loop.
struct Tenant {
    name: String,
    pattern: SymmetricPattern,
    values: SymmetricCsc,
    rhs: Vec<f64>,
    nprocs: usize,
}

impl Tenant {
    fn new(name: &str, pattern: SymmetricPattern, nprocs: usize, seed: u64) -> Self {
        let values = gen::spd_from_pattern(&pattern, seed);
        let n = pattern.n();
        let rhs = (0..n).map(|i| ((i as f64) * 0.37).sin()).collect();
        Tenant {
            name: name.to_string(),
            pattern,
            values,
            rhs,
            nprocs,
        }
    }

    fn request(&self, scheme: spfactor::Scheme) -> SolveRequest {
        SolveRequest::new(self.pattern.clone())
            .processors(self.nprocs)
            .scheme(scheme)
            .batch(ValueBatch::new(self.values.clone()).with_rhs(self.rhs.clone()))
    }
}

/// Zipf-distributed tenant indices: tenant `r` (0-based popularity
/// rank) drawn with probability proportional to `1 / (r + 1)^s`.
fn zipf_trace(tenants: usize, len: usize, s: f64, seed: u64) -> Vec<usize> {
    let weights: Vec<f64> = (0..tenants)
        .map(|r| 1.0 / ((r + 1) as f64).powf(s))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(tenants);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let u: f64 = rng.gen();
            cdf.iter().position(|&c| u < c).unwrap_or(tenants - 1)
        })
        .collect()
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

struct ReplayStats {
    scheme: &'static str,
    throughput_rps: f64,
    hit_rate: f64,
    p50_ms: f64,
    p99_ms: f64,
    rejected: u64,
}

/// Closed-loop replay: `clients` threads split the trace, each
/// submitting through the bounded queue and retrying (with a short
/// backoff) on admission rejection. Latency is client-observed:
/// submit→response, including any requeue time.
fn replay(
    tenants: &[Tenant],
    trace: &[usize],
    scheme: spfactor::Scheme,
    clients: usize,
    config: ServeConfig,
) -> ReplayStats {
    let service = SolverService::start(config);
    let latencies = Mutex::new(Vec::with_capacity(trace.len()));
    let started = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let service = &service;
            let latencies = &latencies;
            let slice: Vec<usize> = trace.iter().copied().skip(c).step_by(clients).collect();
            s.spawn(move || {
                let mut mine = Vec::with_capacity(slice.len());
                for &t in &slice {
                    let req_started = Instant::now();
                    let ticket = loop {
                        match service.submit(tenants[t].request(scheme)) {
                            Ok(ticket) => break ticket,
                            Err(ServeError::Overloaded { .. }) => {
                                std::thread::sleep(std::time::Duration::from_micros(200));
                            }
                            Err(e) => panic!("submit failed: {e}"),
                        }
                    };
                    ticket.wait().expect("solve failed");
                    mine.push(req_started.elapsed().as_secs_f64() * 1e3);
                }
                latencies.lock().unwrap().extend(mine);
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    let mut lat = latencies.into_inner().unwrap();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let stats = service.cache_stats();
    ReplayStats {
        scheme: match scheme {
            spfactor::Scheme::Block => "block",
            spfactor::Scheme::Wrap => "wrap",
        },
        throughput_rps: trace.len() as f64 / wall,
        hit_rate: stats.hit_rate(),
        p50_ms: percentile(&lat, 0.50),
        p99_ms: percentile(&lat, 0.99),
        rejected: service.rejected(),
    }
}

/// Cold-vs-amortized measurement: per tenant, one cache-miss request
/// followed by `hits_per_tenant` cache-hit requests, all synchronous.
/// Returns (mean cold ms, mean amortized ms, hit rate over the phase).
fn amortization(tenants: &[Tenant], hits_per_tenant: usize) -> (f64, f64, f64) {
    let service = SolverService::start(ServeConfig {
        cache_capacity: tenants.len(),
        ..ServeConfig::default()
    });
    let mut cold = 0.0;
    let mut warm = 0.0;
    for t in tenants {
        let started = Instant::now();
        let resp = service.solve(t.request(spfactor::Scheme::Block)).unwrap();
        assert!(!resp.cache_hit, "{}: first request must miss", t.name);
        cold += started.elapsed().as_secs_f64() * 1e3;
        for _ in 0..hits_per_tenant {
            let started = Instant::now();
            let resp = service.solve(t.request(spfactor::Scheme::Block)).unwrap();
            assert!(resp.cache_hit, "{}: warm request must hit", t.name);
            warm += started.elapsed().as_secs_f64() * 1e3;
        }
    }
    let stats = service.cache_stats();
    (
        cold / tenants.len() as f64,
        warm / (tenants.len() * hits_per_tenant) as f64,
        stats.hit_rate(),
    )
}

/// One `cache_sweep` row: the trace replayed sequentially against a cache
/// of `capacity` artifacts.
struct SweepStats {
    capacity: usize,
    hit_rate: f64,
    /// Misses built from a remembered permutation (`CacheStats::replans`).
    replans: u64,
    /// Mean latency of the requests that missed, first builds included.
    miss_ms: f64,
}

struct FaultStats {
    rate: f64,
    amortized_ms: f64,
    degraded_fraction: f64,
}

/// Latency under faults: the message-passing kernel solving one warm
/// tenant `reps` times per injected fault rate. A rate of `r` drops
/// messages with probability `r` (absorbed by the runtime's own retry)
/// and crashes a processor on every `1/r`-th request (rescued by the
/// service's failover), so the sweep prices both recovery paths.
fn fault_sweep(tenant: &Tenant, rates: &[f64], reps: usize) -> Vec<FaultStats> {
    rates
        .iter()
        .map(|&rate| {
            let service = SolverService::start(ServeConfig {
                resilience: ResilienceConfig {
                    // Keep the breaker out of the measurement: this sweep
                    // prices a crashed run + failover, not breaker denials.
                    breaker_threshold: 0,
                    ..ResilienceConfig::default()
                },
                ..ServeConfig::default()
            });
            let request = || {
                tenant
                    .request(spfactor::Scheme::Block)
                    .kernel(KernelKind::MessagePassing)
            };
            // Warm the cache so the sweep measures the solve path only.
            service.solve(request()).unwrap();
            let crash_every = if rate > 0.0 {
                (1.0 / rate).round() as usize
            } else {
                usize::MAX
            };
            let mut total_ms = 0.0;
            let mut degraded = 0u64;
            for k in 0..reps {
                let mut req = request();
                if rate > 0.0 {
                    let mut plan = FaultPlan {
                        drop: rate,
                        ..FaultPlan::none()
                    };
                    plan.seed = TRACE_SEED ^ (k as u64);
                    if (k + 1) % crash_every == 0 {
                        plan.crash = Some(CrashPlan {
                            proc: 0,
                            after_units: 0,
                            announce: true,
                        });
                    }
                    req = req.fault_plan(plan);
                }
                let started = Instant::now();
                let resp = service.solve(req).expect("faulted solve must complete");
                total_ms += started.elapsed().as_secs_f64() * 1e3;
                if resp.degraded() {
                    degraded += 1;
                }
            }
            FaultStats {
                rate,
                amortized_ms: total_ms / reps as f64,
                degraded_fraction: degraded as f64 / reps as f64,
            }
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn json_document(
    mode: &str,
    tenants: &[Tenant],
    requests: usize,
    clients: usize,
    workers: usize,
    cold_ms: f64,
    amortized_ms: f64,
    amortized_hit_rate: f64,
    schemes: &[ReplayStats],
    sweep: &[SweepStats],
    faults: &[FaultStats],
) -> String {
    let speedup = if amortized_ms > 0.0 {
        cold_ms / amortized_ms
    } else {
        f64::INFINITY
    };
    let block = &schemes[0];
    let mut s = String::new();
    writeln!(s, "{{").unwrap();
    writeln!(s, "  \"schema\": \"{SCHEMA}\",").unwrap();
    writeln!(s, "  \"mode\": \"{mode}\",").unwrap();
    writeln!(s, "  \"tenants\": {},", tenants.len()).unwrap();
    let names: Vec<String> = tenants.iter().map(|t| format!("\"{}\"", t.name)).collect();
    writeln!(s, "  \"tenant_names\": [{}],", names.join(", ")).unwrap();
    writeln!(s, "  \"requests\": {requests},").unwrap();
    writeln!(s, "  \"zipf_s\": {ZIPF_S},").unwrap();
    writeln!(s, "  \"clients\": {clients},").unwrap();
    writeln!(s, "  \"workers\": {workers},").unwrap();
    writeln!(s, "  \"cold_ms\": {cold_ms:.3},").unwrap();
    writeln!(s, "  \"amortized_ms\": {amortized_ms:.3},").unwrap();
    writeln!(s, "  \"amortized_hit_rate\": {amortized_hit_rate:.3},").unwrap();
    writeln!(s, "  \"amortized_speedup\": {speedup:.2},").unwrap();
    writeln!(s, "  \"throughput_rps\": {:.1},", block.throughput_rps).unwrap();
    writeln!(s, "  \"hit_rate\": {:.3},", block.hit_rate).unwrap();
    writeln!(s, "  \"p50_ms\": {:.3},", block.p50_ms).unwrap();
    writeln!(s, "  \"p99_ms\": {:.3},", block.p99_ms).unwrap();
    writeln!(s, "  \"rejected\": {},", block.rejected).unwrap();
    writeln!(s, "  \"schemes\": [").unwrap();
    for (i, r) in schemes.iter().enumerate() {
        let comma = if i + 1 < schemes.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"scheme\": \"{}\", \"throughput_rps\": {:.1}, \"hit_rate\": {:.3}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"rejected\": {}}}{comma}",
            r.scheme, r.throughput_rps, r.hit_rate, r.p50_ms, r.p99_ms, r.rejected
        )
        .unwrap();
    }
    writeln!(s, "  ],").unwrap();
    writeln!(s, "  \"cache_sweep\": [").unwrap();
    for (i, r) in sweep.iter().enumerate() {
        let comma = if i + 1 < sweep.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"capacity\": {}, \"hit_rate\": {:.3}, \"replans\": {}, \"miss_ms\": {:.3}}}{comma}",
            r.capacity, r.hit_rate, r.replans, r.miss_ms
        )
        .unwrap();
    }
    writeln!(s, "  ],").unwrap();
    writeln!(s, "  \"fault_sweep\": [").unwrap();
    for (i, f) in faults.iter().enumerate() {
        let comma = if i + 1 < faults.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"rate\": {}, \"amortized_ms\": {:.3}, \"degraded_fraction\": {:.3}}}{comma}",
            f.rate, f.amortized_ms, f.degraded_fraction
        )
        .unwrap();
    }
    writeln!(s, "  ]").unwrap();
    writeln!(s, "}}").unwrap();
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_serve.json".to_string());

    // Tenants: the paper's matrices plus generated grids, each with its
    // own processor count — a mixed-tenant population, not one pattern.
    let (tenants, requests, clients, workers, capacities) = if smoke {
        let tenants = vec![
            Tenant::new("grid8", gen::lap9(8, 8), 2, 1),
            Tenant::new("grid10", gen::lap9(10, 10), 2, 2),
            Tenant::new("grid12", gen::lap9(12, 12), 4, 3),
        ];
        (tenants, 12, 2, 2, vec![1usize, 2])
    } else {
        let mut tenants: Vec<Tenant> = paper::all()
            .into_iter()
            .enumerate()
            .map(|(i, m)| Tenant::new(m.name, m.pattern, 4, i as u64))
            .collect();
        tenants.push(Tenant::new("grid30", gen::lap9(30, 30), 8, 100));
        tenants.push(Tenant::new("grid40", gen::lap9(40, 40), 8, 101));
        tenants.push(Tenant::new("grid25", gen::lap9(25, 25), 4, 102));
        (tenants, 200, 4, 4, vec![1usize, 2, 4, 8])
    };

    let trace = zipf_trace(tenants.len(), requests, ZIPF_S, TRACE_SEED);

    // Cold vs amortized: 1 miss + 9 hits per tenant = 0.9 hit rate.
    eprintln!(
        "measuring cold vs amortized cost ({} tenants)...",
        tenants.len()
    );
    let (cold_ms, amortized_ms, amortized_hit_rate) = amortization(&tenants, 9);
    let speedup = cold_ms / amortized_ms;
    eprintln!(
        "  cold {cold_ms:.2}ms  amortized {amortized_ms:.2}ms  speedup {speedup:.1}x  hit rate {amortized_hit_rate:.2}"
    );
    if !smoke {
        assert!(
            amortized_hit_rate >= 0.9 && speedup >= 5.0,
            "amortization bar missed: speedup {speedup:.1}x at hit rate {amortized_hit_rate:.2} \
             (need >=5x at >=0.9)"
        );
    }

    // Queue-served throughput, block then wrap.
    let mut schemes = Vec::new();
    for scheme in [spfactor::Scheme::Block, spfactor::Scheme::Wrap] {
        eprintln!(
            "replaying {requests} requests ({} clients, {} workers, {scheme:?})...",
            clients, workers
        );
        let stats = replay(
            &tenants,
            &trace,
            scheme,
            clients,
            ServeConfig {
                cache_capacity: tenants.len(),
                queue_depth: 8,
                workers,
                ..ServeConfig::default()
            },
        );
        eprintln!(
            "  {:.0} req/s  hit rate {:.2}  p50 {:.2}ms  p99 {:.2}ms  rejected {}",
            stats.throughput_rps, stats.hit_rate, stats.p50_ms, stats.p99_ms, stats.rejected
        );
        schemes.push(stats);
    }

    // Hit rate vs cache capacity: sequential replay, fresh cache each.
    let mut sweep = Vec::new();
    for &capacity in &capacities {
        let service = SolverService::start(ServeConfig {
            cache_capacity: capacity,
            workers: 1,
            ..ServeConfig::default()
        });
        let (mut missed, mut missed_ms) = (0u64, 0.0);
        for &t in &trace {
            let started = Instant::now();
            let resp = service
                .solve(tenants[t].request(spfactor::Scheme::Block))
                .unwrap();
            if !resp.cache_hit {
                missed += 1;
                missed_ms += started.elapsed().as_secs_f64() * 1e3;
            }
        }
        let stats = service.cache_stats();
        let row = SweepStats {
            capacity,
            hit_rate: stats.hit_rate(),
            replans: stats.replans,
            miss_ms: missed_ms / missed as f64,
        };
        eprintln!(
            "cache capacity {capacity}: hit rate {:.3}, {} of {missed} misses re-planned, {:.2}ms a miss",
            row.hit_rate, row.replans, row.miss_ms
        );
        sweep.push(row);
    }
    // LRU sanity under Zipf skew: more capacity never hurts.
    for w in sweep.windows(2) {
        assert!(
            w[1].hit_rate >= w[0].hit_rate - 1e-9,
            "hit rate fell as capacity grew: {:?}",
            sweep.iter().map(|r| r.hit_rate).collect::<Vec<_>>()
        );
    }

    // Latency under faults: drops absorbed by the runtime, crashes
    // rescued by failover, on the first (largest-share) tenant.
    let fault_reps = if smoke { 10 } else { 100 };
    eprintln!("sweeping fault rates ({fault_reps} requests each)...");
    let faults = fault_sweep(&tenants[0], &[0.0, 0.01, 0.10], fault_reps);
    for f in &faults {
        eprintln!(
            "  rate {:.2}: amortized {:.3}ms  degraded fraction {:.2}",
            f.rate, f.amortized_ms, f.degraded_fraction
        );
    }

    let mode = if smoke { "smoke" } else { "full" };
    let doc = json_document(
        mode,
        &tenants,
        requests,
        clients,
        workers,
        cold_ms,
        amortized_ms,
        amortized_hit_rate,
        &schemes,
        &sweep,
        &faults,
    );
    std::fs::write(&out_path, &doc).expect("write bench JSON");
    println!("wrote {out_path}");
}
