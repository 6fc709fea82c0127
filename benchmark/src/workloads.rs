//! The workloads: what each one is made of, its set-up, and the untraced
//! operation loop that yields the end-to-end metrics.
//!
//! A workload is a list of *subjects* (sparsity patterns with their
//! grain and mapping schemes), a processor count, the engine selection,
//! a schedule-cache capacity, and one operation. Everything seeded —
//! SPD values, right-hand sides, the Zipf request trace — is generated
//! in set-up; the patterns come from the deterministic generators.

use crate::stats::{ms, zipf_cycle, Rng, Samples};
use crate::tracer::Tracer;
use spfactor::matrix::gen::{self, paper};
use spfactor::matrix::SymmetricCsc;
use spfactor::numeric::NumericFactor;
use spfactor::trace::alloc;
use spfactor::{
    numeric, DepsEngine, OrderEngine, PartitionParams, Pipeline, ScheduleArtifact, Scheme,
    SimulateEngine, SymmetricPattern, TrafficReport,
};
use spfactor_serve::{ServeConfig, ServeError, SolveRequest, SolverService, ValueBatch};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Zipf exponent of tenant popularity; rank is the subject's position.
const ZIPF_S: f64 = 1.1;
/// Requests in the cycle the clients repeat together. One round of it is
/// the closed loop's unit of work: every round asks for the same tenants
/// in the same order, so rounds can be compared like repetitions of a
/// kernel.
const CYCLE_LEN: usize = 25;
/// Closed-loop clients and service workers: one of each per core of the
/// two-core box the baseline was taken on.
pub const CLIENTS: usize = 2;
pub const WORKERS: usize = 2;
const QUEUE_DEPTH: usize = 8;
/// Requests per client that a traced closed loop records spans for.
const TRACED_REQUESTS: usize = 2000;
/// Acceptance limit on `‖Ax − b‖∞ / ‖b‖∞`.
pub const RESIDUAL_LIMIT: f64 = 1e-10;

#[derive(Clone, Copy)]
pub struct Engines {
    pub order: OrderEngine,
    pub deps: DepsEngine,
    pub simulate: SimulateEngine,
}

/// The engines a caller picks for large problems; the threaded ones use
/// `available_parallelism()` threads.
const PRODUCTION: Engines = Engines {
    order: OrderEngine::Compressed,
    deps: DepsEngine::SweepParallel,
    simulate: SimulateEngine::BlockParallel,
};

/// What `SolverService` runs on a cache miss: `SolveRequest` exposes no
/// dependency-engine choice, so a cold build is the pipeline's defaults.
const SERVICE: Engines = Engines {
    order: OrderEngine::Direct,
    deps: DepsEngine::Element,
    simulate: SimulateEngine::Element,
};

#[derive(Clone)]
pub struct Subject {
    pub name: String,
    pub pattern: SymmetricPattern,
    pub grain: usize,
    /// The first scheme is the one numeric, executed and served work
    /// runs under.
    pub schemes: &'static [Scheme],
}

#[derive(Clone, Copy, PartialEq)]
pub enum Op {
    /// `Pipeline::try_plan` then `try_run_planned` on every subject and
    /// scheme: the paper's analytic answer.
    Plan,
    /// Sequential `cholesky` then `solve_many_permuted`.
    Factor,
    /// A closed loop of `CLIENTS` clients against `SolverService`.
    Serve,
}

impl Op {
    /// The time of one unit of work that is reported as `op_ms`. Compute
    /// units repeat identical work, so the fastest is what the code
    /// costs (see [`Samples::fastest`]). Rounds of the closed loop do not:
    /// two requests are in flight, their order at the cache varies, and
    /// now and then a round misses less. Over ten seeds the fastest
    /// round spread by 0.19 on `serve_churn` and the lower quartile by
    /// 0.03.
    pub fn unit_time(self, units: &Samples) -> f64 {
        match self {
            Op::Serve => units.percentile(0.25),
            Op::Plan | Op::Factor => units.fastest(),
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub op: Op,
    pub nprocs: usize,
    pub nrhs: usize,
    pub engines: Engines,
    /// Schedule-cache capacity; `None` holds every subject.
    pub cache_capacity: Option<usize>,
    /// Whether set-up solves every tenant once before the loop.
    pub prewarm: bool,
    subjects: fn(bool) -> Vec<Subject>,
}

const BLOCK: &[Scheme] = &[Scheme::Block];
const BLOCK_AND_WRAP: &[Scheme] = &[Scheme::Block, Scheme::Wrap];

fn grid(side: usize, grain: usize) -> Subject {
    Subject {
        name: format!("LAP{side}"),
        pattern: gen::lap9(side, side),
        grain,
        schemes: BLOCK,
    }
}

fn paper_subjects(schemes: &'static [Scheme], smoke: bool) -> Vec<Subject> {
    let matrices = if smoke {
        vec![paper::dwt512(), paper::lap30()]
    } else {
        paper::all()
    };
    matrices
        .into_iter()
        .map(|m| Subject {
            name: m.name.to_string(),
            pattern: m.pattern,
            grain: 4,
            schemes,
        })
        .collect()
}

fn plan_grid_subjects(smoke: bool) -> Vec<Subject> {
    vec![grid(if smoke { 16 } else { 70 }, 25)]
}

fn plan_paper_subjects(smoke: bool) -> Vec<Subject> {
    paper_subjects(BLOCK_AND_WRAP, smoke)
}

fn factor_grid_subjects(smoke: bool) -> Vec<Subject> {
    vec![grid(if smoke { 16 } else { 80 }, 25)]
}

/// Eight tenants in popularity order: the five Table-1 matrices at grain
/// 4, then three 9-point grids at grain 25.
fn tenant_subjects(smoke: bool) -> Vec<Subject> {
    if smoke {
        return (6..14).map(|side| grid(side, 4)).collect();
    }
    let mut subjects = paper_subjects(BLOCK, false);
    subjects.extend([40, 50, 60].map(|side| grid(side, 25)));
    subjects
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "plan_grid",
        why: "one regular 4,900-column grid at grain 25: partition + deps are ~65% of the analysis and the heap peak, order ~16%",
        op: Op::Plan,
        nprocs: 16,
        nrhs: 1,
        engines: PRODUCTION,
        cache_capacity: None,
        prewarm: true,
        subjects: plan_grid_subjects,
    },
    Workload {
        name: "plan_paper",
        why: "the five Table-1 matrices x {block, wrap} at grain 4, P=16: irregular graphs, thin supernodes, the paper's own counts",
        op: Op::Plan,
        nprocs: 16,
        nrhs: 1,
        engines: PRODUCTION,
        cache_capacity: None,
        prewarm: true,
        subjects: plan_paper_subjects,
    },
    Workload {
        name: "factor_grid",
        why: "sequential factor + 8 solves on a grid planned in set-up: numeric time-to-solution with the planner bypassed",
        op: Op::Factor,
        nprocs: 2,
        nrhs: 8,
        engines: PRODUCTION,
        cache_capacity: None,
        prewarm: true,
        subjects: factor_grid_subjects,
    },
    Workload {
        name: "serve_warm",
        why: "8 tenants, cache holds all 8, pre-warmed: every request hits, so queue + lookup + factor + solve is all there is",
        op: Op::Serve,
        nprocs: 4,
        nrhs: 1,
        engines: SERVICE,
        cache_capacity: None,
        prewarm: true,
        subjects: tenant_subjects,
    },
    Workload {
        name: "serve_churn",
        why: "same 8 tenants, cache holds 4, cold start: ~45% of requests rebuild a schedule on a worker and block the queue behind it",
        op: Op::Serve,
        nprocs: 4,
        nrhs: 1,
        engines: SERVICE,
        cache_capacity: Some(4),
        prewarm: false,
        subjects: tenant_subjects,
    },
];

impl Workload {
    pub fn pipeline(&self, subject: &Subject, scheme: Scheme) -> Pipeline {
        Pipeline::new(subject.pattern.clone())
            .grain(subject.grain)
            .scheme(scheme)
            .processors(self.nprocs)
            .order_engine(self.engines.order)
            .deps_engine(self.engines.deps)
            .engine(self.engines.simulate)
    }

    pub fn request(&self, tenant: &Tenant) -> SolveRequest {
        SolveRequest::new(tenant.subject.pattern.clone())
            .order_engine(self.engines.order)
            .params(PartitionParams::with_grain(tenant.subject.grain))
            .scheme(tenant.subject.schemes[0])
            .processors(self.nprocs)
            .batch(ValueBatch {
                values: tenant.values.clone(),
                rhs: tenant.rhs.clone(),
            })
    }

    pub fn serve_config(&self, tenants: usize) -> ServeConfig {
        ServeConfig {
            cache_capacity: self.cache_capacity.unwrap_or(tenants),
            queue_depth: QUEUE_DEPTH,
            workers: WORKERS,
            ..ServeConfig::default()
        }
    }
}

/// The frozen plan of a tenant's first scheme and the reference answers
/// every later factor and solution must equal bit for bit.
pub struct Planned {
    pub artifact: ScheduleArtifact,
    pub permuted: SymmetricCsc,
    pub factor: NumericFactor,
    pub solutions: Vec<Vec<f64>>,
}

pub struct Tenant {
    pub subject: Subject,
    pub values: SymmetricCsc,
    pub rhs: Vec<Vec<f64>>,
    /// Planned in set-up for every operation but `Op::Plan`, whose
    /// operation is the planning.
    pub planned: Option<Planned>,
}

pub struct Prepared {
    pub tenants: Vec<Tenant>,
    /// One pipeline per subject and scheme, in subject order.
    pub pipelines: Vec<Pipeline>,
    /// The request cycle the closed-loop clients share.
    pub cycle: Vec<usize>,
    pub service: Option<SolverService>,
}

pub fn plan_tenant(
    w: &Workload,
    subject: &Subject,
    values: &SymmetricCsc,
    rhs: &[Vec<f64>],
) -> Planned {
    let artifact = w
        .pipeline(subject, subject.schemes[0])
        .try_plan()
        .expect("set-up plan");
    let permuted = values.permute(artifact.permutation());
    let factor = numeric::cholesky(&permuted, artifact.factor()).expect("set-up factorization");
    let solutions = numeric::solve_many_permuted(&factor, artifact.permutation(), rhs);
    Planned {
        artifact,
        permuted,
        factor,
        solutions,
    }
}

/// Largest `‖Ax − b‖∞ / ‖b‖∞` over the right-hand sides.
pub fn relative_residual(a: &SymmetricCsc, xs: &[Vec<f64>], bs: &[Vec<f64>]) -> f64 {
    xs.iter()
        .zip(bs)
        .map(|(x, b)| {
            let norm = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            numeric::solve::residual_norm(a, x, b) / norm
        })
        .fold(0.0, f64::max)
}

/// One complete set-up from `seed`.
pub fn set_up(w: &Workload, seed: u64, smoke: bool) -> Prepared {
    let mut rng = Rng::new(seed);
    let subjects = (w.subjects)(smoke);
    let pipelines = subjects
        .iter()
        .flat_map(|s| s.schemes.iter().map(|&scheme| w.pipeline(s, scheme)))
        .collect();
    let tenants: Vec<Tenant> = subjects
        .into_iter()
        .map(|subject| {
            let values = gen::spd_from_pattern(&subject.pattern, rng.next_u64());
            let rhs: Vec<Vec<f64>> = (0..w.nrhs)
                .map(|_| {
                    (0..subject.pattern.n())
                        .map(|_| 2.0 * rng.next_f64() - 1.0)
                        .collect()
                })
                .collect();
            let planned = (w.op != Op::Plan).then(|| plan_tenant(w, &subject, &values, &rhs));
            Tenant {
                subject,
                values,
                rhs,
                planned,
            }
        })
        .collect();
    let cycle = zipf_cycle(tenants.len(), CYCLE_LEN, ZIPF_S, rng.next_u64() as usize);
    let service = (w.op == Op::Serve).then(|| {
        let service = SolverService::start(w.serve_config(tenants.len()));
        if w.prewarm {
            for t in &tenants {
                service.solve(w.request(t)).expect("pre-warm solve");
            }
        }
        service
    });
    Prepared {
        tenants,
        pipelines,
        cycle,
        service,
    }
}

/// What one measured loop observed.
#[derive(Default)]
pub struct Outcome {
    /// Time of every unit of work, milliseconds: one operation, or per
    /// request over one pass of a closed-loop client through its cycle.
    pub units: Samples,
    /// Client-observed latency of every answered request; empty unless
    /// the loop was closed.
    pub requests: Samples,
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub peak_heap_bytes: usize,
    /// Every output check that did not hold.
    pub errors: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

/// One untimed warm-up, then `op` back to back for `duration`; each call
/// is an attempt and an `Err` a failure.
fn measure(duration: Duration, mut op: impl FnMut() -> Result<(), String>) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = op() {
        out.errors.push(format!("warm-up: {e}"));
    }
    alloc::reset_peak();
    let started = Instant::now();
    while started.elapsed() < duration {
        let t = Instant::now();
        let result = op();
        out.units.0.push(ms(t.elapsed()));
        out.attempted += 1;
        if let Err(e) = result {
            out.fail(e);
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out.peak_heap_bytes = alloc::peak_bytes();
    out
}

/// What a plan must reproduce on every repetition and through the
/// stepwise chain: the artifact fingerprint and the paper's two reports.
#[derive(Debug, PartialEq)]
pub struct PlanDigest {
    pub fingerprint: u64,
    pub traffic: TrafficReport,
    pub work: Vec<usize>,
}

fn plan_once(pipelines: &[Pipeline]) -> Result<Vec<PlanDigest>, String> {
    pipelines
        .iter()
        .map(|p| {
            let artifact = p.try_plan().map_err(|e| e.to_string())?;
            let result = p.try_run_planned(&artifact).map_err(|e| e.to_string())?;
            Ok(PlanDigest {
                fingerprint: artifact.fingerprint(),
                traffic: result.traffic,
                work: result.work.per_proc,
            })
        })
        .collect()
}

/// The operation of `Op::Factor` on one tenant.
fn factor_once(t: &Tenant) -> Result<(), String> {
    let p = t.planned.as_ref().expect("planned in set-up");
    let l = numeric::cholesky(&p.permuted, p.artifact.factor()).map_err(|e| e.to_string())?;
    let x = numeric::solve_many_permuted(&l, p.artifact.permutation(), &t.rhs);
    if x != p.solutions {
        return Err(format!(
            "{}: solutions differ from the reference",
            t.subject.name
        ));
    }
    Ok(())
}

/// One operation of a workload that is not a closed loop, outputs
/// checked against the references of set-up.
pub fn op_once(w: &Workload, prepared: &Prepared) -> Result<(), String> {
    match w.op {
        Op::Plan => plan_once(&prepared.pipelines).map(|_| ()),
        Op::Factor => prepared.tenants.iter().try_for_each(factor_once),
        Op::Serve => unreachable!("the closed loop is not one operation"),
    }
}

/// Runs the workload's operation untraced for `duration` and checks its
/// outputs.
pub fn run_op(w: &Workload, prepared: &Prepared, duration: Duration) -> Outcome {
    match w.op {
        Op::Plan => {
            let reference = plan_once(&prepared.pipelines);
            let mut out = measure(duration, || {
                let digests = plan_once(&prepared.pipelines)?;
                if Ok(&digests) != reference.as_ref() {
                    return Err("plan differs between repetitions".to_string());
                }
                Ok(())
            });
            // The same answer must come out of the layers called one by
            // one, which is also what the traced run times.
            let mut quiet = Tracer::off();
            let stepwise: Vec<PlanDigest> = prepared
                .tenants
                .iter()
                .flat_map(|t| t.subject.schemes.iter().map(move |&s| (t, s)))
                .map(|(t, scheme)| {
                    crate::profile::chain(&mut quiet, w, &t.subject, scheme).digest(w, &t.subject)
                })
                .collect();
            if Ok(&stepwise) != reference.as_ref() {
                out.errors
                    .push("the stepwise chain and the pipeline disagree".to_string());
            }
            out
        }
        Op::Factor => {
            let mut out = measure(duration, || op_once(w, prepared));
            for t in &prepared.tenants {
                let p = t.planned.as_ref().expect("planned in set-up");
                let r = relative_residual(&t.values, &p.solutions, &t.rhs);
                if r.is_nan() || r > RESIDUAL_LIMIT {
                    out.errors
                        .push(format!("{}: residual {r:e}", t.subject.name));
                }
            }
            out
        }
        Op::Serve => {
            let service = prepared.service.as_ref().expect("started in set-up");
            closed_loop(w, prepared, service, duration, &mut Tracer::off())
        }
    }
}

/// `CLIENTS` clients take turns at one request cycle: each sends the
/// cycle's next request only after its previous one was answered, until
/// `duration` has passed. The order in which requests are sent is
/// therefore the same in every round, and with it which of them miss the
/// cache; two clients each repeating a cycle of their own fell into
/// either of two lasting patterns with hit rates of 0.61 and 0.75.
///
/// A request's latency is what the client sees from its first `submit`
/// to the response, retries after `Overloaded` included. A unit is one
/// round of the cycle: the time from the sending of its first request to
/// that of the next round's, which also holds building the requests and
/// comparing each response with the tenant's reference solution, divided
/// by the requests a client makes in it. An error or a wrong solution is
/// a failed operation.
pub fn closed_loop(
    w: &Workload,
    prepared: &Prepared,
    service: &SolverService,
    duration: Duration,
    tracer: &mut Tracer,
) -> Outcome {
    let cycle = &prepared.cycle;
    let next = AtomicUsize::new(0);
    alloc::reset_peak();
    let started = Instant::now();
    let per_client: Vec<Client> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mut tracer = tracer.fork((c * TRACED_REQUESTS) as u32);
                let next = &next;
                s.spawn(move || {
                    let mut out = Outcome::default();
                    let mut rounds = Vec::new();
                    // At least the warm-up round and one measured round.
                    let at_least = 2 * cycle.len() + 1;
                    while started.elapsed() < duration || next.load(Ordering::Relaxed) < at_least {
                        // Relaxed: the counter hands out turns and
                        // publishes no other data.
                        let turn = next.fetch_add(1, Ordering::Relaxed);
                        if turn.is_multiple_of(cycle.len()) {
                            rounds.push((turn, Instant::now()));
                        }
                        let tenant = &prepared.tenants[cycle[turn % cycle.len()]];
                        tracer.recording &= out.attempted < TRACED_REQUESTS as u64;
                        request_once(w, tenant, service, &mut tracer, &mut out);
                    }
                    Client {
                        out,
                        rounds,
                        tracer,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut total = Outcome {
        wall_s: started.elapsed().as_secs_f64(),
        peak_heap_bytes: alloc::peak_bytes(),
        ..Outcome::default()
    };
    let mut rounds = Vec::new();
    for client in per_client {
        total.requests.0.extend(client.out.requests.0);
        total.attempted += client.out.attempted;
        total.failed += client.out.failed;
        total.errors.extend(client.out.errors);
        rounds.extend(client.rounds);
        tracer.merge(client.tracer);
    }
    rounds.sort();
    let per_client_requests = cycle.len() as f64 / CLIENTS as f64;
    // The first round is the warm-up: it starts on whatever the cache
    // held before, an empty one on `serve_churn`.
    total.units.0 = rounds
        .windows(2)
        .skip(1)
        .map(|r| ms(r[1].1 - r[0].1) / per_client_requests)
        .collect();
    total
}

/// What one closed-loop client brings back.
struct Client {
    out: Outcome,
    /// The turn and the time at which this client began a round.
    rounds: Vec<(usize, Instant)>,
    tracer: Tracer,
}

/// One request of a closed-loop client, recorded into `out`.
fn request_once(
    w: &Workload,
    tenant: &Tenant,
    service: &SolverService,
    t: &mut Tracer,
    out: &mut Outcome,
) {
    let mut request = Some(w.request(tenant));
    let root = t.enter_op("request");
    let t0 = Instant::now();
    let submit = t.enter("serve.submit");
    let ticket = loop {
        // `submit` consumes the request, so a retry builds it again.
        let r = request.take().unwrap_or_else(|| w.request(tenant));
        match service.submit(r) {
            Err(ServeError::Overloaded { .. }) => std::thread::sleep(Duration::from_micros(200)),
            other => break other,
        }
    };
    t.exit(submit);
    let wait = t.enter("serve.wait");
    let response = ticket.and_then(|ticket| ticket.wait());
    t.exit(wait);
    let latency = ms(t0.elapsed());
    t.exit(root);
    out.attempted += 1;
    let reference = &tenant.planned.as_ref().expect("planned").solutions;
    match response {
        Ok(r) if &r.batches[0].solutions == reference => out.requests.0.push(latency),
        Ok(_) => out.fail(format!(
            "{}: response differs from the reference solution",
            tenant.subject.name
        )),
        Err(e) => out.fail(format!("{}: {e}", tenant.subject.name)),
    }
}
