//! The traced run: every layer of the stack called one by one on the
//! workload's own subjects, each call under a span recorded from the
//! outside, through the crates' plain public functions.
//!
//! Every workload is profiled the same way, whether or not its untraced
//! operation calls the layer, so each per-layer metric is a measurement
//! on every workload: what that layer costs on these inputs. Each
//! measured block repeats one operation for its share of `--seconds`
//! (see [`sample_for`]); a per-layer time is the fastest of the block's
//! repetitions of the layer's total over all subjects.

use crate::stats::{sample_for, Samples};
use crate::tracer::Tracer;
use crate::workloads::{
    closed_loop, op_once, plan_tenant, relative_residual, Op, PlanDigest, Planned, Prepared,
    Subject, Tenant, Workload, RESIDUAL_LIMIT,
};
use spfactor::matrix::Permutation;
use spfactor::sched::{read_artifact_text, rebuild_artifact};
use spfactor::symbolic::supernode::fundamental_supernodes;
use spfactor::{
    mp, numeric, order, partition, sched, simulate, Assignment, DepGraph, DepsEngine, NetworkModel,
    OrderEngine, Ordering, Partition, PartitionParams, Recorder, ScheduleArtifact, Scheme,
    SimulateEngine, SymbolicFactor, TrafficReport, WorkReport,
};
use spfactor_serve::{ArtifactStore, ScheduleCache, SolverService};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Everything the front end produces for one subject under one scheme,
/// from the layers called one by one.
pub struct Chain {
    scheme: Scheme,
    perm: Permutation,
    factor: SymbolicFactor,
    partition: Partition,
    deps: DepGraph,
    assignment: Assignment,
    traffic: TrafficReport,
    work: WorkReport,
}

impl Chain {
    fn into_artifact(self, w: &Workload, subject: &Subject) -> ScheduleArtifact {
        ScheduleArtifact::new(
            w.pipeline(subject, self.scheme).key(),
            self.perm,
            self.factor,
            self.partition,
            self.deps,
            self.assignment,
        )
    }

    pub fn digest(self, w: &Workload, subject: &Subject) -> PlanDigest {
        let traffic = self.traffic.clone();
        let work = self.work.per_proc.clone();
        PlanDigest {
            fingerprint: self.into_artifact(w, subject).fingerprint(),
            traffic,
            work,
        }
    }
}

/// The calls `Pipeline::try_plan` and `try_run_planned` make, one span
/// each.
pub fn chain(t: &mut Tracer, w: &Workload, subject: &Subject, scheme: Scheme) -> Chain {
    let e = w.engines;
    let perm = t.leaf("order", || {
        order::order_with_engine(&subject.pattern, Ordering::paper_default(), e.order)
    });
    let permuted = t.leaf("matrix.permute", || subject.pattern.permute(&perm));
    let factor = t.leaf("symbolic", || SymbolicFactor::from_pattern(&permuted));
    let params = PartitionParams::with_grain(subject.grain);
    let partition = t.leaf("partition", || match scheme {
        Scheme::Block => Partition::build(&factor, &params),
        Scheme::Wrap => Partition::columns(&factor),
    });
    let deps = t.leaf("deps", || {
        partition::build_dependencies(e.deps, &factor, &partition)
    });
    let assignment = t.leaf("sched", || match scheme {
        Scheme::Block => sched::block_allocation(&partition, &deps, w.nprocs),
        Scheme::Wrap => sched::wrap_allocation(&partition, w.nprocs),
    });
    let (traffic, work) = t.leaf("simulate", || {
        simulate::simulate(e.simulate, &factor, &partition, &assignment)
    });
    Chain {
        scheme,
        perm,
        factor,
        partition,
        deps,
        assignment,
        traffic,
        work,
    }
}

/// The repetitions of one block: per repetition, total milliseconds per
/// span name.
struct Reps(Vec<BTreeMap<&'static str, f64>>);

impl Reps {
    fn samples(&self, name: &str) -> Samples {
        Samples(self.0.iter().map(|r| r[name]).collect())
    }

    /// What the span costs when the machine is quiet: its fastest
    /// repetition, see [`Samples::fastest`].
    fn quiet(&self, name: &str) -> f64 {
        self.samples(name).fastest()
    }
}

/// Repeats `f` for `budget` as one block; each repetition is one
/// operation under a group span called `name`.
fn block(
    t: &mut Tracer,
    budget: Duration,
    name: &'static str,
    mut f: impl FnMut(&mut Tracer),
) -> Reps {
    Reps(sample_for(budget, || {
        let first = t.spans.len();
        let root = t.enter_op(name);
        f(t);
        t.exit(root);
        t.sums_since(first)
    }))
}

/// Name, value.
pub type Metrics = Vec<(&'static str, f64)>;

const MB: f64 = 1e6;

/// What the sections of one traced run share.
struct Run<'a> {
    w: &'a Workload,
    seconds: f64,
    t: &'a mut Tracer,
    metrics: Metrics,
    /// Every output check that failed.
    errors: Vec<String>,
}

impl Run<'_> {
    /// A block's share of `--seconds`.
    fn share(&self, f: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * f)
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

/// Profiles `w` for about `seconds` and returns every per-layer metric
/// and every output check that failed.
pub fn profile(
    w: &Workload,
    prepared: &mut Prepared,
    seconds: f64,
    out_dir: &Path,
    t: &mut Tracer,
) -> (Metrics, Vec<String>) {
    let mut run = Run {
        w,
        seconds,
        t,
        metrics: Vec::new(),
        errors: Vec::new(),
    };
    let subjects: Vec<Subject> = prepared.tenants.iter().map(|t| t.subject.clone()).collect();
    let FrontEnd {
        artifacts,
        simulated,
        layers_ms,
    } = front_end(&mut run, &subjects);
    baselines(&mut run, &subjects, &artifacts);
    through_pipeline(&mut run, prepared, layers_ms);
    artifact_text(&mut run, &subjects, &artifacts);

    // The references: set-up's where it planned, else made here.
    for ((tenant, s), a) in prepared.tenants.iter_mut().zip(&subjects).zip(&artifacts) {
        let planned = tenant
            .planned
            .get_or_insert_with(|| plan_tenant(w, s, &tenant.values, &tenant.rhs));
        if planned.artifact.fingerprint() != a.fingerprint() {
            run.errors.push(format!(
                "{}: the stepwise chain and the pipeline disagree",
                s.name
            ));
        }
    }
    let cholesky_ms = sequential_kernels(&mut run, prepared);
    executed_schedule(&mut run, prepared, &simulated, cholesky_ms);
    served(&mut run, prepared, &artifacts, out_dir);
    (run.metrics, run.errors)
}

fn planned(tenant: &Tenant) -> &Planned {
    tenant
        .planned
        .as_ref()
        .expect("planned before the kernels run")
}

/// What the front end leaves for the later sections: per subject its
/// first-scheme plan, frozen, and that plan's simulated traffic; and the
/// total of the seven layers.
struct FrontEnd {
    artifacts: Vec<ScheduleArtifact>,
    simulated: Vec<TrafficReport>,
    layers_ms: f64,
}

/// The front end layer by layer.
fn front_end(run: &mut Run, subjects: &[Subject]) -> FrontEnd {
    let w = run.w;
    let mut last: Vec<Vec<Chain>> = Vec::new();
    let reps = block(run.t, run.share(0.15), "chain", |t| {
        last = subjects
            .iter()
            .map(|s| {
                s.schemes
                    .iter()
                    .map(|&scheme| chain(t, w, s, scheme))
                    .collect()
            })
            .collect();
    });
    const LAYERS: [(&str, &str); 7] = [
        ("order", "order.ms"),
        ("matrix.permute", "matrix.permute_ms"),
        ("symbolic", "symbolic.ms"),
        ("partition", "partition.ms"),
        ("deps", "deps.ms"),
        ("sched", "sched.ms"),
        ("simulate", "simulate.ms"),
    ];
    let mut layers_ms = 0.0;
    for (span, metric) in LAYERS {
        let v = reps.quiet(span);
        layers_ms += v;
        run.put(metric, v);
    }
    let plans: Vec<&Chain> = last.iter().flatten().collect();
    let count = |f: &dyn Fn(&Chain) -> usize| plans.iter().map(|c| f(c)).sum::<usize>() as f64;
    run.put("symbolic.entries", count(&|c| c.factor.num_entries()));
    run.put(
        "symbolic.supernodes",
        count(&|c| fundamental_supernodes(&c.factor).len()),
    );
    run.put("partition.units", count(&|c| c.partition.num_units()));
    run.put("partition.clusters", count(&|c| c.partition.clusters.len()));
    run.put("deps.edges", count(&|c| c.deps.num_edges()));
    run.put("simulate.traffic_total", count(&|c| c.traffic.total));
    run.put("simulate.work_max", count(&|c| c.work.max()));
    run.put(
        "sched.imbalance",
        plans.iter().map(|c| c.work.imbalance()).sum::<f64>() / plans.len() as f64,
    );
    run.put(
        "partition.peak_heap_mb",
        run.t.peak_bytes("partition") as f64 / MB,
    );
    run.put("deps.peak_heap_mb", run.t.peak_bytes("deps") as f64 / MB);

    let simulated = last.iter().map(|c| c[0].traffic.clone()).collect();
    let artifacts: Vec<ScheduleArtifact> = last
        .into_iter()
        .zip(subjects)
        .map(|(mut c, s)| c.swap_remove(0).into_artifact(w, s))
        .collect();
    run.put(
        "order.factor_entries",
        artifacts
            .iter()
            .map(|a| a.factor().num_entries())
            .sum::<usize>() as f64,
    );
    FrontEnd {
        artifacts,
        simulated,
        layers_ms,
    }
}

/// Single-threaded and alternative-path baselines, one block each.
fn baselines(run: &mut Run, subjects: &[Subject], artifacts: &[ScheduleArtifact]) {
    let mut each = |metric: &'static str, name: &'static str, f: &dyn Fn(usize)| {
        let reps = block(run.t, run.share(0.02), "baseline", |t| {
            for i in 0..subjects.len() {
                t.leaf(name, || f(i));
            }
        });
        run.put(metric, reps.quiet(name));
    };
    each("order.direct_ms", "order.direct", &|i| {
        order::order_with_engine(
            &subjects[i].pattern,
            Ordering::paper_default(),
            OrderEngine::Direct,
        );
    });
    each("partition.columns_ms", "partition.columns", &|i| {
        Partition::columns(artifacts[i].factor());
    });
    each("deps.serial_ms", "deps.serial", &|i| {
        let a = &artifacts[i];
        partition::build_dependencies(DepsEngine::Sweep, a.factor(), a.partition());
    });
    each("simulate.serial_ms", "simulate.serial", &|i| {
        let a = &artifacts[i];
        simulate::simulate(
            SimulateEngine::Block,
            a.factor(),
            a.partition(),
            a.assignment(),
        );
    });
}

/// The same plans through `Pipeline`, without and with a recorder: what
/// is left after the layers is the pipeline's own glue.
fn through_pipeline(run: &mut Run, prepared: &Prepared, layers_ms: f64) {
    let mut pipeline_block = |name: &'static str, recorded: bool| {
        let pipelines: Vec<_> = prepared
            .pipelines
            .iter()
            .map(|p| match recorded {
                true => p.clone().with_recorder(Arc::new(Recorder::new())),
                false => p.clone(),
            })
            .collect();
        block(run.t, run.share(0.08), name, |t| {
            for p in &pipelines {
                let artifact = t.leaf("core.plan", || p.try_plan().expect("plan"));
                t.leaf("core.run_planned", || {
                    p.try_run_planned(&artifact).expect("run planned")
                });
            }
        })
    };
    let plain = pipeline_block("pipeline", false);
    let recorded = pipeline_block("pipeline.recorded", true);
    let analyze_ms = plain.quiet("pipeline");
    run.put("core.plan_ms", plain.quiet("core.plan"));
    run.put("core.analyze_ms", analyze_ms);
    run.put("core.glue_ms", analyze_ms - layers_ms);
    run.put("core.glue_frac", (analyze_ms - layers_ms) / analyze_ms);
    run.put(
        "trace.recorder_overhead_frac",
        recorded.quiet("pipeline.recorded") / analyze_ms,
    );
}

/// The artifact's text form, as the warm-restart store writes and
/// verifies it.
fn artifact_text(run: &mut Run, subjects: &[Subject], artifacts: &[ScheduleArtifact]) {
    let mut bytes = 0usize;
    let reps = block(run.t, run.share(0.02), "artifact", |t| {
        bytes = 0;
        for (a, s) in artifacts.iter().zip(subjects) {
            let mut buf = Vec::new();
            t.leaf("sched.artifact_write", || {
                a.write_text(&mut buf).expect("write to memory")
            });
            bytes += buf.len();
            let rebuilt = t.leaf("sched.artifact_rebuild", || {
                read_artifact_text(buf.as_slice()).and_then(|d| rebuild_artifact(&s.pattern, &d))
            });
            if rebuilt.map(|r| r.fingerprint()) != Ok(a.fingerprint()) {
                run.errors.push(format!(
                    "{}: artifact does not survive its text form",
                    s.name
                ));
            }
        }
    });
    run.put(
        "sched.artifact_write_ms",
        reps.quiet("sched.artifact_write"),
    );
    run.put(
        "sched.artifact_rebuild_ms",
        reps.quiet("sched.artifact_rebuild"),
    );
    run.put("sched.artifact_bytes", bytes as f64);
}

/// The sequential numeric kernels on the frozen plans, one block each.
/// Returns `numeric.cholesky_ms`, which the executors are set against.
fn sequential_kernels(run: &mut Run, prepared: &Prepared) -> f64 {
    let tenants = &prepared.tenants;
    let reps = block(run.t, run.share(0.01), "permute_values", |t| {
        for tenant in tenants {
            t.leaf("matrix.permute_values", || {
                tenant
                    .values
                    .permute(planned(tenant).artifact.permutation())
            });
        }
    });
    run.put(
        "matrix.permute_values_ms",
        reps.quiet("matrix.permute_values"),
    );
    let reps = block(run.t, run.share(0.02), "cholesky", |t| {
        for p in tenants.iter().map(planned) {
            let l = t.leaf("numeric.cholesky", || {
                numeric::cholesky(&p.permuted, p.artifact.factor())
            });
            if l.ok().as_ref() != Some(&p.factor) {
                run.errors
                    .push("sequential factor differs between repetitions".to_string());
            }
        }
    });
    let cholesky_ms = reps.quiet("numeric.cholesky");
    run.put("numeric.cholesky_ms", cholesky_ms);
    let reps = block(run.t, run.share(0.02), "supernodal", |t| {
        for p in tenants.iter().map(planned) {
            t.leaf("numeric.supernodal", || {
                numeric::cholesky_supernodal(&p.permuted, p.artifact.factor(), 0)
                    .expect("supernodal factorization")
            });
        }
    });
    run.put("numeric.supernodal_ms", reps.quiet("numeric.supernodal"));
    let reps = block(run.t, run.share(0.02), "solve", |t| {
        for tenant in tenants {
            let p = planned(tenant);
            let x = t.leaf("numeric.solve", || {
                numeric::solve_many_permuted(&p.factor, p.artifact.permutation(), &tenant.rhs)
            });
            if x != p.solutions {
                run.errors.push(format!(
                    "{}: solutions differ from the reference",
                    tenant.subject.name
                ));
            }
        }
    });
    run.put("numeric.solve_ms", reps.quiet("numeric.solve"));
    let residual = tenants
        .iter()
        .map(|t| relative_residual(&t.values, &planned(t).solutions, &t.rhs))
        .fold(0.0, f64::max);
    if residual.is_nan() || residual > RESIDUAL_LIMIT {
        run.errors
            .push(format!("residual {residual:e} exceeds {RESIDUAL_LIMIT:e}"));
    }
    run.put("numeric.residual_max", residual);
    // Computed from the symbolic structure, not counted by the kernel.
    let flops: usize = tenants
        .iter()
        .map(|t| planned(t).artifact.factor().flop_count())
        .sum();
    run.put("numeric.flops", flops as f64);
    run.put("numeric.flops_per_s", flops as f64 / (cholesky_ms / 1e3));
    cholesky_ms
}

/// The schedule executed: block-parallel, then message passing.
fn executed_schedule(
    run: &mut Run,
    prepared: &Prepared,
    simulated: &[TrafficReport],
    cholesky_ms: f64,
) {
    let plans: Vec<&Planned> = prepared.tenants.iter().map(planned).collect();
    let reps = block(run.t, run.share(0.03), "block_parallel", |t| {
        for p in &plans {
            let a = &p.artifact;
            let l = t.leaf("numeric.block_parallel", || {
                numeric::cholesky_block_parallel(
                    &p.permuted,
                    a.factor(),
                    a.partition(),
                    a.deps(),
                    a.assignment(),
                )
            });
            if l.ok().as_ref() != Some(&p.factor) {
                run.errors
                    .push("block-parallel factor differs from sequential".to_string());
            }
        }
    });
    let block_parallel_ms = reps.quiet("numeric.block_parallel");
    run.put("numeric.block_parallel_ms", block_parallel_ms);
    run.put("numeric.block_over_seq", block_parallel_ms / cholesky_ms);

    let mut reports: Vec<mp::MpReport> = Vec::new();
    let reps = block(run.t, run.share(0.03), "mp", |t| {
        reports = plans
            .iter()
            .filter_map(|p| {
                let a = &p.artifact;
                t.leaf("mp.execute", || {
                    mp::execute(
                        &p.permuted,
                        a.factor(),
                        a.partition(),
                        a.deps(),
                        a.assignment(),
                        &NetworkModel::free(),
                    )
                })
                .ok()
            })
            .collect();
    });
    run.put("mp.execute_ms", reps.quiet("mp.execute"));
    if reports.len() != plans.len() {
        run.errors
            .push("a message-passing execution failed".to_string());
    }
    for ((r, p), simulated) in reports.iter().zip(&plans).zip(simulated) {
        if r.factor != p.factor {
            run.errors
                .push("message-passing factor differs from sequential".to_string());
        }
        if &r.traffic_report() != simulated {
            run.errors
                .push("executed traffic differs from the simulator".to_string());
        }
    }
    let total = |f: &dyn Fn(&mp::MpReport) -> usize| reports.iter().map(f).sum::<usize>() as f64;
    run.put("mp.msgs", total(&|r| r.msgs_total()));
    run.put("mp.bytes", total(&|r| r.bytes_total()));
    run.put("mp.traffic_total", total(&|r| r.traffic_report().total));
    run.put("mp.cache_hits", total(&|r| r.cache_hits_total()));
    let procs = || reports.iter().flat_map(|r| &r.per_proc);
    let idle: u64 = procs().map(|s| s.idle_ns).sum();
    let busy: u64 = procs().map(|s| s.busy_ns).sum();
    run.put("mp.idle_frac", idle as f64 / (idle + busy) as f64);
}

/// The service. One client first: every tenant cold, then a warm replay
/// with the same steps taken by hand beside each `solve`, then the store.
/// Last the closed loop and the workload's own operation under a span.
fn served(run: &mut Run, prepared: &mut Prepared, artifacts: &[ScheduleArtifact], out_dir: &Path) {
    let w = run.w;
    let tenants = &prepared.tenants;
    let service = SolverService::start(spfactor_serve::ServeConfig {
        cache_capacity: tenants.len(),
        ..w.serve_config(tenants.len())
    });
    let root = run.t.enter_op("cold");
    for tenant in tenants {
        let name = &tenant.subject.name;
        match run
            .t
            .leaf("serve.cold", || service.solve(w.request(tenant)))
        {
            Ok(r) if !r.cache_hit && r.batches[0].solutions == planned(tenant).solutions => {}
            Ok(_) => run.errors.push(format!("{name}: wrong cold response")),
            Err(e) => run.errors.push(format!("{name}: {e}")),
        }
    }
    run.t.exit(root);
    let cold = run.t.sums_since(root as usize);
    run.put("serve.cold_ms", cold["serve.cold"] / tenants.len() as f64);

    let cache = ScheduleCache::new(tenants.len());
    for a in artifacts {
        cache
            .get_or_build(*a.key(), || Ok(a.clone()))
            .expect("fill the cache");
    }
    let cycle = &prepared.cycle;
    let mut turn = 0usize;
    let reps = block(run.t, run.share(0.06), "replay", |t| {
        let tenant = &tenants[cycle[turn % cycle.len()]];
        turn += 1;
        let name = &tenant.subject.name;
        let request = w.request(tenant);
        let key = request.key();
        match t.leaf("serve.warm", || service.solve(request)) {
            Ok(r) if r.cache_hit && r.batches[0].solutions == planned(tenant).solutions => {}
            Ok(_) => run.errors.push(format!("{name}: wrong warm response")),
            Err(e) => run.errors.push(format!("{name}: {e}")),
        }
        let artifact = t
            .leaf("serve.cache_hit", || {
                cache.get_or_build(key, || unreachable!("resident key"))
            })
            .expect("resident key");
        let permuted = t.leaf("replay.permute", || {
            tenant.values.permute(artifact.permutation())
        });
        let l = t.leaf("replay.cholesky", || {
            numeric::cholesky(&permuted, artifact.factor()).expect("factorization")
        });
        t.leaf("replay.solve", || {
            numeric::solve_many_permuted(&l, artifact.permutation(), &tenant.rhs)
        });
    });
    let warm = reps.samples("serve.warm");
    run.put("serve.warm_ms", warm.median());
    run.put(
        "serve.cache_hit_ms",
        reps.samples("serve.cache_hit").median(),
    );
    // Means, because the replay mixes tenants of different sizes.
    let by_hand: f64 = ["replay.permute", "replay.cholesky", "replay.solve"]
        .iter()
        .map(|n| reps.samples(n).mean())
        .sum();
    run.put("serve.dispatch_overhead_ms", warm.mean() - by_hand);

    let store_dir = out_dir.join(format!("store_{}_{}", w.name, std::process::id()));
    let store = ArtifactStore::open(&store_dir).expect("open the store directory");
    let root = run.t.enter_op("store");
    for (a, tenant) in artifacts.iter().zip(tenants) {
        run.t
            .leaf("serve.store_spill", || store.spill(a))
            .expect("spill");
        let loaded = run
            .t
            .leaf("serve.store_load", || {
                store.load(a.key(), &tenant.subject.pattern)
            })
            .expect("load");
        if loaded.map(|l| l.fingerprint()) != Some(a.fingerprint()) {
            run.errors.push(format!(
                "{}: store returned another artifact",
                tenant.subject.name
            ));
        }
    }
    run.t.exit(root);
    let stored = run.t.sums_since(root as usize);
    run.put("serve.store_spill_ms", stored["serve.store_spill"]);
    run.put("serve.store_load_ms", stored["serve.store_load"]);
    drop(store);
    std::fs::remove_dir_all(&store_dir).expect("remove the store directory");

    // The closed loop under the workload's own cache capacity. It is the
    // operation of the serve workloads, so they get more of it.
    let looped_on = match (w.op, w.prewarm) {
        (Op::Serve, _) => prepared.service.take().expect("started in set-up"),
        (_, true) => service,
        (_, false) => SolverService::start(w.serve_config(tenants.len())),
    };
    let loop_share = if w.op == Op::Serve { 0.3 } else { 0.08 };
    let before = looped_on.cache_stats();
    let looped = closed_loop(w, prepared, &looped_on, run.share(loop_share), run.t);
    run.errors.extend(looped.errors.iter().cloned());
    let after = looped_on.cache_stats();
    // Lookups of the loop alone: set-up's cold builds are not its misses.
    let hits = (after.hits + after.waits) - (before.hits + before.waits);
    let misses = after.misses - before.misses;
    run.put("serve.rps", looped.requests.len() as f64 / looped.wall_s);
    run.put("serve.p50_ms", looped.requests.median());
    run.put("serve.p99_ms", looped.requests.percentile(0.99));
    run.put("serve.hit_rate", hits as f64 / (hits + misses) as f64);
    run.put("serve.cold_builds", looped_on.cold_builds() as f64);
    run.put("serve.rejected", looped_on.rejected() as f64);
    run.put("serve.degraded", looped_on.degraded() as f64);
    run.put("serve.failed", looped.failed as f64);
    drop(looped_on);

    // The workload's own operation with a span around it.
    let units = match w.op {
        Op::Serve => looped.units,
        _ => block(run.t, run.share(0.08), "op", |_| {
            if let Err(e) = op_once(w, prepared) {
                run.errors.push(e);
            }
        })
        .samples("op"),
    };
    let op_ms = w.op.unit_time(&units);
    run.put("trace.op_ms", op_ms);
}
