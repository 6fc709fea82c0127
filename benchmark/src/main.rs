//! The repository's benchmark. `README.md` beside this package says what
//! is measured and why; `../BENCHMARK.json` is the contract.
//!
//! ```text
//! spfactor-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! spfactor-benchmark [--seed N] [--seconds S] [--smoke] [--out FILE]   every workload, both ways
//! spfactor-benchmark --compare A.json B.json
//! spfactor-benchmark --emit-contract | --check-contract
//! ```
//!
//! Run it through `run.sh`, which builds it first, from the repository
//! root.

mod profile;
mod report;
mod stats;
mod tracer;
mod workloads;

use report::{END_TO_END, PER_LAYER};
use spfactor::trace::alloc::TrackingAllocator;
use spfactor::trace::json;
use stats::Samples;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

/// Complete set-ups per run: at least the first number, and more while
/// they have taken less than a second in all, up to the second number;
/// `setup_s` is the fastest of them, like every other time.
const SETUP_REPS: (usize, usize) = (3, 25);
/// What a smoke run measures for when `--seconds` is not given.
const SMOKE_SECONDS: f64 = 0.3;
/// Where traces and the files of complete sets of runs go.
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    emit_contract: bool,
    check_contract: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
        compare: None,
        emit_contract: false,
        check_contract: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => match it.next().as_deref() {
                Some("0") => args.trace = false,
                Some("1") => args.trace = true,
                _ => return Err("--trace takes 0 or 1".to_string()),
            },
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value()?.into()),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            "--emit-contract" => args.emit_contract = true,
            "--check-contract" => args.check_contract = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("spfactor-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// `Ok(false)` is a completed run whose checks did not all hold.
fn run(args: &Args) -> Result<bool, String> {
    if args.emit_contract {
        print!("{}", report::contract());
        return Ok(true);
    }
    if args.check_contract {
        let problems = report::check_contract(&read(Path::new("BENCHMARK.json"))?);
        for p in &problems {
            eprintln!("contract: {p}");
        }
        return Ok(problems.is_empty());
    }
    if let Some((a, b)) = &args.compare {
        let bad = report::compare(&read(a)?, &read(b)?)?;
        println!("{bad} breaches and mismatches");
        return Ok(bad == 0);
    }
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        report::RUN_SECONDS as f64
    });
    match &args.workload {
        Some(name) => {
            let w = WORKLOADS
                .iter()
                .find(|w| w.name == name)
                .ok_or(format!("unknown workload {name}"))?;
            run_one(w, args, seconds)
        }
        None => run_all(args, seconds),
    }
}

/// One workload, one way, in this process.
fn run_one(w: &Workload, args: &Args, seconds: f64) -> Result<bool, String> {
    let mut setup = Samples::default();
    let mut prepared = None;
    let started = Instant::now();
    while setup.len() < SETUP_REPS.0
        || (setup.len() < SETUP_REPS.1 && started.elapsed() < Duration::from_secs(1))
    {
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(workloads::set_up(w, args.seed, args.smoke));
        setup.0.push(t.elapsed().as_secs_f64());
    }
    let mut prepared = prepared.expect("at least one set-up ran");
    eprintln!("{}: set-up {} s", w.name, setup.describe());

    let result = if args.trace {
        traced(w, &mut prepared, args.seed, seconds)?
    } else {
        untraced(w, &prepared, setup.fastest(), seconds)?
    };
    for (name, value, unit) in &result.metrics {
        eprintln!("{}: {name} = {value} {unit}", w.name);
    }
    println!(
        "{}",
        report::result_line(
            result.correct,
            result.attempted,
            result.failed,
            &result.metrics
        )
    );
    Ok(result.correct)
}

/// What a run prints as its last line.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Name, value, unit.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

/// The workload's operation for `seconds`: the end-to-end metrics.
fn untraced(
    w: &Workload,
    prepared: &workloads::Prepared,
    setup_s: f64,
    seconds: f64,
) -> Result<RunResult, String> {
    let out = workloads::run_op(w, prepared, Duration::from_secs_f64(seconds));
    for e in &out.errors {
        eprintln!("{}: check failed: {e}", w.name);
    }
    if out.units.len() == 0 {
        return Err(format!("{}: no operation completed", w.name));
    }
    eprintln!("{}: unit of work {} ms", w.name, out.units.describe());
    if let Some(service) = &prepared.service {
        eprintln!(
            "{}: request {} ms, p99 {:.3} ms, {:.1} requests/s, {} cold builds, hit rate {:.3}",
            w.name,
            out.requests.describe(),
            out.requests.percentile(0.99),
            out.requests.len() as f64 / out.wall_s,
            service.cold_builds(),
            service.cache_stats().hit_rate()
        );
    }
    let values = [
        w.op.unit_time(&out.units),
        out.peak_heap_bytes as f64 / 1e6,
        setup_s,
    ];
    Ok(RunResult {
        correct: out.errors.is_empty() && out.failed == 0,
        attempted: out.attempted,
        failed: out.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(e, v)| (e.name, v, e.unit))
            .collect(),
    })
}

/// The profile of every layer for about `seconds`: the per-layer
/// metrics, the trace file, and the self times on stderr. Each metric
/// and each failed check counts as one attempt.
fn traced(
    w: &Workload,
    prepared: &mut workloads::Prepared,
    seed: u64,
    seconds: f64,
) -> Result<RunResult, String> {
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let started = Instant::now();
    let mut tracer = tracer::Tracer::new(started);
    let (mut values, errors) = profile::profile(w, prepared, seconds, out_dir, &mut tracer);
    values.push(("trace.profile_s", started.elapsed().as_secs_f64()));
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    values.push(("threads", threads as f64));
    for e in &errors {
        eprintln!("{}: check failed: {e}", w.name);
    }
    let path = out_dir.join(format!("trace_{}.json", w.name));
    std::fs::write(&path, tracer.to_json(w.name, seed))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "{}: {} spans in {}; self time per span name:",
        w.name,
        tracer.spans.len(),
        path.display()
    );
    for (name, (total, n)) in tracer.self_times() {
        eprintln!("  {name:<26} {total:>12.3} ms over {n} spans");
    }
    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|p| {
            let (_, v) = values
                .iter()
                .find(|(name, _)| *name == p.name)
                .unwrap_or_else(|| panic!("the profile did not measure {}", p.name));
            (p.name, *v, p.unit)
        })
        .collect();
    Ok(RunResult {
        correct: errors.is_empty(),
        attempted: (metrics.len() + errors.len()) as u64,
        failed: errors.len() as u64,
        metrics,
    })
}

/// Every workload untraced and traced, each run in a fresh process of
/// this executable, saved as one file for `--compare`.
fn run_all(args: &Args, seconds: f64) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    let mut doc = format!(
        "{{\"seed\": {}, \"seconds\": {seconds}, \"smoke\": {}, \"workloads\": {{",
        args.seed, args.smoke
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        let mut lines = Vec::new();
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if args.smoke {
                cmd.arg("--smoke");
            }
            let out = cmd
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            all_correct &= out.status.success();
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or("").to_string();
            json::parse(&line)
                .map_err(|e| format!("{} --trace {trace}: no result: {e}", w.name))?;
            lines.push(line);
        }
        let comma = if i == 0 { "" } else { "," };
        doc.push_str(&format!(
            "{comma}\n\"{}\": {{\"untraced\": {}, \"traced\": {}}}",
            w.name, lines[0], lines[1]
        ));
        // The workload's operation as the traced run saw it, against the
        // untraced run's: what tracing (and sharing a process with the
        // profile) costs.
        let value = |line: &str, metric: &str| {
            json::parse(line)
                .ok()
                .and_then(|v| v.get("metrics")?.get(metric)?.get("value")?.as_f64())
        };
        if let (Some(u), Some(t)) = (value(&lines[0], "op_ms"), value(&lines[1], "trace.op_ms")) {
            println!("{}: trace_overhead_frac = {} ratio", w.name, (t - u) / u);
        }
    }
    doc.push_str("\n}}\n");
    let path = args.out.clone().unwrap_or_else(|| {
        let kind = if args.smoke { "smoke" } else { "run" };
        Path::new(OUT_DIR).join(format!("{kind}_seed{}.json", args.seed))
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}
