//! Timeline export harness: Chrome-trace files and critical-path
//! reports for the paper's LAP30 problem under both schemes and both
//! engines.
//!
//! For each of wrap and block mapping, runs the pipeline with timeline
//! capture and the message-passing backend, then writes four
//! Perfetto-loadable traces:
//!
//! ```text
//! <out-dir>/lap30_block_sim.json   virtual clock, timed simulator
//! <out-dir>/lap30_block_mp.json    wall clock, mp runtime
//! <out-dir>/lap30_wrap_sim.json
//! <out-dir>/lap30_wrap_mp.json
//! ```
//!
//! and prints each schedule's critical-path attribution. Every export
//! is self-checked before it is written: the simulated timeline must
//! reconcile exactly (1e-9) against the timed report, and every trace
//! must pass the Chrome-trace validator. Load the files at
//! `ui.perfetto.dev` — see `docs/OBSERVABILITY.md` for a walkthrough.
//!
//! ```text
//! cargo run --release -p spfactor-bench --bin timeline
//! cargo run --release -p spfactor-bench --bin timeline -- --out-dir /tmp/tl --nprocs 8
//! ```

use spfactor::trace::timeline::validate_chrome_trace;
use spfactor::trace::{json, Timeline};
use spfactor::{ExecutionBackend, Pipeline, Scheme};

fn write_validated(path: &std::path::Path, trace: &str) {
    let t0 = std::time::Instant::now();
    let doc = json::parse(trace)
        .unwrap_or_else(|e| panic!("{}: exporter produced invalid JSON: {e}", path.display()));
    let stats = validate_chrome_trace(&doc)
        .unwrap_or_else(|e| panic!("{}: invalid Chrome trace: {e}", path.display()));
    std::fs::write(path, trace).expect("write trace");
    println!(
        "wrote {} ({} slices, {} counter samples, validated in {:.1}s)",
        path.display(),
        stats.slices,
        stats.counters,
        t0.elapsed().as_secs_f64()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opt = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let out_dir =
        std::path::PathBuf::from(opt("--out-dir").unwrap_or_else(|| "target/timelines".into()));
    let nprocs: usize = opt("--nprocs")
        .map(|v| v.parse().expect("--nprocs takes a number"))
        .unwrap_or(16);
    let only = opt("--scheme");
    std::fs::create_dir_all(&out_dir).expect("create out dir");

    let lap30 = spfactor::matrix::gen::paper::lap30();
    for (scheme, label) in [(Scheme::Block, "block"), (Scheme::Wrap, "wrap")] {
        if only.as_deref().is_some_and(|s| s != label) {
            continue;
        }
        let t_run = std::time::Instant::now();
        let result = Pipeline::new(lap30.pattern.clone())
            .scheme(scheme)
            .grain(4)
            .processors(nprocs)
            .backend(ExecutionBackend::MessagePassing)
            .timeline(true)
            .run();
        let tl = result.timeline.as_ref().expect("timeline captured");
        println!(
            "lap30 {label}: pipeline ran in {:.1}s",
            t_run.elapsed().as_secs_f64()
        );

        // The virtual-clock timeline must agree with the timed report
        // before it is worth exporting.
        tl.simulated
            .reconcile(&tl.timed.busy, tl.timed.makespan, 1e-9)
            .unwrap_or_else(|e| panic!("lap30 {label}: timeline does not reconcile: {e}"));

        println!("== LAP30 {label}, {nprocs} processors (virtual clock) ==");
        print!("{}", tl.critical_path.to_text());
        write_validated(
            &out_dir.join(format!("lap30_{label}_sim.json")),
            &tl.simulated.to_chrome_trace(),
        );

        let executed: &Timeline = tl.executed.as_ref().expect("mp timeline captured");
        println!("== LAP30 {label}, {nprocs} processors (mp runtime, wall clock) ==");
        print!("{}", executed.critical_path(10).to_text());
        write_validated(
            &out_dir.join(format!("lap30_{label}_mp.json")),
            &executed.to_chrome_trace_scaled(1e6),
        );
        println!();
    }
}
