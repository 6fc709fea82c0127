//! Perf-regression gate over the bench JSON documents.
//!
//! Compares every time-like leaf (any dotted path with a segment ending
//! `_ms`: `phases_ms.*`, `total_ms`, …) and every heap leaf
//! (`peak_bytes.*` and `max_peak_bytes`) of the committed scale
//! baseline, `BENCH_scale.json`, against a fresh run, and
//! fails when a leaf grew more than `--threshold` times — a time leaf
//! only while above the `--min-ms` noise floor. Missing baseline leaves
//! also fail — a shrunk benchmark cannot masquerade as a fast or a small
//! one. The comparison logic is `spfactor_trace::regress`; this binary
//! is the CLI.
//!
//! ```text
//! cargo run --release -p spfactor-bench --bin bench_regression -- \
//!     --baseline BENCH_scale.json --new /tmp/fresh.json
//! cargo run --release -p spfactor-bench --bin bench_regression -- \
//!     --baseline BENCH_scale.json --new /tmp/fresh.json --report-only
//! ```
//!
//! Exit status: 0 when the candidate passes (or `--report-only` was
//! given), 1 on regressions or missing leaves, 2 on usage errors.
//! `scripts/bench.sh --gate-scale` wires this against a fresh full
//! sweep; `scripts/verify.sh` runs a report-only diff of the scale smoke
//! run and requires a seeded regression to fail.

use spfactor_trace::{json, regress};

fn fail_usage(msg: &str) -> ! {
    eprintln!("bench_regression: {msg}");
    eprintln!(
        "usage: bench_regression --baseline <file> --new <file> \
         [--threshold <ratio>] [--min-ms <ms>] [--report-only]"
    );
    std::process::exit(2);
}

fn load(path: &str) -> json::Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail_usage(&format!("cannot read {path}: {e}")));
    json::parse(&text).unwrap_or_else(|e| fail_usage(&format!("{path} is not valid JSON: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opt = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let baseline_path =
        opt("--baseline").unwrap_or_else(|| fail_usage("--baseline <file> is required"));
    let new_path = opt("--new").unwrap_or_else(|| fail_usage("--new <file> is required"));
    let report_only = args.iter().any(|a| a == "--report-only");
    let mut opts = regress::RegressOptions::default();
    if let Some(t) = opt("--threshold") {
        opts.threshold = t
            .parse()
            .unwrap_or_else(|_| fail_usage("--threshold takes a ratio like 1.15"));
    }
    if let Some(m) = opt("--min-ms") {
        opts.min_value = m
            .parse()
            .unwrap_or_else(|_| fail_usage("--min-ms takes a number of milliseconds"));
    }

    let baseline = load(&baseline_path);
    let candidate = load(&new_path);
    let report = regress::compare(&baseline, &candidate, &opts);
    print!("{}", report.to_text());
    if report.passed() {
        println!(
            "PASS: {new_path} is within {:.0}% of {baseline_path}",
            (opts.threshold - 1.0) * 100.0
        );
    } else if report_only {
        println!(
            "REPORT-ONLY: {new_path} regressed against {baseline_path} (not failing the build)"
        );
    } else {
        println!("FAIL: {new_path} regressed against {baseline_path}");
        std::process::exit(1);
    }
}
