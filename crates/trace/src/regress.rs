//! Performance-regression comparison over metric JSON documents.
//!
//! Compares two parsed JSON documents (a committed baseline such as
//! `BENCH_scale.json` and a fresh run) leaf by leaf and flags gated
//! values that grew past an allowed ratio. Two kinds of leaf are gated,
//! both "lower is better":
//!
//! * *time* — any key segment on its dotted path ends in `_ms`:
//!   `BENCH_scale.json`'s `phases_ms.*` and `total_ms`, and any other
//!   document's `…_ms` leaves;
//! * *heap* — a segment is `peak_bytes` or `max_peak_bytes`:
//!   `BENCH_scale.json`'s per-phase `peak_bytes.*` and its
//!   `max_peak_bytes` (not the fitted `slopes.deps_peak_bytes`).
//!
//! Speedups, counts, slopes and configuration echoes are not monotone
//! "lower is better" and are ignored.
//!
//! The comparison is symmetric in structure but one-sided in judgment:
//! only growth (candidate > threshold x baseline) is a regression;
//! improvements pass, and so do time leaves under the noise floor (a heap
//! leaf has none: bytes do not jitter like a timer). Gated baseline
//! leaves missing from the candidate are counted in
//! [`RegressionReport::missing`] so a silently shrunk benchmark cannot
//! masquerade as a fast or a small one.
//!
//! ```
//! use spfactor_trace::{json, regress};
//! let base = json::parse(r#"{"m": {"phases_ms": {"order": 100.0}}}"#).unwrap();
//! let cand = json::parse(r#"{"m": {"phases_ms": {"order": 130.0}}}"#).unwrap();
//! let report = regress::compare(&base, &cand, &regress::RegressOptions::default());
//! assert_eq!(report.regressions.len(), 1);
//! assert!(!report.passed());
//! ```

use crate::json::Value;
use crate::Recorder;
use std::fmt::Write as _;

/// Tuning knobs for [`compare`].
#[derive(Clone, Copy, Debug)]
pub struct RegressOptions {
    /// Slowdown ratio above which a leaf is a regression (1.15 = +15%).
    pub threshold: f64,
    /// Noise floor: a time leaf's candidate value below this many
    /// milliseconds never regresses. Heap leaves have none.
    pub min_value: f64,
}

impl Default for RegressOptions {
    fn default() -> Self {
        Self {
            threshold: 1.15,
            min_value: 5.0,
        }
    }
}

/// One flagged slowdown or heap growth.
#[derive(Clone, Debug)]
pub struct Regression {
    /// Dotted path of the leaf, e.g. `LAP200.phases_ms.order`.
    pub path: String,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value.
    pub candidate: f64,
    /// `candidate / baseline`.
    pub ratio: f64,
}

/// Outcome of [`compare`].
#[derive(Clone, Debug, Default)]
pub struct RegressionReport {
    /// Gated leaves present in both documents and compared.
    pub checked: usize,
    /// Gated baseline leaves absent (or non-numeric) in the candidate.
    pub missing: usize,
    /// Leaves that exceeded the threshold.
    pub regressions: Vec<Regression>,
    /// Largest `candidate / baseline` ratio seen over compared leaves
    /// above the noise floor (1.0 when nothing qualified).
    pub max_ratio: f64,
}

impl RegressionReport {
    /// `true` when no leaf regressed and nothing went missing.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.missing == 0
    }

    /// Records the outcome as `bench.regression.*` gauges.
    pub fn record(&self, rec: &Recorder) {
        rec.gauge("bench.regression.checked", self.checked as f64);
        rec.gauge("bench.regression.missing", self.missing as f64);
        rec.gauge("bench.regression.count", self.regressions.len() as f64);
        rec.gauge("bench.regression.max_ratio", self.max_ratio);
    }

    /// Renders the report as a human-readable block.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "bench regression: {} leaves compared, {} missing, {} regressions, \
             max ratio {:.3}",
            self.checked,
            self.missing,
            self.regressions.len(),
            self.max_ratio
        );
        for r in &self.regressions {
            let what = match leaf_kind(&r.path) {
                Some(Leaf::Heap) => "LARGER",
                _ => "SLOWER",
            };
            let _ = writeln!(
                out,
                "  {what} {}: {:.3} -> {:.3}  ({:.2}x)",
                r.path, r.baseline, r.candidate, r.ratio
            );
        }
        out
    }
}

/// The two kinds of gated leaf.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Leaf {
    Time,
    Heap,
}

/// What a dotted path addresses: a time leaf when some key segment ends
/// in `_ms` (so both `simulate_ms` and children of `phases_ms` qualify),
/// a heap leaf when some segment is `peak_bytes` or `max_peak_bytes`,
/// else nothing gated.
fn leaf_kind(path: &str) -> Option<Leaf> {
    let segs = || path.split('.');
    if segs().any(|seg| seg.ends_with("_ms")) {
        Some(Leaf::Time)
    } else if segs().any(|seg| seg == "peak_bytes" || seg == "max_peak_bytes") {
        Some(Leaf::Heap)
    } else {
        None
    }
}

fn numeric_leaves(value: &Value, prefix: &str, out: &mut Vec<(String, f64)>) {
    match value {
        Value::Number(n) => out.push((prefix.to_string(), *n)),
        Value::Object(fields) => {
            for (k, v) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                numeric_leaves(v, &path, out);
            }
        }
        Value::Array(items) => {
            for (i, v) in items.iter().enumerate() {
                numeric_leaves(v, &format!("{prefix}[{i}]"), out);
            }
        }
        _ => {}
    }
}

fn lookup(doc: &Value, path: &str) -> Option<f64> {
    let mut cur = doc;
    for seg in path.split('.') {
        // Array segments look like "key[3]"; peel indices in order.
        let (key, rest) = match seg.find('[') {
            Some(p) => (&seg[..p], &seg[p..]),
            None => (seg, ""),
        };
        if !key.is_empty() {
            cur = cur.get(key)?;
        }
        let mut rest = rest;
        while let Some(close) = rest.find(']') {
            let idx: usize = rest.get(1..close)?.parse().ok()?;
            cur = cur.as_array()?.get(idx)?;
            rest = &rest[close + 1..];
        }
    }
    cur.as_f64()
}

/// Compares every gated numeric leaf of `baseline` — time and heap —
/// against the same path in `candidate`. See the module docs for the
/// judgment rule.
pub fn compare(baseline: &Value, candidate: &Value, opts: &RegressOptions) -> RegressionReport {
    let mut leaves = Vec::new();
    numeric_leaves(baseline, "", &mut leaves);
    let mut report = RegressionReport {
        max_ratio: 1.0,
        ..RegressionReport::default()
    };
    for (path, base) in leaves {
        let Some(kind) = leaf_kind(&path) else {
            continue;
        };
        let Some(cand) = lookup(candidate, &path) else {
            report.missing += 1;
            continue;
        };
        report.checked += 1;
        if kind == Leaf::Time && cand < opts.min_value {
            continue; // below the noise floor either way
        }
        let ratio = if base > 0.0 {
            cand / base
        } else {
            f64::INFINITY
        };
        report.max_ratio = report.max_ratio.max(ratio);
        if ratio > opts.threshold {
            report.regressions.push(Regression {
                path,
                baseline: base,
                candidate: cand,
                ratio,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    const BASE: &str = r#"{
        "schema": "spfactor-bench-pipeline/2",
        "matrices": [
            {"name": "LAP30", "phases_ms": {"order": 100.0, "deps": 40.0},
             "simulate_ms": 20.0, "speedup": 3.0}
        ]
    }"#;

    #[test]
    fn identical_documents_pass() {
        let base = parse(BASE).unwrap();
        let report = compare(&base, &base, &RegressOptions::default());
        assert!(report.passed());
        assert_eq!(report.checked, 3); // order, deps, simulate_ms
        assert_eq!(report.max_ratio, 1.0);
    }

    #[test]
    fn slowdown_above_threshold_is_flagged() {
        let base = parse(BASE).unwrap();
        let cand = parse(&BASE.replace("100.0", "130.0")).unwrap();
        let report = compare(&base, &cand, &RegressOptions::default());
        assert_eq!(report.regressions.len(), 1);
        assert!(report.regressions[0].path.ends_with("phases_ms.order"));
        assert!((report.regressions[0].ratio - 1.3).abs() < 1e-12);
        assert!(!report.passed());
        assert!(report.to_text().contains("SLOWER"));
    }

    #[test]
    fn speedups_and_noise_pass() {
        let base = parse(BASE).unwrap();
        // order got faster; deps doubled but the candidate value sits
        // under a raised noise floor; speedup changes are ignored.
        let cand = parse(
            &BASE
                .replace("100.0", "50.0")
                .replace("40.0", "80.0")
                .replace("\"speedup\": 3.0", "\"speedup\": 0.1"),
        )
        .unwrap();
        let opts = RegressOptions {
            threshold: 1.15,
            min_value: 100.0,
        };
        let report = compare(&base, &cand, &opts);
        assert!(report.passed(), "{:?}", report.regressions);
    }

    #[test]
    fn missing_leaves_fail() {
        let base = parse(BASE).unwrap();
        let cand = parse(r#"{"matrices": []}"#).unwrap();
        let report = compare(&base, &cand, &RegressOptions::default());
        assert_eq!(report.missing, 3);
        assert!(!report.passed());
    }

    const SCALE: &str = r#"{
        "max_peak_bytes": 1000,
        "slopes": {"deps": 1.5, "deps_peak_bytes": 1.3},
        "sizes": [
            {"side": 100, "phases_ms": {"deps": 40.0},
             "peak_bytes": {"deps": 1000, "sched": 400}}
        ]
    }"#;

    #[test]
    fn heap_leaves_are_gated_and_slopes_are_not() {
        let base = parse(SCALE).unwrap();
        let report = compare(&base, &base, &RegressOptions::default());
        // deps time, two phase peaks and max_peak_bytes; no slope.
        assert_eq!(report.checked, 4);
        assert!(report.passed());
        // A fitted slope that grew is not a heap leaf.
        let cand =
            parse(&SCALE.replace("\"deps_peak_bytes\": 1.3", "\"deps_peak_bytes\": 9.0")).unwrap();
        assert!(compare(&base, &cand, &RegressOptions::default()).passed());
    }

    #[test]
    fn heap_growth_above_threshold_is_flagged() {
        let base = parse(SCALE).unwrap();
        // The sched peak grows 20 %, past the default 15 %; the deps
        // peak shrinks. A heap leaf has no noise floor: 480 B counts.
        let cand = parse(&SCALE.replace("\"sched\": 400", "\"sched\": 480")).unwrap();
        let opts = RegressOptions {
            threshold: 1.15,
            min_value: 1e9,
        };
        let report = compare(&base, &cand, &opts);
        assert_eq!(report.regressions.len(), 1, "{:?}", report.regressions);
        assert_eq!(report.regressions[0].path, "sizes[0].peak_bytes.sched");
        assert!((report.regressions[0].ratio - 1.2).abs() < 1e-12);
        assert!(!report.passed());
        assert!(report
            .to_text()
            .contains("LARGER sizes[0].peak_bytes.sched"));
        // The same growth inside a looser threshold passes.
        let loose = RegressOptions {
            threshold: 1.25,
            ..opts
        };
        assert!(compare(&base, &cand, &loose).passed());
    }

    #[test]
    fn a_missing_heap_leaf_fails() {
        let base = parse(SCALE).unwrap();
        let cand = parse(&SCALE.replace("\"max_peak_bytes\": 1000,", "")).unwrap();
        let report = compare(&base, &cand, &RegressOptions::default());
        assert_eq!(report.missing, 1);
        assert!(report.regressions.is_empty());
        assert!(!report.passed());
    }

    #[test]
    fn gauges_are_recorded() {
        let base = parse(BASE).unwrap();
        let rec = Recorder::new();
        compare(&base, &base, &RegressOptions::default()).record(&rec);
        assert_eq!(rec.gauge_value("bench.regression.checked"), Some(3.0));
        assert_eq!(rec.gauge_value("bench.regression.count"), Some(0.0));
        assert_eq!(rec.gauge_value("bench.regression.max_ratio"), Some(1.0));
        assert_eq!(rec.gauge_value("bench.regression.missing"), Some(0.0));
    }
}
