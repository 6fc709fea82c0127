//! Performance-regression comparison over metric JSON documents.
//!
//! Compares two parsed JSON documents (a committed baseline such as
//! `BENCH_pipeline.json` and a fresh run) leaf by leaf and flags
//! time-like values that got slower than an allowed ratio. A leaf is
//! *time-like* when any key segment on its dotted path ends in `_ms` —
//! this matches the bench schema's `phases_ms.*`, `deps_ms.*` and
//! `simulate_ms` families while ignoring speedups, counts and
//! configuration echoes, which are not monotone "lower is better".
//!
//! The comparison is symmetric in structure but one-sided in judgment:
//! only slowdowns (candidate > threshold x baseline) are regressions;
//! speedups and values under the noise floor pass. Baseline leaves
//! missing from the candidate are counted in
//! [`RegressionReport::missing`] so a silently shrunk benchmark cannot
//! masquerade as a fast one.
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
    /// Noise floor: a candidate value below this (in the leaf's own
    /// unit, milliseconds for `_ms` families) never regresses.
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

/// One flagged slowdown.
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
    /// Time-like leaves present in both documents and compared.
    pub checked: usize,
    /// Time-like baseline leaves absent (or non-numeric) in the candidate.
    pub missing: usize,
    /// Leaves that exceeded the slowdown threshold.
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
            let _ = writeln!(
                out,
                "  SLOWER {}: {:.3} -> {:.3}  ({:.2}x)",
                r.path, r.baseline, r.candidate, r.ratio
            );
        }
        out
    }
}

/// `true` when a dotted path addresses a time-like leaf: some key
/// segment ends in `_ms` (so both `simulate_ms` and children of
/// `phases_ms` qualify).
fn is_time_path(path: &str) -> bool {
    path.split('.').any(|seg| seg.ends_with("_ms"))
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

/// Compares every time-like numeric leaf of `baseline` against the same
/// path in `candidate`. See the module docs for the judgment rule.
pub fn compare(baseline: &Value, candidate: &Value, opts: &RegressOptions) -> RegressionReport {
    let mut leaves = Vec::new();
    numeric_leaves(baseline, "", &mut leaves);
    let mut report = RegressionReport {
        max_ratio: 1.0,
        ..RegressionReport::default()
    };
    for (path, base) in leaves {
        if !is_time_path(&path) {
            continue;
        }
        let Some(cand) = lookup(candidate, &path) else {
            report.missing += 1;
            continue;
        };
        report.checked += 1;
        if cand < opts.min_value {
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
