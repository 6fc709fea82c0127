//! Fill-reducing orderings for sparse Cholesky factorization.
//!
//! The paper orders every test matrix with *Liu's modified multiple minimum
//! degree* scheme (reference \[10\] of the paper) before partitioning. This
//! crate implements that algorithm from scratch — [`mmd`] is the readable
//! oracle, [`compress`] the driver every engine runs — together with the
//! supporting cast a sparse direct solver needs:
//!
//! * [`etree`] — elimination trees and postorderings;
//! * [`rcm`] — reverse Cuthill-McKee (bandwidth-oriented baseline);
//! * [`nested`] — recursive nested dissection;
//! * [`mf`] — greedy minimum local fill (fill-quality reference point);
//! * [`Ordering`] — a method-selection enum with a single [`order`] entry
//!   point used by the pipeline.
//!
//! # Choosing an ordering
//!
//! The pipeline accepts any variant through `Pipeline::ordering`; they
//! trade fill quality against ordering runtime:
//!
//! | method | fill quality | runtime | when to use |
//! |---|---|---|---|
//! | `MultipleMinimumDegree` | best on the paper's matrices | exact external degrees, multiple elimination per pass; 0.2–6 ms on the paper's matrices, 0.14 s on a 200×200 grid | the paper's configuration; the default everywhere |
//! | `ReverseCuthillMcKee` | poor (bandwidth, not fill) | near-linear BFS | banded structures; baseline comparisons |
//! | `NestedDissection` | good asymptotics on meshes, weaker constants here | separator BFS per level | regular grids at scale |
//! | `MinimumFill` | often lowest fill | much slower — simulates fill per candidate | small matrices; fill-quality reference |
//! | `Natural` | none | free | pre-ordered inputs; debugging |
//!
//! Measured numbers back these rows: the repository benchmark records
//! MMD's wall time as `order.ms` / `order.direct_ms`, `cargo bench -p
//! spfactor-bench --bench ordering` times the oracle beside the driver,
//! and the `orderings` section of `all_tables`
//! (`cargo run --release -p spfactor-bench --bin all_tables --
//! orderings`) sweeps fill across every method. A pipeline run tagged
//! with a recorder reports the method it used via the `order.alg.<name>`
//! counter and its cost under the `order.compute` span (see
//! `docs/METRICS.md`).

pub mod compress;
pub mod etree;
pub mod mf;
pub mod mmd;
pub mod nested;
pub mod rcm;

pub use compress::GraphCompression;

use spfactor_matrix::{Permutation, SymmetricPattern};
use spfactor_trace::Current;

/// Ordering algorithm selector for [`order`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Ordering {
    /// Keep the natural (input) ordering.
    Natural,
    /// Reverse Cuthill-McKee.
    ReverseCuthillMcKee,
    /// Liu's multiple minimum degree with the given `delta` threshold
    /// (`delta = 0` is classic MMD; larger values eliminate more nodes per
    /// pass at a small fill cost). The paper uses this ordering.
    MultipleMinimumDegree {
        /// Tolerance above the current minimum degree for multiple
        /// elimination.
        delta: usize,
    },
    /// Recursive nested dissection with BFS-level separators.
    NestedDissection,
    /// Greedy minimum local fill (minimum deficiency).
    MinimumFill,
}

impl Ordering {
    /// The ordering the paper uses for all experiments.
    pub fn paper_default() -> Self {
        Ordering::MultipleMinimumDegree { delta: 0 }
    }

    /// Stable lowercase name used in metrics (`order.alg.<name>`) and the
    /// bench JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Ordering::Natural => "natural",
            Ordering::ReverseCuthillMcKee => "rcm",
            Ordering::MultipleMinimumDegree { .. } => "mmd",
            Ordering::NestedDissection => "nd",
            Ordering::MinimumFill => "mf",
        }
    }
}

/// Execution strategy for minimum degree, selected on the
/// pipeline like `SimulateEngine` and `DepsEngine`: same fill regime,
/// different cost. Both variants run the one flat quotient-graph
/// driver in [`compress`]; the per-variable oracle in [`mmd`] is the
/// spec that driver is tested against and is run by no engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum OrderEngine {
    /// The driver on the pattern as given (degree lists instead of
    /// per-pass scans, flat arrays sized once, nothing allocated per
    /// elimination or degree update): the oracle's permutation, 3–23×
    /// faster.
    #[default]
    Direct,
    /// The same driver after up-front compression: indistinguishable
    /// nodes collapse into weighted supervariables, the quotient graph is
    /// ordered, and the permutation is expanded back. Identical to
    /// `Direct` where nothing compresses (the pre-pass then hands the
    /// driver the graph it hashed), fill-equivalent elsewhere.
    ///
    /// Either way only [`Ordering::MultipleMinimumDegree`] has engines;
    /// every other method ignores the selector.
    Compressed,
}

impl OrderEngine {
    /// Stable lowercase name used in metrics (`order.engine.<name>`),
    /// schedule-artifact headers, and the bench JSON.
    pub fn name(&self) -> &'static str {
        match self {
            OrderEngine::Direct => "direct",
            OrderEngine::Compressed => "compressed",
        }
    }
}

/// Computes the permutation for `pattern` under the selected method on
/// the default engine. `perm[new] = old` as everywhere in the workspace.
///
/// Under a recorder scope this is instrumented as described on
/// [`order_with_engine`], which also documents the size limit this
/// panics on:
///
/// ```
/// use std::sync::Arc;
/// use spfactor_order::{order, Ordering};
/// use spfactor_trace::{scope, Recorder};
///
/// let pattern = spfactor_matrix::gen::lap9(4, 4);
/// let rec = Arc::new(Recorder::new());
/// let perm = {
///     let _scope = scope(&rec);
///     order(&pattern, Ordering::paper_default())
/// };
/// assert_eq!(perm.len(), 16);
/// assert!(rec.counter("order.mmd.passes") > 0);
/// assert_eq!(rec.counter("order.alg.mmd"), 1);
/// ```
pub fn order(pattern: &SymmetricPattern, method: Ordering) -> Permutation {
    order_with_engine(pattern, method, OrderEngine::Direct)
}

/// [`order`] under an explicit [`OrderEngine`], which only minimum
/// degree looks at.
///
/// Under a recorder scope: the `order.compute` span, the
/// `order.alg.<name>` (names from [`Ordering::name`]) and
/// `order.engine.<name>` counters, the `order.mmd.*` and
/// `order.driver.*` work counters for minimum degree, and —
/// on the compressed engine — the `order.compress.{original,nodes,ratio}`
/// gauges (see `docs/METRICS.md`).
///
/// # Panics
/// The minimum-degree driver (also nested dissection's leaf ordering)
/// keeps 32-bit ids and offsets and panics on a pattern with `u32::MAX`
/// or more columns or more than `u32::MAX / 2` off-diagonal nonzeros
/// ([`compress::check_index_range`]); `Pipeline` rejects such a pattern
/// with a typed `InvalidParameter` before it gets here.
pub fn order_with_engine(
    pattern: &SymmetricPattern,
    method: Ordering,
    engine: OrderEngine,
) -> Permutation {
    let rec = spfactor_trace::current();
    let _span = rec.span("order.compute");
    if rec.is_recording() {
        rec.incr(&format!("order.alg.{}", method.name()), 1);
        rec.incr(&format!("order.engine.{}", engine.name()), 1);
    }
    match method {
        Ordering::Natural => Permutation::identity(pattern.n()),
        Ordering::ReverseCuthillMcKee => rcm::reverse_cuthill_mckee(pattern),
        Ordering::MultipleMinimumDegree { delta } => min_degree(pattern, delta, engine, &rec),
        Ordering::NestedDissection => nested::nested_dissection(pattern),
        Ordering::MinimumFill => mf::minimum_fill(pattern),
    }
}

/// The one minimum-degree entry: the driver in [`compress`], with or
/// without up-front compression.
fn min_degree(
    pattern: &SymmetricPattern,
    delta: usize,
    engine: OrderEngine,
    rec: &Current,
) -> Permutation {
    let (perm, counters, work) = match engine {
        OrderEngine::Direct => compress::direct_min_degree(pattern, delta),
        OrderEngine::Compressed => {
            let (perm, gc, counters, work) = compress::compressed_min_degree(pattern, delta);
            rec.gauge("order.compress.original", gc.n_original() as f64);
            rec.gauge("order.compress.nodes", gc.n_compressed() as f64);
            rec.gauge("order.compress.ratio", gc.ratio());
            (perm, counters, work)
        }
    };
    rec.incr("order.mmd.passes", counters.passes);
    rec.incr("order.mmd.eliminations", counters.eliminations);
    rec.incr("order.mmd.degree_updates", counters.degree_updates);
    rec.incr("order.mmd.supervariable_merges", counters.merges);
    rec.incr("order.driver.scanned_entries", work.scanned_entries);
    rec.incr("order.driver.full_scans", work.full_scans);
    rec.incr("order.driver.twin_compares", work.twin_compares);
    rec.incr("order.driver.compactions", work.compactions);
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfactor_matrix::gen;

    #[test]
    fn all_methods_produce_valid_permutations() {
        let p = gen::lap9(6, 6);
        for m in [
            Ordering::Natural,
            Ordering::ReverseCuthillMcKee,
            Ordering::MultipleMinimumDegree { delta: 0 },
            Ordering::MultipleMinimumDegree { delta: 1 },
            Ordering::NestedDissection,
            Ordering::MinimumFill,
        ] {
            let perm = order(&p, m);
            assert_eq!(perm.len(), 36, "{m:?}");
        }
    }

    #[test]
    fn natural_is_identity() {
        let p = gen::grid5(3, 3);
        assert!(order(&p, Ordering::Natural).is_identity());
    }

    #[test]
    fn method_names_are_stable() {
        assert_eq!(Ordering::Natural.name(), "natural");
        assert_eq!(Ordering::ReverseCuthillMcKee.name(), "rcm");
        assert_eq!(Ordering::MultipleMinimumDegree { delta: 2 }.name(), "mmd");
        assert_eq!(Ordering::NestedDissection.name(), "nd");
        assert_eq!(Ordering::MinimumFill.name(), "mf");
    }

    #[test]
    fn paper_default_is_mmd_zero() {
        assert_eq!(
            Ordering::paper_default(),
            Ordering::MultipleMinimumDegree { delta: 0 }
        );
    }
}
