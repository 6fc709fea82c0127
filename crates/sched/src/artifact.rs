//! The frozen, reusable output of the pattern-only front end.
//!
//! Everything the pipeline computes before numeric values enter —
//! ordering, symbolic factorization, partitioning, dependency analysis,
//! processor allocation — depends only on the sparsity structure and the
//! scheduling parameters. A [`ScheduleArtifact`] packages that output as
//! an immutable value keyed by a [`ScheduleKey`] (a stable structural
//! hash of the CSC pattern plus every parameter that influences the
//! front end), so repeated-solve workloads pay the front-end cost once
//! per pattern and amortize it across every subsequent factorization and
//! solve (the `spfactor-serve` cache stores exactly these).
//!
//! The artifact is:
//!
//! * **immutable and shared** — the parts sit behind one `Arc`, so a
//!   clone is a reference-count bump ([`ScheduleArtifact::ptr_eq`] tells
//!   two handles on one plan apart from two equal plans); accessors hand
//!   out shared references only, so the planner, a `PipelineResult` and
//!   the serve cache all hold the same value without copying it or
//!   synchronizing on it;
//! * **lazy in its schedule half** — [`plan`] stops at the symbolic factor,
//!   all the sequential kernel reads; partition, dependency graph and
//!   allocation are derived once, on first use, equal to an eager plan's;
//! * **hashable** — [`ScheduleKey`] derives `Hash`/`Eq` and is stable
//!   across processes and platforms (FNV-1a over the canonical CSC
//!   arrays, see `SymmetricPattern::structural_hash`);
//! * **serializable** — [`ScheduleArtifact::write_text`] archives the
//!   key, fingerprint and permutation in four lines, and
//!   [`read_artifact_text`] parses them back. Everything after the
//!   ordering is a deterministic function of the pattern and the
//!   permutation, so [`rebuild_artifact`] re-plans it and compares one
//!   fingerprint rather than reading a stored schedule.

use crate::{block_allocation, wrap_allocation, Assignment};
use spfactor_matrix::{Fnv1a, Permutation, SymmetricPattern};
use spfactor_order::{order_with_engine, OrderEngine, Ordering};
use spfactor_partition::{build_dependencies, DepGraph, DepsEngine, Partition, PartitionParams};
use spfactor_symbolic::SymbolicFactor;
use std::io::{BufRead, BufReader, Read, Write};
use std::sync::{Arc, OnceLock};

/// Which mapping scheme a schedule was built with.
///
/// Lives in the scheduling crate (re-exported as `spfactor::Scheme`)
/// because it is part of the schedule cache key: block and wrap runs of
/// the same pattern produce different artifacts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// The paper's block-based partitioning and allocation.
    Block,
    /// The wrap-mapped column baseline.
    Wrap,
}

impl Scheme {
    /// Every scheme: the artifact text reads a scheme back by its
    /// [`name`](Self::name).
    const ALL: [Scheme; 2] = [Scheme::Block, Scheme::Wrap];

    /// Stable lowercase name used in serialized artifacts and bench JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Block => "block",
            Scheme::Wrap => "wrap",
        }
    }

    /// The scheme's unit blocks: the paper's clusters cut by `params`, or
    /// one unit per column.
    pub fn partition(&self, factor: &SymbolicFactor, params: &PartitionParams) -> Partition {
        match self {
            Scheme::Block => Partition::build(factor, params),
            Scheme::Wrap => Partition::columns(factor),
        }
    }

    /// The scheme's unit → processor map over its own
    /// [`partition`](Self::partition).
    pub fn allocate(&self, partition: &Partition, deps: &DepGraph, nprocs: usize) -> Assignment {
        match self {
            Scheme::Block => block_allocation(partition, deps, nprocs),
            Scheme::Wrap => wrap_allocation(partition, nprocs),
        }
    }
}

/// The complete identity of a front-end run: structural hash of the
/// input pattern plus every parameter the front end consumes. Two
/// pipelines with equal keys produce bit-identical artifacts, so the
/// key is what pattern-keyed caches index on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ScheduleKey {
    /// [`SymmetricPattern::structural_hash`] of the (unpermuted) input.
    pub structural_hash: u64,
    /// Matrix dimension (kept alongside the hash for cheap sanity
    /// checks and observability; the hash already covers it).
    pub n: usize,
    /// The fill-reducing ordering algorithm.
    pub ordering: Ordering,
    /// The ordering execution engine. Part of the key because engines
    /// are only fill-equivalent, not permutation-equivalent: where graph
    /// compression fires, `Compressed` produces a different (equally
    /// good) permutation, and a cache must never serve a schedule
    /// planned under one engine to a request for the other.
    pub order_engine: OrderEngine,
    /// The partitioner parameters (grain, minimum cluster width, zero
    /// relaxation).
    pub params: PartitionParams,
    /// Block or wrap mapping.
    pub scheme: Scheme,
    /// Processor count the schedule targets.
    pub nprocs: usize,
}

impl ScheduleKey {
    /// Computes the key of a front-end run on `pattern` with the given
    /// parameters.
    pub fn new(
        pattern: &SymmetricPattern,
        ordering: Ordering,
        order_engine: OrderEngine,
        params: PartitionParams,
        scheme: Scheme,
        nprocs: usize,
    ) -> Self {
        ScheduleKey {
            structural_hash: pattern.structural_hash(),
            n: pattern.n(),
            ordering,
            order_engine,
            params,
            scheme,
            nprocs,
        }
    }
}

/// The frozen front-end output for one [`ScheduleKey`]: permutation,
/// symbolic factor, partition, dependency graph, and processor
/// assignment. See the module docs for the immutability / reuse
/// contract; [`plan`] builds these (`Pipeline::try_plan` is a validated
/// call of it) and `Pipeline::try_run_planned` (and the `spfactor-serve`
/// solver service) consume them. A handle: `clone` shares the parts.
#[derive(Clone, Debug)]
pub struct ScheduleArtifact(Arc<Parts>);

#[derive(Debug)]
struct Parts {
    key: ScheduleKey,
    permutation: Permutation,
    factor: SymbolicFactor,
    deps_engine: DepsEngine,
    /// Derived on first use: the sequential kernel reads none of it.
    schedule: OnceLock<Schedule>,
}

/// The parts of an artifact that only a schedule-driven consumer reads.
#[derive(Debug)]
struct Schedule {
    partition: Partition,
    deps: DepGraph,
    assignment: Assignment,
}

/// The schedule of the parts; panics unless `a` maps `p` onto `key`'s processors.
fn checked(key: &ScheduleKey, p: Partition, d: DepGraph, a: Assignment) -> Schedule {
    assert_eq!(
        a.proc_of_unit.len(),
        p.num_units(),
        "assignment does not cover the partition"
    );
    assert_eq!(a.nprocs, key.nprocs, "processor count mismatch");
    Schedule {
        partition: p,
        deps: d,
        assignment: a,
    }
}

impl ScheduleArtifact {
    /// Freezes a front-end run into an artifact. Panics on internally
    /// inconsistent parts (wrong permutation length, assignment size or
    /// processor count) — the parts must all come from one run.
    pub fn new(
        key: ScheduleKey,
        permutation: Permutation,
        factor: SymbolicFactor,
        partition: Partition,
        deps: DepGraph,
        assignment: Assignment,
    ) -> Self {
        let artifact = Self::frozen(key, permutation, factor, DepsEngine::default());
        let schedule = checked(&key, partition, deps, assignment);
        let _ = artifact.0.schedule.set(schedule); // so the engine goes unread
        artifact
    }

    /// The parts behind one `Arc`, their sizes checked against `key`, the
    /// schedule not derived yet.
    fn frozen(key: ScheduleKey, perm: Permutation, factor: SymbolicFactor, e: DepsEngine) -> Self {
        assert_eq!(perm.len(), key.n, "permutation size mismatch");
        assert_eq!(factor.n(), key.n, "symbolic factor size mismatch");
        ScheduleArtifact(Arc::new(Parts {
            key,
            permutation: perm,
            factor,
            deps_engine: e,
            schedule: OnceLock::new(),
        }))
    }

    /// The schedule half, built by the first call that reads it, each stage
    /// under its `phase.*` guard in that call's recorder scope. Concurrent
    /// first calls build it once; the others wait for it.
    fn schedule(&self) -> &Schedule {
        let Parts { key, factor, .. } = &*self.0;
        self.0.schedule.get_or_init(|| {
            let rec = spfactor_trace::current();
            let partition = {
                let _phase = rec.phase("partition");
                key.scheme.partition(factor, &key.params)
            };
            let deps = {
                let _phase = rec.phase("deps");
                build_dependencies(self.0.deps_engine, factor, &partition)
            };
            let assignment = {
                let _phase = rec.phase("sched");
                key.scheme.allocate(&partition, &deps, key.nprocs)
            };
            checked(key, partition, deps, assignment)
        })
    }

    /// Whether `self` and `other` are handles on the same plan (not merely
    /// equal ones): what a cache hit, or a run against a planned artifact,
    /// hands back.
    pub fn ptr_eq(&self, other: &ScheduleArtifact) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// The cache key this artifact was built under.
    pub fn key(&self) -> &ScheduleKey {
        &self.0.key
    }

    /// The fill-reducing permutation (`perm[new] = old`).
    pub fn permutation(&self) -> &Permutation {
        &self.0.permutation
    }

    /// The symbolic factor, in permuted coordinates.
    pub fn factor(&self) -> &SymbolicFactor {
        &self.0.factor
    }

    /// Clusters and unit blocks; derived on first use, like the next two.
    pub fn partition(&self) -> &Partition {
        &self.schedule().partition
    }

    /// The unit-level dependency graph.
    pub fn deps(&self) -> &DepGraph {
        &self.schedule().deps
    }

    /// The unit → processor assignment.
    pub fn assignment(&self) -> &Assignment {
        &self.schedule().assignment
    }

    /// A stable 64-bit fingerprint over the whole artifact: the key, the
    /// permutation, the symbolic-factor structure, the unit count, the
    /// processor assignment and every predecessor list. Two artifacts with
    /// equal fingerprints carry the same frozen schedule, so equality of
    /// cached vs freshly planned runs can be asserted cheaply. It covers
    /// the schedule, not just the permutation, so that an artifact whose
    /// parts its scheme would not derive (one built with
    /// [`ScheduleArtifact::new`]) cannot round-trip through its text into
    /// a different one. Derives the schedule if nothing has yet.
    pub fn fingerprint(&self) -> u64 {
        let schedule = self.schedule();
        let mut h = Fnv1a::new();
        let mut fold = |x: u64| h.write_u64(x);
        fold(self.0.key.structural_hash);
        fold(self.0.key.n as u64);
        fold(self.0.key.nprocs as u64);
        fold(self.0.factor.fingerprint());
        for &old in self.0.permutation.as_slice() {
            fold(old as u64);
        }
        fold(schedule.partition.num_units() as u64);
        for &p in &schedule.assignment.proc_of_unit {
            fold(p as u64);
        }
        for u in 0..schedule.partition.num_units() {
            for &s in schedule.deps.preds(u) {
                fold(s as u64);
            }
            fold(u64::MAX); // per-unit terminator keeps lists unambiguous
        }
        h.finish()
    }

    /// Serializes the artifact as four lines: the `spfactor-artifact v3`
    /// magic, the key, the fingerprint (which derives the schedule) and
    /// the permutation. No line per unit: [`rebuild_artifact`] re-derives
    /// the schedule from the pattern and the permutation.
    ///
    /// The key line is the key's one text form: every field after its
    /// label, the ordering, order engine and scheme by their `name()`s
    /// (minimum degree's `delta` after its name), and
    /// [`read_artifact_text`] reads it back through the same names.
    pub fn write_text<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        let key = &self.0.key;
        let delta = match key.ordering {
            Ordering::MultipleMinimumDegree { delta } => format!(" delta {delta}"),
            _ => String::new(),
        };
        writeln!(w, "{MAGIC}")?;
        writeln!(
            w,
            "key hash {:016x} n {} ordering {}{delta} engine {} grain {} width {} relax {} scheme {} procs {}",
            key.structural_hash,
            key.n,
            key.ordering.name(),
            key.order_engine.name(),
            key.params.grain,
            key.params.min_cluster_width,
            key.params.relax_zeros,
            key.scheme.name(),
            key.nprocs,
        )?;
        writeln!(w, "fingerprint {:016x}", self.fingerprint())?;
        write!(w, "perm")?;
        for &old in self.0.permutation.as_slice() {
            write!(w, " {old}")?;
        }
        writeln!(w)
    }

    /// [`write_text`](Self::write_text) into a `String`.
    pub fn to_text(&self) -> String {
        let mut buf = Vec::new();
        self.write_text(&mut buf)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(buf).expect("artifact text is ASCII")
    }
}

/// The first line of an artifact's text form.
const MAGIC: &str = "spfactor-artifact v3";

/// A parsed artifact text: the key, the fingerprint and the permutation.
/// Nothing else is serialized — the symbolic factor and the schedule are
/// rebuilt from the pattern and the permutation; the fingerprint pins the
/// original they were written from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArtifactDump {
    /// The full [`ScheduleKey`] parsed from the key line.
    pub key: ScheduleKey,
    /// Fingerprint of the artifact that was serialized.
    pub fingerprint: u64,
    /// The fill-reducing permutation.
    pub permutation: Permutation,
}

/// Every ordering and order engine: the key line reads one back as the
/// variant whose `name()` it is (minimum degree then reads its `delta`).
const ORDERINGS: [Ordering; 5] = [
    Ordering::Natural,
    Ordering::ReverseCuthillMcKee,
    Ordering::MultipleMinimumDegree { delta: 0 },
    Ordering::NestedDissection,
    Ordering::MinimumFill,
];
const ORDER_ENGINES: [OrderEngine; 2] = [OrderEngine::Direct, OrderEngine::Compressed];

/// The variant of `all` whose `name` is `s`.
fn named<T: Copy>(all: &[T], name: fn(&T) -> &'static str, s: &str) -> Result<T, String> {
    all.iter()
        .copied()
        .find(|v| name(v) == s)
        .ok_or_else(|| format!("unknown name {s:?} in the key line"))
}

/// Parses the key line written by [`ScheduleArtifact::write_text`]: its
/// labels in order, one space apart, and nothing after the last value.
fn parse_key_line(line: &str) -> Result<ScheduleKey, String> {
    let err = || format!("malformed key line: {line:?}");
    let mut tokens = line.strip_prefix("key ").ok_or_else(err)?.split(' ');
    let mut field = |label: &str| match (tokens.next(), tokens.next()) {
        (Some(l), Some(value)) if l == label => Ok(value),
        _ => Err(err()),
    };
    let num = |s: &str| s.parse::<usize>().map_err(|_| err());

    let structural_hash = u64::from_str_radix(field("hash")?, 16).map_err(|_| err())?;
    let n = num(field("n")?)?;
    let mut ordering = named(&ORDERINGS, Ordering::name, field("ordering")?)?;
    if let Ordering::MultipleMinimumDegree { delta } = &mut ordering {
        *delta = num(field("delta")?)?;
    }
    let order_engine = named(&ORDER_ENGINES, OrderEngine::name, field("engine")?)?;
    let grain = num(field("grain")?)?;
    let min_cluster_width = num(field("width")?)?;
    let relax_zeros = num(field("relax")?)?;
    let scheme = named(&Scheme::ALL, Scheme::name, field("scheme")?)?;
    let nprocs = num(field("procs")?)?;
    if tokens.next().is_some() {
        return Err(err());
    }
    Ok(ScheduleKey {
        structural_hash,
        n,
        ordering,
        order_engine,
        params: PartitionParams {
            grain,
            min_cluster_width,
            relax_zeros,
        },
        scheme,
        nprocs,
    })
}

/// Parses the text produced by [`ScheduleArtifact::write_text`]: exactly
/// its four lines. Another magic line (an earlier format version's
/// included) or anything after the `perm` line is a typed error.
pub fn read_artifact_text<R: Read>(r: R) -> Result<ArtifactDump, String> {
    let mut reader = BufReader::new(r);
    let read_line = |reader: &mut BufReader<R>, what: &str| -> Result<String, String> {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("reading {what}: {e}"))?;
        if line.is_empty() {
            return Err(format!("missing {what} line"));
        }
        Ok(line.trim_end().to_string())
    };
    let magic = read_line(&mut reader, "header")?;
    if magic != MAGIC {
        return Err(format!("not an {MAGIC} text: {magic:?}"));
    }
    let key_line = read_line(&mut reader, "key")?;
    let key = parse_key_line(&key_line)?;
    let fp_line = read_line(&mut reader, "fingerprint")?;
    let fingerprint = fp_line
        .strip_prefix("fingerprint ")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| format!("malformed fingerprint line: {fp_line:?}"))?;
    let perm_line = read_line(&mut reader, "perm")?;
    let perm: Vec<usize> = perm_line
        .strip_prefix("perm")
        .ok_or_else(|| format!("malformed perm line: {perm_line:?}"))?
        .split_whitespace()
        .map(|t| t.parse::<usize>().map_err(|e| format!("perm entry: {e}")))
        .collect::<Result<_, _>>()?;
    let permutation =
        Permutation::from_vec(perm).map_err(|e| format!("invalid permutation: {e}"))?;
    let mut rest = String::new();
    reader
        .read_line(&mut rest)
        .map_err(|e| format!("reading past perm: {e}"))?;
    if !rest.is_empty() {
        return Err(format!("unexpected line after perm: {:?}", rest.trim_end()));
    }
    Ok(ArtifactDump {
        key,
        fingerprint,
        permutation,
    })
}

/// The pattern-only front end: fill-reducing ordering (skipped when the
/// caller already holds the `permutation`, as a stored dump does) and
/// symbolic factorization, frozen as the artifact of `key`, whose first
/// reader of the schedule derives the scheme's partition, the dependency
/// graph (by `deps_engine`) and the scheme's allocation. Each stage runs
/// under its `phase.*` guard, recording into the scope it runs in.
///
/// `key` must describe `pattern` (see [`ScheduleKey::new`]) and target at
/// least one processor: the allocators panic on zero.
pub fn plan(
    pattern: &SymmetricPattern,
    key: ScheduleKey,
    permutation: Option<Permutation>,
    deps_engine: DepsEngine,
) -> ScheduleArtifact {
    let rec = spfactor_trace::current();
    let permutation = permutation.unwrap_or_else(|| {
        let _phase = rec.phase("order");
        order_with_engine(pattern, key.ordering, key.order_engine)
    });
    let permuted = pattern.permute(&permutation);
    let factor = {
        let _phase = rec.phase("symbolic");
        SymbolicFactor::from_pattern(&permuted)
    };
    ScheduleArtifact::frozen(key, permutation, factor, deps_engine)
}

/// Rebuilds a full [`ScheduleArtifact`] from a parsed dump and the
/// original (unpermuted) sparsity pattern.
///
/// The dump persists the fill-reducing permutation — the one stage that
/// is not re-run. After checking the header against the pattern (hash,
/// dimension, permutation length, a nonzero processor count), the
/// deterministic remainder is re-derived by [`plan`] from the pattern and
/// the stored permutation, exactly as the serve cache re-plans from a
/// remembered ordering, and the reassembled artifact's fingerprint must
/// equal the recorded one: a mismatch is a typed error rather than a
/// silently wrong schedule. A reconstructed artifact is therefore
/// bit-identical to the one that was serialized — the caller can hand it
/// straight to `Pipeline::try_run_planned` or a solver service.
pub fn rebuild_artifact(
    pattern: &SymmetricPattern,
    dump: &ArtifactDump,
) -> Result<ScheduleArtifact, String> {
    let key = dump.key;
    let got_hash = pattern.structural_hash();
    if got_hash != key.structural_hash {
        return Err(format!(
            "pattern hash {got_hash:016x} does not match dump key {:016x}",
            key.structural_hash
        ));
    }
    if pattern.n() != key.n {
        return Err(format!(
            "pattern is {} columns, dump key says {}",
            pattern.n(),
            key.n
        ));
    }
    if dump.permutation.len() != key.n {
        return Err(format!(
            "permutation covers {} columns, key says {}",
            dump.permutation.len(),
            key.n
        ));
    }
    if key.nprocs == 0 {
        // The allocators assert on this; `Pipeline` validates it, a file
        // has not been through `Pipeline`.
        return Err("dump key targets zero processors".into());
    }
    let artifact = plan(
        pattern,
        key,
        Some(dump.permutation.clone()),
        DepsEngine::Sweep,
    );
    let fp = artifact.fingerprint();
    if fp != dump.fingerprint {
        return Err(format!(
            "fingerprint mismatch: rebuilt {fp:016x}, dump recorded {:016x}",
            dump.fingerprint
        ));
    }
    Ok(artifact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfactor_matrix::gen;

    /// The key of `pattern` under the paper's defaults.
    fn paper_key(pattern: &SymmetricPattern, scheme: Scheme, nprocs: usize) -> ScheduleKey {
        let params = PartitionParams::default();
        let (ordering, engine) = (Ordering::paper_default(), OrderEngine::Direct);
        ScheduleKey::new(pattern, ordering, engine, params, scheme, nprocs)
    }

    fn build(pattern: &SymmetricPattern, scheme: Scheme, nprocs: usize) -> ScheduleArtifact {
        plan(
            pattern,
            paper_key(pattern, scheme, nprocs),
            None,
            DepsEngine::Element,
        )
    }

    #[test]
    fn keys_separate_every_parameter() {
        let p = gen::lap9(6, 6);
        let base = paper_key(&p, Scheme::Block, 4);
        assert_eq!(base, paper_key(&p, Scheme::Block, 4));
        for other in [
            paper_key(&gen::lap9(6, 7), Scheme::Block, 4),
            ScheduleKey {
                ordering: Ordering::ReverseCuthillMcKee,
                ..base
            },
            ScheduleKey {
                order_engine: OrderEngine::Compressed,
                ..base
            },
            ScheduleKey {
                params: PartitionParams::with_grain(25),
                ..base
            },
            ScheduleKey {
                scheme: Scheme::Wrap,
                ..base
            },
            ScheduleKey { nprocs: 8, ..base },
        ] {
            assert_ne!(base, other);
        }
    }

    #[test]
    fn artifact_fingerprint_is_deterministic() {
        let p = gen::lap9(7, 7);
        let a = build(&p, Scheme::Block, 4);
        let b = build(&p, Scheme::Block, 4);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let wrap = build(&p, Scheme::Wrap, 4);
        assert_ne!(a.fingerprint(), wrap.fingerprint());
    }

    #[test]
    fn artifact_text_round_trips() {
        let p = gen::lap9(6, 6);
        for scheme in [Scheme::Block, Scheme::Wrap] {
            let artifact = build(&p, scheme, 3);
            let text = artifact.to_text();
            let dump = read_artifact_text(text.as_bytes()).expect("parses");
            assert_eq!(&dump.key, artifact.key());
            assert_eq!(dump.fingerprint, artifact.fingerprint());
            assert_eq!(&dump.permutation, artifact.permutation());
        }
    }

    #[test]
    fn read_rejects_garbage() {
        assert!(read_artifact_text("not an artifact".as_bytes()).is_err());
        assert!(read_artifact_text(format!("{MAGIC}\nkey nonsense").as_bytes()).is_err());
    }

    #[test]
    fn the_text_has_no_line_per_unit() {
        let p = gen::lap9(12, 12);
        let artifact = build(&p, Scheme::Block, 4);
        assert!(artifact.partition().num_units() > 4);
        let text = artifact.to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        assert_eq!(lines[0], MAGIC);
        assert!(lines[1].starts_with("key hash "));
        assert!(lines[2].starts_with("fingerprint "));
        assert!(lines[3].starts_with("perm "));
        // Only the permutation grows with the matrix.
        for line in &lines[..3] {
            assert!(line.len() < 200, "{line}");
        }
        assert_eq!(lines[3].split_whitespace().count(), p.n() + 1);
    }

    #[test]
    fn rebuild_round_trips_bit_identically() {
        let mut patterns = vec![gen::lap9(7, 7)];
        patterns.extend(gen::paper::all().into_iter().map(|m| m.pattern));
        for p in &patterns {
            for scheme in [Scheme::Block, Scheme::Wrap] {
                let artifact = build(p, scheme, 3);
                let dump = read_artifact_text(artifact.to_text().as_bytes()).expect("parses");
                let rebuilt = rebuild_artifact(p, &dump).expect("rebuilds");
                assert!(!rebuilt.ptr_eq(&artifact));
                assert_eq!(rebuilt.key(), artifact.key());
                assert_eq!(rebuilt.permutation(), artifact.permutation());
                assert_eq!(rebuilt.deps(), artifact.deps());
                assert_eq!(rebuilt.assignment(), artifact.assignment());
                assert_eq!(rebuilt.fingerprint(), artifact.fingerprint());
                assert_eq!(rebuilt.to_text(), artifact.to_text());
            }
        }
    }

    #[test]
    fn rebuild_rejects_the_wrong_pattern() {
        let p = gen::lap9(7, 7);
        let artifact = build(&p, Scheme::Block, 3);
        let dump = read_artifact_text(artifact.to_text().as_bytes()).expect("parses");
        let other = gen::lap9(8, 8);
        let err = rebuild_artifact(&other, &dump).expect_err("must reject");
        assert!(err.contains("does not match"), "{err}");
    }
}
