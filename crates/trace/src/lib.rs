//! Structured instrumentation for the spfactor pipeline.
//!
//! Every phase of the pipeline — ordering, symbolic factorization,
//! partitioning, scheduling, simulation and the numeric executors — can
//! report what it did through a shared [`Recorder`]. The recorder keeps
//! three kinds of metrics, all exported under stable dotted names
//! (documented in `docs/METRICS.md` at the repository root):
//!
//! * **Counters** — monotonic `u64` event counts, bumped with
//!   [`Recorder::incr`]. Used for things that happen many times: degree
//!   updates inside minimum-degree ordering, scheduler branch decisions,
//!   simulated cache hits.
//! * **Gauges** — `f64` point-in-time values, set with
//!   [`Recorder::gauge`]. Used for result-shaped statistics: fill-in,
//!   number of clusters, total traffic, load-imbalance ratios.
//! * **Spans** — wall-clock timers, opened with [`Recorder::span`] (an
//!   RAII guard) or wrapped around a closure with [`Recorder::time`].
//!   Each span name accumulates a call count and total nanoseconds.
//!
//! # Thread safety
//!
//! [`Recorder`] is `Send + Sync`; all state sits behind one `Mutex`.
//! The intended usage pattern keeps that mutex off hot paths: algorithms
//! accumulate counts in locals and record them once at the end, and the
//! parallel executors keep per-thread tallies that are merged after the
//! workers join. Only span open/close and the final bulk recording take
//! the lock.
//!
//! # Ambient scope
//!
//! No phase entry point takes a recorder. A caller that wants metrics
//! puts one in scope on its thread with [`scope`]; each public phase
//! entry ([`current`] is the handle it resolves, once, on the calling
//! thread) then records into it, and with nothing in scope every
//! operation on the handle is a no-op that neither locks nor allocates.
//! The scope is per thread: a thread spawned inside it sees none, so the
//! parallel engines hand their workers the resolved handle and record
//! after the join. See "How recording is scoped" in `docs/METRICS.md`.
//!
//! # Example
//!
//! ```
//! use spfactor_trace::Recorder;
//!
//! let rec = Recorder::new();
//! {
//!     let _span = rec.span("phase.order");
//!     rec.incr("order.mmd.degree_updates", 3);
//! }
//! rec.gauge("symbolic.fill_in", 42.0);
//!
//! assert_eq!(rec.counter("order.mmd.degree_updates"), 3);
//! assert_eq!(rec.gauge_value("symbolic.fill_in"), Some(42.0));
//! assert_eq!(rec.span_stats("phase.order").unwrap().count, 1);
//! assert!(rec.to_json().contains("\"counters\""));
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod json;
pub mod regress;
pub mod timeline;

pub use timeline::{
    CriticalPathReport, EventKind, StartEdge, Timeline, TimelineEvent, TimelineSink,
};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Accumulated timing for one span name: how many times it was entered
/// and the total wall-clock nanoseconds spent inside.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Number of completed span activations.
    pub count: u64,
    /// Total nanoseconds across all activations.
    pub total_ns: u64,
}

impl SpanStats {
    /// Mean nanoseconds per activation (0 when never entered).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    spans: BTreeMap<String, SpanStats>,
}

/// Applies `f` to the entry under `name`, allocating the key only on
/// first insert.
fn upsert<V: Default>(map: &mut BTreeMap<String, V>, name: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(v) => f(v),
        None => f(map.entry(name.to_string()).or_default()),
    }
}

/// Thread-safe sink for counters, gauges and span timings.
///
/// See the [crate docs](crate) for the metric taxonomy and for how a
/// recorder is put in [`scope`].
///
/// ```
/// use spfactor_trace::Recorder;
/// let rec = Recorder::new();
/// rec.incr("partition.clusters_visited", 1);
/// rec.incr("partition.clusters_visited", 4);
/// assert_eq!(rec.counter("partition.clusters_visited"), 5);
/// ```
#[derive(Default)]
pub struct Recorder {
    inner: Mutex<Inner>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true`: a recorder always stores what it is given. (Whether
    /// anything *is* recorded depends on a recorder being in [`scope`].)
    #[inline]
    pub const fn is_enabled(&self) -> bool {
        true
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned recorder only means a panic elsewhere; metrics
        // gathered so far are still worth exporting.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Adds `by` to the named monotonic counter.
    pub fn incr(&self, name: &str, by: u64) {
        upsert(&mut self.lock().counters, name, |v| *v += by);
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn gauge(&self, name: &str, value: f64) {
        upsert(&mut self.lock().gauges, name, |v| *v = value);
    }

    /// Opens a wall-clock span; the elapsed time is recorded under
    /// `name` when the returned guard drops. Spans under the same name
    /// accumulate ([`SpanStats`]), and spans may nest freely.
    ///
    /// ```
    /// use spfactor_trace::Recorder;
    /// let rec = Recorder::new();
    /// {
    ///     let _outer = rec.span("phase.partition");
    ///     let _inner = rec.span("partition.deps");
    /// } // both recorded here, inner first
    /// assert_eq!(rec.span_stats("phase.partition").unwrap().count, 1);
    /// assert_eq!(rec.span_stats("partition.deps").unwrap().count, 1);
    /// ```
    pub fn span(&self, name: &str) -> Span<'_> {
        Span {
            recorder: self,
            name: name.to_string(),
            start: Instant::now(),
        }
    }

    /// Runs `f` inside a span named `name` and returns its result.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name);
        f()
    }

    /// Directly records one span activation of `elapsed_ns` nanoseconds.
    /// Useful when a duration was measured elsewhere (e.g. per-thread
    /// busy time summed locally and merged after a join).
    pub fn record_span_ns(&self, name: &str, elapsed_ns: u64) {
        upsert(&mut self.lock().spans, name, |stats| {
            stats.count += 1;
            stats.total_ns += elapsed_ns;
        });
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge (`None` if never set).
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.lock().gauges.get(name).copied()
    }

    /// Accumulated stats for a span name (`None` if never entered).
    pub fn span_stats(&self, name: &str) -> Option<SpanStats> {
        self.lock().spans.get(name).copied()
    }

    /// Names of all recorded counters, sorted.
    pub fn counter_names(&self) -> Vec<String> {
        self.lock().counters.keys().cloned().collect()
    }

    /// Names of all recorded gauges, sorted.
    pub fn gauge_names(&self) -> Vec<String> {
        self.lock().gauges.keys().cloned().collect()
    }

    /// Names of all recorded spans, sorted.
    pub fn span_names(&self) -> Vec<String> {
        self.lock().spans.keys().cloned().collect()
    }

    /// Serializes everything recorded as one JSON document:
    ///
    /// ```json
    /// {
    ///   "counters": {"name": 7, ...},
    ///   "gauges": {"name": 1.5, ...},
    ///   "spans": {"name": {"count": 2, "total_ns": 1200, "mean_ns": 600}, ...}
    /// }
    /// ```
    ///
    /// Keys always appear in sorted (byte-lexicographic) order — metric
    /// storage is `BTreeMap`-backed — so exports are byte-identical for
    /// the same recorded state regardless of insertion order, thread
    /// interleaving or thread count, and metric diffs between runs are
    /// stable. Non-finite gauge values serialize as `null`. An empty
    /// recorder emits the same three top-level keys, empty.
    pub fn to_json(&self) -> String {
        let inner = self.lock();
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (k, v)) in inner.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {v}", escape_json(k));
        }
        if !inner.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (k, v)) in inner.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {}", escape_json(k), json_f64(*v));
        }
        if !inner.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"spans\": {");
        for (i, (k, s)) in inner.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{\"count\": {}, \"total_ns\": {}, \"mean_ns\": {}}}",
                escape_json(k),
                s.count,
                s.total_ns,
                s.mean_ns()
            );
        }
        if !inner.spans.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Renders everything recorded as an aligned human-readable table,
    /// one section per metric kind. Empty sections are omitted; a fully
    /// empty recorder renders as `(no metrics recorded)`.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let inner = self.lock();
        let width = inner
            .counters
            .keys()
            .chain(inner.gauges.keys())
            .chain(inner.spans.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0);
        if !inner.spans.is_empty() {
            out.push_str("spans (name, count, total, mean):\n");
            for (k, s) in &inner.spans {
                let _ = writeln!(
                    out,
                    "  {k:<width$}  {:>8}  {:>12}  {:>12}",
                    s.count,
                    fmt_ns(s.total_ns),
                    fmt_ns(s.mean_ns())
                );
            }
        }
        if !inner.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &inner.counters {
                let _ = writeln!(out, "  {k:<width$}  {v:>12}");
            }
        }
        if !inner.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (k, v) in &inner.gauges {
                let _ = writeln!(out, "  {k:<width$}  {v:>12}");
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("counters", &self.counter_names().len())
            .field("gauges", &self.gauge_names().len())
            .field("spans", &self.span_names().len())
            .finish()
    }
}

/// RAII guard returned by [`Recorder::span`]; records the elapsed
/// wall-clock time when dropped.
#[must_use = "a span records time only when it is eventually dropped"]
pub struct Span<'a> {
    recorder: &'a Recorder,
    name: String,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.recorder
            .record_span_ns(&self.name, elapsed_ns(self.start));
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

thread_local! {
    /// The recorder in scope on this thread, if any.
    static SCOPE: RefCell<Option<Arc<Recorder>>> = const { RefCell::new(None) };
}

/// Puts `recorder` in scope on the calling thread until the returned
/// guard drops: every phase entry point called from this thread in the
/// meantime records into it. Scopes nest — the guard restores whatever
/// was in scope before, also when it is dropped by an unwinding panic —
/// and do not cross threads.
///
/// ```
/// use std::sync::Arc;
/// use spfactor_trace::{current, scope, Recorder};
///
/// let rec = Arc::new(Recorder::new());
/// {
///     let _scope = scope(&rec);
///     current().incr("seen", 1);
/// }
/// current().incr("seen", 1); // nothing in scope: a no-op
/// assert_eq!(rec.counter("seen"), 1);
/// ```
pub fn scope(recorder: &Arc<Recorder>) -> Scope {
    let previous = SCOPE.with(|s| s.replace(Some(Arc::clone(recorder))));
    Scope {
        previous,
        _this_thread: PhantomData,
    }
}

/// Guard returned by [`scope`]; restores the previous scope when
/// dropped. Not `Send`: it must drop on the thread that opened it.
#[must_use = "the recorder leaves scope as soon as the guard is dropped"]
pub struct Scope {
    previous: Option<Arc<Recorder>>,
    _this_thread: PhantomData<*const ()>,
}

impl Drop for Scope {
    fn drop(&mut self) {
        // `try_with`: a guard outliving the thread's locals has nothing
        // left to restore, and `Drop` must not panic.
        let _ = SCOPE.try_with(|s| *s.borrow_mut() = self.previous.take());
    }
}

/// The recorder in scope on the calling thread, as a handle that is
/// cheap to carry around: a phase entry point resolves it once and
/// passes `&Current` (or [`Current::is_recording`]) to its helpers and
/// worker threads, which never look the thread-local up themselves.
pub fn current() -> Current {
    Current(SCOPE.with(|s| s.borrow().clone()))
}

/// Handle to the recorder that was in [`scope`] when [`current`] was
/// called. With nothing in scope every method is a no-op that takes no
/// lock, makes no allocation and leaves [`alloc`] alone.
#[derive(Clone, Debug, Default)]
pub struct Current(Option<Arc<Recorder>>);

impl Current {
    /// Whether a recorder is attached. Work done only to feed a metric
    /// belongs behind this check.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }

    /// [`Recorder::incr`] on the recorder in scope.
    #[inline]
    pub fn incr(&self, name: &str, by: u64) {
        if let Some(r) = &self.0 {
            r.incr(name, by);
        }
    }

    /// [`Recorder::gauge`] on the recorder in scope.
    #[inline]
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(r) = &self.0 {
            r.gauge(name, value);
        }
    }

    /// [`Recorder::span`] on the recorder in scope (`None`, which times
    /// nothing, without one).
    #[inline]
    pub fn span(&self, name: &str) -> Option<Span<'_>> {
        self.0.as_deref().map(|r| r.span(name))
    }

    /// Runs `f` inside a span named `name` and returns its result.
    #[inline]
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name);
        f()
    }

    /// [`Recorder::record_span_ns`] on the recorder in scope: for a span
    /// that is recorded only on some of the ways out of its stretch.
    #[inline]
    pub fn record_span_ns(&self, name: &str, elapsed_ns: u64) {
        if let Some(r) = &self.0 {
            r.record_span_ns(name, elapsed_ns);
        }
    }

    /// Opens pipeline phase `name`: one guard that records the span
    /// `phase.<name>` and — when the binary installed
    /// [`alloc::TrackingAllocator`] — the heap high-water mark over the
    /// same stretch as the gauge `phase.<name>.peak_bytes`, so the two
    /// cannot disagree about where the phase starts and ends. Without a
    /// recorder the guard is inert: in particular it does not reset the
    /// process-wide peak mark, which other measurements may be reading.
    pub fn phase(&self, name: &str) -> Phase {
        Phase(self.0.clone().map(|recorder| {
            let span = format!("phase.{name}");
            let heap = alloc::installed();
            if heap {
                alloc::reset_peak();
            }
            PhaseInner {
                recorder,
                span,
                heap,
                start: Instant::now(),
            }
        }))
    }
}

/// RAII guard returned by [`Current::phase`].
#[must_use = "a phase is recorded when the guard is dropped"]
pub struct Phase(Option<PhaseInner>);

struct PhaseInner {
    recorder: Arc<Recorder>,
    span: String,
    heap: bool,
    start: Instant,
}

impl Drop for Phase {
    fn drop(&mut self) {
        let Some(p) = self.0.take() else { return };
        let elapsed = elapsed_ns(p.start);
        let peak = alloc::peak_bytes();
        p.recorder.record_span_ns(&p.span, elapsed);
        if p.heap {
            p.recorder
                .gauge(&format!("{}.peak_bytes", p.span), peak as f64);
        }
    }
}

/// Escapes a string for use inside a JSON string literal.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON value (non-finite becomes `null`).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Formats nanoseconds with a readable unit for table output.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_mode_is_silent_but_shaped() {
        // Nothing in scope: the handle swallows everything.
        let bystander = Recorder::new();
        let off = current();
        assert!(!off.is_recording());
        off.incr("a", 1);
        off.gauge("b", 2.0);
        assert!(off.span("d").is_none());
        assert_eq!(off.time("e", || 7), 7);
        drop(off.phase("f"));
        let json = bystander.to_json();
        for key in ["\"counters\"", "\"gauges\"", "\"spans\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(bystander.to_table(), "(no metrics recorded)\n");
    }

    fn in_scope() -> Option<Arc<Recorder>> {
        current().0
    }

    #[test]
    fn nested_scopes_restore_the_outer_recorder() {
        let (a, b) = (Arc::new(Recorder::new()), Arc::new(Recorder::new()));
        assert!(in_scope().is_none());
        {
            let _a = scope(&a);
            current().incr("n", 1);
            {
                let _b = scope(&b);
                current().incr("n", 10);
                assert!(Arc::ptr_eq(&in_scope().unwrap(), &b));
            }
            assert!(Arc::ptr_eq(&in_scope().unwrap(), &a));
            current().incr("n", 100);
        }
        assert!(in_scope().is_none());
        assert_eq!((a.counter("n"), b.counter("n")), (101, 10));
    }

    #[test]
    fn unwinding_through_a_scope_restores_the_previous_one() {
        let (a, b) = (Arc::new(Recorder::new()), Arc::new(Recorder::new()));
        let _a = scope(&a);
        let caught = std::panic::catch_unwind(|| {
            let _b = scope(&b);
            panic!("unwind through the inner scope");
        });
        assert!(caught.is_err());
        assert!(Arc::ptr_eq(&in_scope().unwrap(), &a));
    }

    #[test]
    fn a_thread_spawned_inside_a_scope_sees_none() {
        let rec = Arc::new(Recorder::new());
        let _scope = scope(&rec);
        let resolved = current();
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!current().is_recording());
                current().incr("from.lookup", 1);
                // The handle resolved by the parent is what workers use.
                resolved.incr("from.handle", 1);
            });
        });
        assert_eq!(rec.counter("from.lookup"), 0);
        assert_eq!(rec.counter("from.handle"), 1);
    }

    #[test]
    fn handle_records_into_the_recorder_it_resolved() {
        let rec = Arc::new(Recorder::new());
        let handle = {
            let _scope = scope(&rec);
            current()
        };
        assert!(handle.is_recording());
        handle.gauge("g", 1.5);
        drop(handle.span("s"));
        assert_eq!(rec.gauge_value("g"), Some(1.5));
        assert_eq!(rec.span_stats("s").unwrap().count, 1);
    }

    mod traced {
        use super::super::*;

        #[test]
        fn counters_accumulate_and_read_back() {
            let rec = Recorder::new();
            rec.incr("x", 1);
            rec.incr("x", 41);
            rec.incr("y", 5);
            assert_eq!(rec.counter("x"), 42);
            assert_eq!(rec.counter("y"), 5);
            assert_eq!(rec.counter("missing"), 0);
            assert_eq!(rec.counter_names(), vec!["x".to_string(), "y".to_string()]);
        }

        #[test]
        fn concurrent_increments_are_lossless() {
            let rec = Recorder::new();
            std::thread::scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        for _ in 0..1000 {
                            rec.incr("shared", 1);
                        }
                    });
                }
            });
            assert_eq!(rec.counter("shared"), 8000);
        }

        #[test]
        fn nested_spans_record_independently() {
            let rec = Recorder::new();
            {
                let _outer = rec.span("outer");
                std::thread::sleep(std::time::Duration::from_millis(2));
                {
                    let _inner = rec.span("inner");
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                let _inner_again = rec.span("inner");
            }
            let outer = rec.span_stats("outer").unwrap();
            let inner = rec.span_stats("inner").unwrap();
            assert_eq!(outer.count, 1);
            assert_eq!(inner.count, 2);
            // The outer span encloses the first inner one.
            assert!(outer.total_ns >= inner.total_ns / 2);
            assert!(inner.mean_ns() <= inner.total_ns);
        }

        #[test]
        fn gauges_last_write_wins() {
            let rec = Recorder::new();
            rec.gauge("g", 1.5);
            rec.gauge("g", 2.5);
            assert_eq!(rec.gauge_value("g"), Some(2.5));
            assert_eq!(rec.gauge_value("missing"), None);
        }

        #[test]
        fn time_returns_closure_result() {
            let rec = Recorder::new();
            let v = rec.time("t", || 7 * 6);
            assert_eq!(v, 42);
            assert_eq!(rec.span_stats("t").unwrap().count, 1);
        }

        #[test]
        fn json_round_trip_shape() {
            let rec = Recorder::new();
            rec.incr("c.one", 3);
            rec.gauge("g.pi", 3.25);
            rec.gauge("g.bad", f64::NAN);
            rec.gauge("quote\"key", 1.0);
            rec.record_span_ns("s.phase", 1500);
            rec.record_span_ns("s.phase", 500);
            let json = rec.to_json();
            assert!(json.contains("\"c.one\": 3"), "{json}");
            assert!(json.contains("\"g.pi\": 3.25"), "{json}");
            assert!(json.contains("\"g.bad\": null"), "{json}");
            assert!(json.contains("\\\"key"), "{json}");
            assert!(
                json.contains("\"s.phase\": {\"count\": 2, \"total_ns\": 2000, \"mean_ns\": 1000}"),
                "{json}"
            );
            // Balanced braces => structurally plausible JSON.
            let opens = json.matches('{').count();
            let closes = json.matches('}').count();
            assert_eq!(opens, closes);
        }

        #[test]
        fn json_export_is_deterministic_across_insertion_orders_and_threads() {
            // The same recorded state must export byte-identically no
            // matter how it got recorded: sequentially in sorted order,
            // sequentially in reverse order, or racing from many
            // threads. This is what makes metric diffs stable.
            let names: Vec<String> = (0..32).map(|i| format!("m.{:02}", i)).collect();

            let forward = Recorder::new();
            for (i, n) in names.iter().enumerate() {
                forward.incr(n, i as u64 + 1);
                forward.gauge(&format!("g.{n}"), i as f64);
                forward.record_span_ns(&format!("s.{n}"), 10 * (i as u64 + 1));
            }

            let reverse = Recorder::new();
            for (i, n) in names.iter().enumerate().rev() {
                reverse.incr(n, i as u64 + 1);
                reverse.gauge(&format!("g.{n}"), i as f64);
                reverse.record_span_ns(&format!("s.{n}"), 10 * (i as u64 + 1));
            }

            let threaded = Recorder::new();
            std::thread::scope(|s| {
                for chunk in names.chunks(8) {
                    let threaded = &threaded;
                    let offset = names.iter().position(|n| n == &chunk[0]).unwrap();
                    s.spawn(move || {
                        for (j, n) in chunk.iter().enumerate() {
                            let i = offset + j;
                            threaded.incr(n, i as u64 + 1);
                            threaded.gauge(&format!("g.{n}"), i as f64);
                            threaded.record_span_ns(&format!("s.{n}"), 10 * (i as u64 + 1));
                        }
                    });
                }
            });

            let expected = forward.to_json();
            assert_eq!(expected, reverse.to_json());
            assert_eq!(expected, threaded.to_json());
            // And the order really is sorted: the name list reads back
            // sorted, and each name appears before its successor in the
            // JSON text.
            let counters = forward.counter_names();
            let mut sorted = counters.clone();
            sorted.sort();
            assert_eq!(counters, sorted);
            for pair in counters.windows(2) {
                let a = expected.find(&format!("\"{}\"", pair[0])).unwrap();
                let b = expected.find(&format!("\"{}\"", pair[1])).unwrap();
                assert!(a < b, "{} not before {}", pair[0], pair[1]);
            }
        }

        #[test]
        fn table_lists_all_sections() {
            let rec = Recorder::new();
            rec.incr("count.me", 2);
            rec.gauge("gauge.me", 0.5);
            rec.record_span_ns("span.me", 2_500_000);
            let table = rec.to_table();
            assert!(table.contains("count.me"));
            assert!(table.contains("gauge.me"));
            assert!(table.contains("span.me"));
            assert!(table.contains("2.500ms"));
        }
    }
}
