//! The benchmark's own span recorder. Spans are recorded around the
//! calls the benchmark makes into each layer, never inside the crates:
//! name, start, end, the span that caused it, and the operation (one
//! chain repetition, one request) it belongs to. They stay in memory
//! until the run ends.

use spfactor::trace::alloc;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u32,
    /// How far the heap rose above its size at the start of a leaf span;
    /// group spans record none, because their children reset the mark.
    pub peak_bytes: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    epoch: Instant,
    /// While false, `enter` and `exit` record nothing: the untraced run
    /// goes through the same code as the traced one.
    pub recording: bool,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

/// What `enter` returns while nothing is recorded.
const NOT_RECORDED: u32 = u32::MAX;

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            recording: true,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Tracer {
            recording: false,
            ..Tracer::new(Instant::now())
        }
    }

    /// A recorder for another thread on the same clock, numbering its
    /// operations from this one's plus `op_offset`; fold it back in with
    /// [`Tracer::merge`].
    pub fn fork(&self, op_offset: u32) -> Tracer {
        Tracer {
            op: self.op + op_offset,
            recording: self.recording,
            ..Tracer::new(self.epoch)
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a group span that starts a new operation: spans recorded
    /// until its [`Tracer::exit`] share its operation id.
    pub fn enter_op(&mut self, name: &'static str) -> u32 {
        self.op += 1;
        self.enter(name)
    }

    pub fn enter(&mut self, name: &'static str) -> u32 {
        if !self.recording {
            return NOT_RECORDED;
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op: self.op,
            peak_bytes: None,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        if id == NOT_RECORDED {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records a leaf span around one call into a layer, with the heap
    /// the call needed on top of what was live when it started.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.recording {
            return f();
        }
        let id = self.enter(name);
        alloc::reset_peak();
        let live = alloc::current_bytes();
        let out = f();
        self.spans[id as usize].peak_bytes = Some(alloc::peak_bytes().saturating_sub(live));
        self.exit(id);
        out
    }

    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.op = self.op.max(other.op);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total duration per span name over the spans recorded from index
    /// `first` on, in milliseconds: what one repetition spent per layer.
    pub fn sums_since(&self, first: usize) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans[first..] {
            *out.entry(s.name).or_insert(0.0) += s.ms();
        }
        out
    }

    /// Largest heap growth over the leaf spans called `name`.
    pub fn peak_bytes(&self, name: &str) -> usize {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.peak_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Per span name: total self time (duration minus the part its child
    /// spans cover) in milliseconds, and the number of spans.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] -= s.ms();
            }
        }
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            let e = out.entry(s.name).or_insert((0.0, 0));
            e.0 += t;
            e.1 += 1;
        }
        out
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = String::new();
        write!(
            s,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"self_ms\": {{"
        )
        .unwrap();
        for (i, (name, (t, n))) in self.self_times().iter().enumerate() {
            let comma = if i == 0 { "" } else { ", " };
            write!(s, "{comma}\"{name}\": {{\"total\": {t}, \"spans\": {n}}}").unwrap();
        }
        s.push_str("}, \"spans\": [\n");
        for (id, sp) in self.spans.iter().enumerate() {
            let comma = if id == 0 { "" } else { ",\n" };
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let peak = sp.peak_bytes.map_or("null".to_string(), |p| p.to_string());
            write!(
                s,
                "{comma}{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}, \"peak_bytes\": {peak}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.op
            )
            .unwrap();
        }
        s.push_str("\n]}\n");
        s
    }
}
