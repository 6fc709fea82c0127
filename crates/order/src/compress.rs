//! The minimum-degree driver behind both [`crate::OrderEngine`]s:
//! `Direct` runs `weighted_min_degree` on the pattern's graph with unit
//! weights, `Compressed` runs it on the quotient graph of
//! [`GraphCompression::analyze`] — which is the input's own graph, not a
//! copy, whenever nothing merges.
//!
//! The elimination logic — external degrees, multiple elimination with
//! tolerance `delta`, indistinguishable-variable merging, element
//! absorption — is [`crate::mmd`]'s, set for set, and
//! `tests/order_engine.rs` holds the unit-weight driver to that oracle's
//! permutation and counters. The equality rests on one shared rule, the
//! **start-of-step twin rule**: two variables merge iff their adjacency,
//! cleaned at the start of the merge step, is identical (until both sides
//! fixed that point in time they disagreed on ≈3 % of random geometric
//! graphs, see `EXPERIMENTS.md`). Variable lists are therefore *not*
//! pruned against element boundaries the way AMD prunes them: that finds
//! more twins and leaves the oracle's permutation.
//!
//! What differs from the oracle is only where the sets live. Everything
//! is a flat `u32` array sized once from the graph (`Quotient`):
//!
//! * variable → variable lists sit in a copy of the graph's CSR and are
//!   compacted where they lie (they only ever shrink);
//! * variable → element lists sit in fixed slots of `2·deg₀(v)` entries —
//!   a clean leaves at most `deg₀(v)` live entries (each live element
//!   swallowed a distinct original neighbour) and every element pushed
//!   before the next clean takes the place of a neighbour or an element
//!   that clean will drop. Pushes ascend, so the lists are always sorted
//!   and a variable was reached in this pass iff its last element is one
//!   of the pass's own;
//! * element boundaries are appended to one arena, filtered in place once
//!   per pass, and reclaimed by compaction when the arena fills up;
//! * supervariable members hang off their representative as a chain
//!   (`next` / `tail`), and a dead variable is one of weight 0, so a
//!   degree scan adds weights under a marker and asks nothing else;
//! * degree lists are intrusive doubly-linked lists sized by the largest
//!   initial degree (`DegreeBuckets`); a pass reads off exactly the live
//!   variables of the minimum degree, no scan over `0..n`;
//! * twins are found by cleaning every reached variable first (hashing
//!   its lists on the way) and then inserting them in ascending order
//!   into an open-addressed table, comparing exactly under a marker on a
//!   hash hit — the smallest member represents, as in the oracle.
//!
//! Up-front **indistinguishable-node compression** (Ashcraft's compressed
//! graphs) collapses variables with identical *closed* neighbourhoods
//! into weighted supervariables before any of this runs; the permutation
//! is expanded back by numbering each supervariable's members
//! consecutively. Where it fires the permutation differs from the direct
//! one but the fill stays in the same regime (`tests/order_engine.rs`
//! pins the bound); where it does not, the engines agree bit for bit.

use spfactor_matrix::{Graph, Permutation, SymmetricPattern};

/// "No variable / no element / empty slot" in the `u32` id arrays.
const NONE: u32 = u32::MAX;

/// One multiply per list entry; sums of these are the commutative set
/// hashes of twin detection (here and in the driver).
#[inline]
fn mix(x: usize) -> u64 {
    let y = (x as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    y ^ (y >> 29)
}

/// Whether a graph of `n` vertices and `nnz_strict_lower` edges fits the
/// driver's `u32` ids and offsets; the message names the limit that does
/// not. `Pipeline` turns it into a typed `InvalidParameter`; the bare
/// [`crate::order`] entry panics with it.
pub fn check_index_range(n: usize, nnz_strict_lower: usize) -> Result<(), String> {
    if n >= NONE as usize {
        return Err(format!(
            "{n} columns exceed the ordering driver's 32-bit ids"
        ));
    }
    if nnz_strict_lower > (u32::MAX / 2) as usize {
        return Err(format!(
            "{nnz_strict_lower} off-diagonal nonzeros exceed the ordering driver's 32-bit offsets"
        ));
    }
    Ok(())
}

/// The result of indistinguishable-node detection on a pattern: the
/// quotient graph, the supervariable weights, and the member lists
/// needed to expand a quotient ordering back to the original variables.
#[derive(Clone, Debug)]
pub struct GraphCompression {
    /// Graph over supervariables; the input's own graph when nothing
    /// merged.
    quotient: Graph,
    /// Number of original variables each supervariable represents.
    weights: Vec<usize>,
    /// CSR member lists: supervariable `s` represents original
    /// variables `member_idx[member_ptr[s]..member_ptr[s+1]]`, ascending.
    member_ptr: Vec<usize>,
    member_idx: Vec<usize>,
}

impl GraphCompression {
    /// Detects indistinguishable variables of `pattern` — identical
    /// closed neighbourhoods `N[v] = {v} ∪ adj(v)` — by a commutative
    /// hash of each closed list read straight off the graph and an exact
    /// comparison on a hash hit, then builds the quotient graph — or
    /// keeps the graph it hashed when every variable stands alone.
    /// Deterministic: supervariables are numbered by their smallest
    /// member, ascending.
    pub fn analyze(pattern: &SymmetricPattern) -> Self {
        let g = pattern.to_graph();
        let n = g.n();

        // closed(a) == closed(b) for a != b: adjacent, and the same
        // neighbours apart from each other.
        let same_closed = |a: usize, b: usize| {
            g.degree(a) == g.degree(b)
                && g.has_edge(a, b)
                && g.neighbors(a)
                    .iter()
                    .filter(|&&u| u != b)
                    .eq(g.neighbors(b).iter().filter(|&&u| u != a))
        };

        // Open-addressed table of supervariable ids, keyed by the hash of
        // the first (smallest) member.
        let mask = (2 * n).next_power_of_two().max(2) - 1;
        let mut table = vec![NONE; mask + 1];
        let mut first: Vec<usize> = Vec::with_capacity(n);
        let mut sig: Vec<u64> = Vec::with_capacity(n);
        let mut rep_of = vec![0usize; n];
        for (v, rep) in rep_of.iter_mut().enumerate() {
            let h = g
                .neighbors(v)
                .iter()
                .fold(mix(v), |h, &u| h.wrapping_add(mix(u)));
            let mut slot = (h ^ (h >> 32)) as usize & mask;
            *rep = loop {
                let held = table[slot];
                if held == NONE {
                    table[slot] = first.len() as u32;
                    first.push(v);
                    sig.push(h);
                    break first.len() - 1;
                }
                let s = held as usize;
                if sig[s] == h && same_closed(first[s], v) {
                    break s;
                }
                slot = (slot + 1) & mask;
            };
        }
        let nc = first.len();
        if nc == n {
            return GraphCompression {
                quotient: g,
                weights: vec![1; n],
                member_ptr: (0..=n).collect(),
                member_idx: (0..n).collect(),
            };
        }

        let mut weights = vec![0usize; nc];
        for &s in &rep_of {
            weights[s] += 1;
        }
        let mut member_ptr = vec![0usize; nc + 1];
        for s in 0..nc {
            member_ptr[s + 1] = member_ptr[s] + weights[s];
        }
        let mut next = member_ptr.clone();
        let mut member_idx = vec![0usize; n];
        for (v, &s) in rep_of.iter().enumerate() {
            member_idx[next[s]] = v; // ascending: filled in v order
            next[s] += 1;
        }
        // Quotient edges between distinct supervariables (`from_edges`
        // drops the loops and duplicates contraction creates).
        let quotient = Graph::from_edges(
            nc,
            (0..n).flat_map(|v| {
                let rep_of = &rep_of;
                g.neighbors(v)
                    .iter()
                    .take_while(move |&&u| u < v)
                    .map(move |&u| (rep_of[u], rep_of[v]))
            }),
        );
        GraphCompression {
            quotient,
            weights,
            member_ptr,
            member_idx,
        }
    }

    /// The graph over supervariables the driver orders.
    pub fn quotient(&self) -> &Graph {
        &self.quotient
    }

    /// Number of original variables each supervariable represents.
    pub fn weights(&self) -> &[usize] {
        &self.weights
    }

    /// Number of original variables.
    pub fn n_original(&self) -> usize {
        self.member_idx.len()
    }

    /// Number of supervariables in the quotient graph.
    pub fn n_compressed(&self) -> usize {
        self.weights.len()
    }

    /// Compression ratio `n / n_compressed` (1.0 when nothing merged;
    /// 1.0 for the empty pattern).
    pub fn ratio(&self) -> f64 {
        if self.n_compressed() == 0 {
            1.0
        } else {
            self.n_original() as f64 / self.n_compressed() as f64
        }
    }

    /// Original variables the supervariable `s` represents, ascending.
    pub fn members(&self, s: usize) -> &[usize] {
        &self.member_idx[self.member_ptr[s]..self.member_ptr[s + 1]]
    }

    /// Expands an elimination order of the quotient graph into a
    /// permutation of the original variables: each supervariable's
    /// members are numbered consecutively, ascending. Where nothing
    /// merged the order is the permutation.
    pub fn expand(&self, order_c: Vec<usize>) -> Permutation {
        debug_assert_eq!(order_c.len(), self.n_compressed());
        let order = if self.n_compressed() == self.n_original() {
            order_c
        } else {
            let mut out = Vec::with_capacity(self.n_original());
            for s in order_c {
                out.extend_from_slice(self.members(s));
            }
            out
        };
        Permutation::from_vec(order).expect("expansion covers every original variable once")
    }
}

/// Work counters of one minimum-degree run (driver or oracle), recorded
/// by the traced entry points under the `order.mmd.*` names.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MdCounters {
    /// Elimination passes (rounds of multiple elimination).
    pub passes: u64,
    /// Supervariable eliminations.
    pub eliminations: u64,
    /// Degree recomputations.
    pub degree_updates: u64,
    /// Indistinguishable-variable merges performed *during* elimination
    /// (on top of any up-front compression).
    pub merges: u64,
}

/// What the driver itself did to get there (`order.driver.*`): exact
/// counts that repeat run to run, so a change to the driver can state
/// its claim as one of them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct DriverWork {
    /// List entries read by degree computations (variable lists,
    /// element lists and element boundaries).
    pub scanned_entries: u64,
    /// Exact degree updates that walked every adjacent boundary
    /// themselves (three or more elements) instead of being served from
    /// their newest element's overlap counts.
    pub full_scans: u64,
    /// Exact adjacency comparisons run by twin detection.
    pub twin_compares: u64,
    /// Compactions of the element-boundary arena.
    pub compactions: u64,
}

/// The quotient graph on flat arrays (module docs). Ids are `u32`,
/// offsets into the arena `usize`.
struct Quotient {
    /// Variable lists: `vadj[vstart[v]..][..vlen[v]]`.
    vstart: Vec<u32>,
    vlen: Vec<u32>,
    vadj: Vec<u32>,
    /// Element lists, ascending: `eadj[2 * vstart[v]..][..elen[v]]`, in a
    /// slot of `2 * deg₀(v)` entries.
    elen: Vec<u32>,
    eadj: Vec<u32>,
    /// Element boundaries: `arena[bstart[e]..][..blen[e]]`; `bstart[e]`
    /// is `DEAD` once `e` is absorbed. `bstamp[e]` is the pass that last
    /// filtered the boundary.
    bstart: Vec<usize>,
    blen: Vec<u32>,
    bstamp: Vec<u32>,
    /// Weight of the boundary as of that filter.
    bweight: Vec<u32>,
    /// `overlap_of[e] == me`: `outside[e]` is the weight of `e`'s
    /// boundary outside the boundary of the element `me`.
    overlap_of: Vec<u32>,
    outside: Vec<u32>,
    arena: Vec<u32>,
    top: usize,
    /// Room kept free behind the live boundaries after a compaction.
    arena_slack: usize,
    /// Supervariable weight; 0 for eliminated and merged variables.
    weight: Vec<u32>,
    /// Member chain of each representative: `next[v]` after `v`,
    /// `tail[v]` its last link.
    next: Vec<u32>,
    tail: Vec<u32>,
    marker: Vec<u32>,
    stamp: u32,
    work: DriverWork,
}

/// `bstart` of an absorbed element.
const DEAD: usize = usize::MAX;

impl Quotient {
    fn new(g: &Graph, weights: &[usize], arena_slack: usize, first_stamp: u32) -> Self {
        let n = g.n();
        // The total weight is what the supervariables stand for, at least
        // `n`; weights and their sums are kept in `u32` as well.
        if let Err(limit) = check_index_range(weights.iter().sum(), g.num_edges()) {
            panic!("{limit}");
        }
        let mut vstart = Vec::with_capacity(n + 1);
        let mut vadj = Vec::with_capacity(2 * g.num_edges());
        for v in 0..n {
            vstart.push(vadj.len() as u32);
            vadj.extend(g.neighbors(v).iter().map(|&u| u as u32));
        }
        vstart.push(vadj.len() as u32);
        Quotient {
            vlen: (0..n).map(|v| vstart[v + 1] - vstart[v]).collect(),
            elen: vec![0; n],
            eadj: vec![0; 2 * vadj.len()],
            vstart,
            vadj,
            bstart: Vec::with_capacity(n),
            blen: Vec::with_capacity(n),
            bstamp: Vec::with_capacity(n),
            bweight: Vec::with_capacity(n),
            overlap_of: Vec::with_capacity(n),
            outside: Vec::with_capacity(n),
            arena: vec![0; arena_slack],
            top: 0,
            arena_slack,
            weight: weights.iter().map(|&w| w as u32).collect(),
            next: vec![NONE; n],
            tail: (0..n as u32).collect(),
            marker: vec![0; n],
            stamp: first_stamp,
            work: DriverWork::default(),
        }
    }

    /// A marker value no entry of `marker` holds. On wrap-around the
    /// array is cleared and counting restarts (AMD's `clear_flag`); no
    /// stamp is held across a call of this.
    fn next_stamp(&mut self) -> u32 {
        if self.stamp == u32::MAX {
            self.marker.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        self.stamp
    }

    #[inline]
    fn vars(&self, v: usize) -> &[u32] {
        let s = self.vstart[v] as usize;
        &self.vadj[s..s + self.vlen[v] as usize]
    }

    #[inline]
    fn elems(&self, v: usize) -> &[u32] {
        let s = 2 * self.vstart[v] as usize;
        &self.eadj[s..s + self.elen[v] as usize]
    }

    /// Whether an elimination of the pass whose first element is
    /// `first_elem` reached `v`: element lists ascend, so the last entry
    /// tells.
    #[inline]
    fn reached_since(&self, v: usize, first_elem: u32) -> bool {
        self.elems(v).last().is_some_and(|&e| e >= first_elem)
    }

    /// Drops dead variables and absorbed elements from `v`'s lists where
    /// they lie and returns the commutative hash of what is left (closed
    /// variable set and element set) for twin detection.
    fn clean(&mut self, v: usize) -> u64 {
        let mut h = mix(v);
        let s = self.vstart[v] as usize;
        let mut w = s;
        for k in s..s + self.vlen[v] as usize {
            let u = self.vadj[k];
            if self.weight[u as usize] != 0 {
                self.vadj[w] = u;
                w += 1;
                h = h.wrapping_add(mix(u as usize));
            }
        }
        self.vlen[v] = (w - s) as u32;
        let s = 2 * s;
        let mut w = s;
        for k in s..s + self.elen[v] as usize {
            let e = self.eadj[k];
            if self.bstart[e as usize] != DEAD {
                self.eadj[w] = e;
                w += 1;
                h = h.wrapping_add(mix(e as usize).rotate_left(32));
            }
        }
        self.elen[v] = (w - s) as u32;
        h
    }

    /// Makes room for `need` more arena entries: compacts the live
    /// boundaries to the front (creation order is arena order, so every
    /// move is downwards) and grows only if that leaves less than the
    /// slack free.
    fn reserve_arena(&mut self, need: usize) {
        if self.top + need <= self.arena.len() {
            return;
        }
        self.work.compactions += 1;
        let mut top = 0;
        for e in 0..self.bstart.len() {
            let s = self.bstart[e];
            if s != DEAD {
                let len = self.blen[e] as usize;
                self.arena.copy_within(s..s + len, top);
                self.bstart[e] = top;
                top += len;
            }
        }
        self.top = top;
        let want = top + need + self.arena_slack;
        if want > self.arena.len() {
            self.arena.resize(want, 0);
        }
    }

    /// Eliminates `v`: forms the new element from `v`'s reach, absorbs
    /// the elements adjacent to `v`, pushes the new element onto every
    /// boundary variable and appends those reached for the first time in
    /// this pass (the one whose first element is `first_elem`) to
    /// `touched`.
    fn eliminate(&mut self, v: usize, first_elem: u32, touched: &mut Vec<u32>) {
        debug_assert!(self.weight[v] != 0);
        self.clean(v);
        let need = self.vlen[v] as usize
            + self
                .elems(v)
                .iter()
                .map(|&e| self.blen[e as usize] as usize)
                .sum::<usize>();
        self.reserve_arena(need);
        let m = self.next_stamp();
        self.marker[v] = m;
        let start = self.top;
        let mut top = start;
        let vs = self.vstart[v] as usize;
        // clean() left live, distinct variables.
        for k in vs..vs + self.vlen[v] as usize {
            let u = self.vadj[k];
            self.marker[u as usize] = m;
            self.arena[top] = u;
            top += 1;
        }
        for k in 2 * vs..2 * vs + self.elen[v] as usize {
            let e = self.eadj[k] as usize;
            let bs = self.bstart[e];
            for t in bs..bs + self.blen[e] as usize {
                let u = self.arena[t];
                if self.weight[u as usize] != 0 && self.marker[u as usize] != m {
                    self.marker[u as usize] = m;
                    self.arena[top] = u;
                    top += 1;
                }
            }
            self.bstart[e] = DEAD; // absorbed into the new element
        }
        let e = self.bstart.len() as u32;
        self.bstart.push(start);
        self.blen.push((top - start) as u32);
        self.bstamp.push(0);
        self.bweight.push(0);
        self.overlap_of.push(NONE);
        self.outside.push(0);
        self.top = top;
        self.weight[v] = 0;
        for t in start..top {
            let u = self.arena[t] as usize;
            if !self.reached_since(u, first_elem) {
                touched.push(u as u32);
            }
            let slot = 2 * self.vstart[u] as usize;
            let len = self.elen[u] as usize;
            // The slot bound of the module docs; a push past it would
            // land in the next variable's slot.
            assert!(
                len < 2 * (self.vstart[u + 1] - self.vstart[u]) as usize,
                "element slot of variable {u} overflows"
            );
            self.eadj[slot + len] = e;
            self.elen[u] += 1;
        }
    }

    /// Merges `v` into the representative `rep`.
    fn absorb(&mut self, rep: usize, v: usize) {
        self.weight[rep] += self.weight[v];
        self.weight[v] = 0;
        self.next[self.tail[rep] as usize] = v as u32;
        self.tail[rep] = self.tail[v];
    }

    /// Drops dead variables from the boundaries of `v`'s elements and
    /// weighs what is left, each boundary once per pass.
    fn filter_boundaries(&mut self, v: usize, pass: u32) {
        let s = 2 * self.vstart[v] as usize;
        for k in s..s + self.elen[v] as usize {
            let e = self.eadj[k] as usize;
            if self.bstamp[e] == pass {
                continue;
            }
            self.bstamp[e] = pass;
            let bs = self.bstart[e];
            let (mut w, mut weight) = (bs, 0);
            for t in bs..bs + self.blen[e] as usize {
                let u = self.arena[t];
                if self.weight[u as usize] != 0 {
                    self.arena[w] = u;
                    w += 1;
                    weight += self.weight[u as usize];
                }
            }
            self.blen[e] = (w - bs) as u32;
            self.bweight[e] = weight;
        }
    }

    /// Exact external degree of `v` by a full scan: the weight of the
    /// distinct variables in its list and on its elements' boundaries,
    /// itself excluded.
    fn exact_degree(&mut self, v: usize) -> usize {
        let m = self.next_stamp();
        self.marker[v] = m;
        let mut d = 0usize;
        let mut scanned = (self.vlen[v] + self.elen[v]) as usize;
        let vs = self.vstart[v] as usize;
        for k in vs..vs + self.vlen[v] as usize {
            let u = self.vadj[k] as usize;
            self.marker[u] = m;
            d += self.weight[u] as usize;
        }
        for k in 2 * vs..2 * vs + self.elen[v] as usize {
            let e = self.eadj[k] as usize;
            let bs = self.bstart[e];
            scanned += self.blen[e] as usize;
            for t in bs..bs + self.blen[e] as usize {
                let u = self.arena[t] as usize;
                if self.marker[u] != m {
                    self.marker[u] = m;
                    d += self.weight[u] as usize;
                }
            }
        }
        self.work.full_scans += 1;
        self.work.scanned_entries += scanned as u64;
        d
    }

    /// Exact degrees of the variables whose last element is `me` (an
    /// element of the current pass, its boundary filtered) and that lie
    /// on at most one more element `e`: `w(L_me ∪ L_e)` is `w(L_me)` plus
    /// the weight of `L_e` outside `L_me`, and that overlap is counted
    /// for every such `e` at once by one walk over the element lists of
    /// `L_me` (Amestoy, Davis and Duff's `|L_e \ L_me|`) — no boundary
    /// but `L_me` is read, and that one once. A direct neighbour adds its
    /// weight unless it is marked (on `L_me`) or lists `e` itself (on
    /// `L_e`).
    fn pair_degrees(&mut self, me: u32, buckets: &mut DegreeBuckets) {
        let bs = self.bstart[me as usize];
        let boundary = bs..bs + self.blen[me as usize] as usize;
        let mut scanned = 2 * boundary.len();
        let m = self.next_stamp();
        for t in boundary.clone() {
            self.marker[self.arena[t] as usize] = m;
        }
        for t in boundary.clone() {
            let u = self.arena[t] as usize;
            let own = self.weight[u];
            let s = 2 * self.vstart[u] as usize;
            // The last entry is `me` itself or a later element.
            let others = (self.elen[u] - 1) as usize;
            scanned += others;
            for k in s..s + others {
                let e = self.eadj[k] as usize;
                if self.overlap_of[e] != me {
                    self.overlap_of[e] = me;
                    self.outside[e] = self.bweight[e];
                }
                self.outside[e] -= own;
            }
        }
        let total = self.bweight[me as usize] as usize;
        for t in boundary {
            let u = self.arena[t] as usize;
            let (other, mut d) = match *self.elems(u) {
                [_] => (NONE, 0),
                [e, last] if last == me => (e, self.outside[e as usize] as usize),
                _ => continue, // a later element's turn, or a full scan's
            };
            d += total - self.weight[u] as usize;
            scanned += self.vlen[u] as usize;
            for &a in self.vars(u) {
                let a = a as usize;
                if self.marker[a] == m {
                    continue;
                }
                if other != NONE {
                    scanned += self.elen[a] as usize;
                    if self.elems(a).contains(&other) {
                        continue;
                    }
                }
                d += self.weight[a] as usize;
            }
            buckets.update(u, d);
        }
        self.work.scanned_entries += scanned as u64;
    }

    /// Whether `v` has `rep`'s adjacency: the closed variable sets and
    /// the element lists are equal. `marked` remembers the representative
    /// whose closed set carries the current stamp, so a run of candidates
    /// against one representative marks it once.
    fn same_adjacency(&mut self, rep: usize, v: usize, marked: &mut (usize, u32)) -> bool {
        self.work.twin_compares += 1;
        if self.vlen[rep] != self.vlen[v] || self.elems(rep) != self.elems(v) {
            return false;
        }
        if marked.0 != rep {
            let m = self.next_stamp();
            self.marker[rep] = m;
            let s = self.vstart[rep] as usize;
            for k in s..s + self.vlen[rep] as usize {
                self.marker[self.vadj[k] as usize] = m;
            }
            *marked = (rep, m);
        }
        // Equal sizes, no duplicates: N[v] ⊆ N[rep] is equality.
        let m = marked.1;
        self.marker[v] == m && self.vars(v).iter().all(|&u| self.marker[u as usize] == m)
    }
}

/// The live variables by degree, as intrusive doubly-linked lists:
/// `head[d]` starts the list of degree `d`, which holds exactly the live
/// variables `v` with `degree[v] == d`.
struct DegreeBuckets {
    degree: Vec<usize>,
    head: Vec<u32>,
    next: Vec<u32>,
    prev: Vec<u32>,
    cur_min: usize,
}

impl DegreeBuckets {
    /// Every variable at its initial degree, the weight of its
    /// neighbours. `head` is sized by the largest of them; `insert` grows
    /// it (fill raises degrees past every initial one).
    fn new(g: &Graph, weights: &[usize]) -> Self {
        let n = g.n();
        let degree: Vec<usize> = (0..n)
            .map(|v| g.neighbors(v).iter().map(|&u| weights[u]).sum())
            .collect();
        let mut buckets = DegreeBuckets {
            head: vec![NONE; degree.iter().max().map_or(0, |&d| d + 1)],
            degree,
            next: vec![NONE; n],
            prev: vec![NONE; n],
            cur_min: usize::MAX,
        };
        for v in 0..n {
            buckets.insert(v);
        }
        buckets
    }

    /// Links `v` into the list of `degree[v]`.
    fn insert(&mut self, v: usize) {
        let d = self.degree[v];
        if d >= self.head.len() {
            self.head.resize(d + 1, NONE);
        }
        let h = self.head[d];
        self.next[v] = h;
        self.prev[v] = NONE;
        if h != NONE {
            self.prev[h as usize] = v as u32;
        }
        self.head[d] = v as u32;
        self.cur_min = self.cur_min.min(d);
    }

    /// Unlinks `v` (eliminated, merged away, or about to change degree).
    fn remove(&mut self, v: usize) {
        let (p, nx) = (self.prev[v], self.next[v]);
        if p == NONE {
            self.head[self.degree[v]] = nx;
        } else {
            self.next[p as usize] = nx;
        }
        if nx != NONE {
            self.prev[nx as usize] = p;
        }
    }

    fn update(&mut self, v: usize, d: usize) {
        self.remove(v);
        self.degree[v] = d;
        self.insert(v);
    }

    /// The smallest degree any live variable has. Callers loop while
    /// some variable is live, so a list is non-empty.
    fn min_degree(&mut self) -> usize {
        while self.head[self.cur_min] == NONE {
            self.cur_min += 1;
        }
        self.cur_min
    }

    /// Appends the variables of degree `d` to `out`, ascending.
    fn collect(&self, d: usize, out: &mut Vec<u32>) {
        let from = out.len();
        let mut v = self.head[d];
        while v != NONE {
            out.push(v);
            v = self.next[v as usize];
        }
        out[from..].sort_unstable();
    }
}

/// Runs weighted multiple minimum degree on `graph` with initial
/// supervariable `weights`, returning the elimination order of the
/// (compressed) variables and the work counters. With unit weights: the
/// oracle's permutation and counters.
///
/// # Panics
/// If the graph does not fit 32-bit ids and offsets
/// ([`check_index_range`]).
pub(crate) fn weighted_min_degree(
    graph: &Graph,
    weights: &[usize],
    delta: usize,
) -> (Vec<usize>, MdCounters, DriverWork) {
    // Slack of one adjacency: a compaction then costs less than the
    // appends that led to it.
    run_driver(graph, weights, delta, 2 * graph.num_edges(), 0)
}

/// [`weighted_min_degree`] with the arena slack and the first marker
/// stamp chosen by the caller, for the tests that force compaction and
/// stamp wrap-around.
fn run_driver(
    graph: &Graph,
    weights: &[usize],
    delta: usize,
    arena_slack: usize,
    first_stamp: u32,
) -> (Vec<usize>, MdCounters, DriverWork) {
    let n = graph.n();
    let mut counters = MdCounters::default();
    let mut q = Quotient::new(graph, weights, arena_slack, first_stamp);
    let mut buckets = DegreeBuckets::new(graph, weights);

    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut candidates: Vec<u32> = Vec::new();
    let mut touched: Vec<u32> = Vec::new();
    let mut sigs: Vec<u64> = Vec::new();
    let mut table: Vec<u32> = Vec::new();

    while order.len() < n {
        counters.passes += 1;
        // At most one pass and one element per variable: both fit.
        let pass = counters.passes as u32;
        let first_elem = q.bstart.len() as u32;
        let mindeg = buckets.min_degree();
        let hi = mindeg.saturating_add(delta).min(buckets.head.len() - 1);
        candidates.clear();
        for d in mindeg..=hi {
            buckets.collect(d, &mut candidates);
        }

        // Multiple elimination: skip candidates whose degree went stale
        // (adjacent to an earlier elimination of this pass).
        touched.clear();
        for &v in &candidates {
            let v = v as usize;
            if q.reached_since(v, first_elem) {
                continue;
            }
            buckets.remove(v);
            q.eliminate(v, first_elem, &mut touched);
            counters.eliminations += 1;
            // v and everything merged into it, numbered consecutively.
            let mut member = v as u32;
            while member != NONE {
                order.push(member as usize);
                member = q.next[member as usize];
            }
        }
        touched.sort_unstable();

        // Merge indistinguishable variables among the touched set under
        // the start-of-step twin rule: every list is cleaned (and
        // hashed) before anything merges, and nothing below rewrites a
        // list, so a twin merged a moment ago stays in the lists it is
        // compared through. Ascending insertion makes the smallest member
        // the representative.
        sigs.clear();
        sigs.extend(touched.iter().map(|&u| q.clean(u as usize)));
        let mask = (2 * touched.len()).next_power_of_two().max(2) - 1;
        table.clear();
        table.resize(mask + 1, NONE);
        let mut marked = (NONE as usize, 0);
        for (pos, &v) in touched.iter().enumerate() {
            let (v, h) = (v as usize, sigs[pos]);
            let mut slot = (h ^ (h >> 32)) as usize & mask;
            loop {
                let held = table[slot];
                if held == NONE {
                    table[slot] = pos as u32;
                    break;
                }
                let rep = touched[held as usize] as usize;
                if sigs[held as usize] == h && q.same_adjacency(rep, v, &mut marked) {
                    buckets.remove(v);
                    q.absorb(rep, v);
                    counters.merges += 1;
                    break;
                }
                slot = (slot + 1) & mask;
            }
        }

        // Degrees of the survivors. Variables merged away above linger
        // in lists until the next clean; they weigh nothing. Most
        // survivors lie on one or two elements, the last of them made in
        // this pass: those are served per new element, the rest by a
        // scan of their own.
        for &u in &touched {
            let u = u as usize;
            if q.weight[u] == 0 {
                continue;
            }
            counters.degree_updates += 1;
            q.filter_boundaries(u, pass);
            if q.elen[u] > 2 {
                let d = q.exact_degree(u);
                buckets.update(u, d);
            }
        }
        for me in first_elem..q.bstart.len() as u32 {
            q.pair_degrees(me, &mut buckets);
        }
    }
    (order, counters, q.work)
}

/// `OrderEngine::Direct`: the driver on the pattern itself, unit weights.
pub(crate) fn direct_min_degree(
    pattern: &SymmetricPattern,
    delta: usize,
) -> (Permutation, MdCounters, DriverWork) {
    let (order, counters, work) =
        weighted_min_degree(&pattern.to_graph(), &vec![1; pattern.n()], delta);
    let perm = Permutation::from_vec(order).expect("every variable eliminated exactly once");
    (perm, counters, work)
}

/// Compressed-graph minimum degree end to end: analyze → weighted MD on
/// the quotient graph → expand. Returns the permutation, the
/// compression statistics, and the counters.
pub(crate) fn compressed_min_degree(
    pattern: &SymmetricPattern,
    delta: usize,
) -> (Permutation, GraphCompression, MdCounters, DriverWork) {
    let gc = GraphCompression::analyze(pattern);
    let (order_c, counters, work) = weighted_min_degree(&gc.quotient, &gc.weights, delta);
    let perm = gc.expand(order_c);
    (perm, gc, counters, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmd::{elimination_fill, minimum_degree_counted, multiple_minimum_degree};
    use spfactor_matrix::gen;

    /// The tolerances every oracle comparison runs.
    const DELTAS: [usize; 3] = [0, 1, 2];

    fn fill_under(pattern: &SymmetricPattern, perm: &Permutation) -> usize {
        elimination_fill(&pattern.permute(perm))
    }

    /// The unit-weight driver against the oracle, permutation and the four
    /// `order.mmd.*` tallies, with the arena slack and first stamp given.
    /// Returns the compactions of the three runs.
    fn assert_driver_is_oracle(
        label: &str,
        p: &SymmetricPattern,
        arena_slack: usize,
        first_stamp: u32,
    ) -> u64 {
        let mut compactions = 0;
        for delta in DELTAS {
            let (order, counters, work) = run_driver(
                &p.to_graph(),
                &vec![1; p.n()],
                delta,
                arena_slack,
                first_stamp,
            );
            let (oracle, tallies) = minimum_degree_counted(p, delta);
            assert_eq!(order, oracle.as_slice(), "{label} δ={delta}");
            assert_eq!(counters, tallies, "{label} δ={delta}");
            compactions += work.compactions;
        }
        compactions
    }

    #[test]
    fn complete_graph_compresses_to_one_node() {
        let mut e = Vec::new();
        for a in 0..6 {
            for b in (a + 1)..6 {
                e.push((b, a));
            }
        }
        let k6 = SymmetricPattern::from_edges(6, e);
        let gc = GraphCompression::analyze(&k6);
        assert_eq!(gc.n_compressed(), 1);
        assert_eq!(gc.weights(), [6]);
        assert_eq!(gc.members(0), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(gc.ratio(), 6.0);
    }

    #[test]
    fn grid_laplacian_does_not_compress() {
        let p = gen::lap9(6, 6);
        let gc = GraphCompression::analyze(&p);
        assert_eq!(gc.n_compressed(), 36, "9-point grid nodes are distinct");
        assert_eq!(gc.quotient(), &p.to_graph());
        assert_eq!(gc.members(17), &[17]);
    }

    #[test]
    fn fe_grid_compresses() {
        // The 5-point finite-element grid carries multiple unknowns with
        // identical closed neighborhoods (element-interior nodes).
        let p = gen::grid5_fe(4, 4);
        let gc = GraphCompression::analyze(&p);
        assert!(
            gc.n_compressed() < p.n(),
            "FE grid must compress: {} -> {}",
            p.n(),
            gc.n_compressed()
        );
        // Weights cover every variable exactly once.
        assert_eq!(gc.weights().iter().sum::<usize>(), p.n());
    }

    /// The groups `analyze` finds are exactly the classes of equal
    /// closed neighbourhoods, numbered by smallest member, and the
    /// quotient has an edge wherever two classes had one.
    #[test]
    fn analyze_matches_a_brute_force_grouping() {
        for p in [
            gen::grid5_fe(5, 4),
            gen::frame_shell(4, 8),
            gen::power_network(120, 15, 2),
            gen::paper::bus1138().pattern,
        ] {
            let g = p.to_graph();
            let closed = |v: usize| {
                let mut c = g.neighbors(v).to_vec();
                c.push(v);
                c.sort_unstable();
                c
            };
            let mut reps: Vec<usize> = Vec::new();
            let mut rep_of = vec![0usize; p.n()];
            for (v, rep) in rep_of.iter_mut().enumerate() {
                *rep = match reps.iter().position(|&r| closed(r) == closed(v)) {
                    Some(s) => s,
                    None => {
                        reps.push(v);
                        reps.len() - 1
                    }
                };
            }
            let gc = GraphCompression::analyze(&p);
            assert_eq!(gc.n_compressed(), reps.len());
            for (v, &s) in rep_of.iter().enumerate() {
                assert!(gc.members(s).contains(&v), "variable {v}");
            }
            let quotient = Graph::from_edges(
                reps.len(),
                p.iter_entries().map(|(i, j)| (rep_of[i], rep_of[j])),
            );
            assert_eq!(gc.quotient(), &quotient);
        }
    }

    #[test]
    fn expansion_is_a_valid_permutation() {
        let p = gen::grid5_fe(5, 5);
        let (perm, gc, ..) = compressed_min_degree(&p, 0);
        assert_eq!(perm.len(), p.n());
        assert!(gc.ratio() >= 1.0);
    }

    #[test]
    fn weighted_md_with_unit_weights_matches_oracle() {
        // Permutation and counters; where nothing compresses the whole
        // compressed path agrees as well.
        for p in [
            gen::lap9(8, 8),
            gen::grid5(7, 5),
            gen::power_network(50, 9, 3),
        ] {
            for delta in DELTAS {
                let oracle = minimum_degree_counted(&p, delta);
                let (perm, counters, _) = direct_min_degree(&p, delta);
                assert_eq!((perm, counters), oracle);
                let (perm, gc, counters, _) = compressed_min_degree(&p, delta);
                if gc.n_compressed() == p.n() {
                    assert_eq!((perm, counters), oracle, "n = {}", p.n());
                }
            }
        }
    }

    /// Beyond the sizes `tests/order_engine.rs` reaches: a grid whose
    /// late passes carry long boundaries and many three-element updates.
    /// (The oracle needs seconds for it unoptimized.)
    #[test]
    #[cfg_attr(debug_assertions, ignore = "the oracle is slow without optimization")]
    fn driver_matches_oracle_on_a_large_grid() {
        let p = gen::lap9(120, 120);
        assert_driver_is_oracle("lap9 120²", &p, 2 * p.nnz_strict_lower(), 0);
    }

    /// 200 seeded random geometric graphs up to n = 2,000, mean degree
    /// 3–10: irregular lists, twins, disconnected pieces.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "the oracle is slow without optimization")]
    fn driver_matches_oracle_on_random_geometric_graphs() {
        for seed in 0..200u64 {
            let n = 20 + (seed as usize * 977) % 1981;
            let deg = 3.0 + (seed % 8) as f64;
            let r = (deg / (std::f64::consts::PI * n as f64)).sqrt();
            let p = gen::random_geometric(n, r, seed);
            let label = format!("random_geometric({n}, deg {deg}, seed {seed})");
            assert_driver_is_oracle(&label, &p, 2 * p.nnz_strict_lower(), 0);
        }
    }

    /// With four entries of slack the arena is compacted at nearly every
    /// elimination; boundaries move under the lists that point at them
    /// and the result must not.
    #[test]
    fn compaction_keeps_the_oracles_permutation() {
        let p = gen::lap9(30, 30);
        let compactions = assert_driver_is_oracle("lap9 30², slack 4", &p, 4, 0);
        assert!(
            compactions >= 400,
            "only {compactions} compactions: the test no longer reaches the code"
        );
        // The default slack on the same grid: a handful.
        let (.., work) = direct_min_degree(&p, 0);
        assert!(work.compactions <= 8, "{} compactions", work.compactions);
    }

    /// The marker stamp wraps at once, after three more stamps (inside
    /// the first elimination), or some passes into the run; the array is
    /// cleared and the run goes on as if nothing had happened.
    #[test]
    fn stamp_wrap_around_clears_the_markers_and_restarts() {
        for p in [
            gen::lap9(12, 12),
            gen::grid5_fe(6, 6),
            gen::power_network(200, 25, 7),
        ] {
            let slack = 2 * p.nnz_strict_lower();
            for back in [0, 3, 40, 500] {
                assert_driver_is_oracle("stamp wrap", &p, slack, u32::MAX - back);
            }
        }
    }

    /// Weighted runs (the compressed engine on inputs that compress)
    /// survive compaction and wrap-around unchanged too.
    #[test]
    fn weighted_runs_do_not_depend_on_slack_or_stamp() {
        for p in [gen::grid5_fe(8, 8), gen::power_network(400, 40, 5)] {
            let gc = GraphCompression::analyze(&p);
            assert!(gc.n_compressed() < p.n());
            for delta in DELTAS {
                let reference = weighted_min_degree(gc.quotient(), gc.weights(), delta);
                for (slack, first_stamp) in [(4, 0), (64, u32::MAX - 3)] {
                    let (order, counters, _) =
                        run_driver(gc.quotient(), gc.weights(), delta, slack, first_stamp);
                    assert_eq!((&order, counters), (&reference.0, reference.1));
                }
            }
        }
    }

    #[test]
    fn degree_lists_grow_past_the_largest_initial_degree() {
        // A path 0 – 1 – 2 and an isolated vertex: degrees 1, 2, 1, 0.
        let g = Graph::from_edges(4, [(0, 1), (1, 2)]);
        let mut buckets = DegreeBuckets::new(&g, &[1; 4]);
        assert_eq!(buckets.head.len(), 3, "sized by the largest degree");
        buckets.update(0, 9);
        assert_eq!(buckets.head.len(), 10);
        let mut out = Vec::new();
        buckets.collect(1, &mut out);
        buckets.collect(9, &mut out);
        assert_eq!(out, [2, 0]);
        assert_eq!(buckets.min_degree(), 0);
        buckets.remove(3);
        assert_eq!(buckets.min_degree(), 1);
    }

    #[test]
    fn index_range_is_checked_not_truncated() {
        assert!(check_index_range(4_000_000_000, 10).is_ok());
        assert!(check_index_range(u32::MAX as usize - 1, 0).is_ok());
        assert!(check_index_range(u32::MAX as usize, 0).is_err());
        assert!(check_index_range(10, (u32::MAX / 2) as usize).is_ok());
        let err = check_index_range(10, (u32::MAX / 2) as usize + 1).unwrap_err();
        assert!(err.contains("32-bit offsets"), "{err}");
    }

    #[test]
    fn compressed_fill_stays_in_regime() {
        for p in [
            gen::lap9(10, 10),
            gen::grid5_fe(6, 6),
            gen::frame_shell(4, 8),
            gen::power_network(80, 11, 4),
        ] {
            let direct = fill_under(&p, &multiple_minimum_degree(&p, 0));
            let (perm, ..) = compressed_min_degree(&p, 0);
            let compressed = fill_under(&p, &perm);
            assert!(
                compressed <= direct.saturating_mul(13) / 10 + 16,
                "compressed fill {compressed} vs direct {direct}"
            );
        }
    }

    #[test]
    fn compressed_is_deterministic() {
        let p = gen::grid5_fe(6, 6);
        let (a, ..) = compressed_min_degree(&p, 0);
        let (b, ..) = compressed_min_degree(&p, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_and_tiny_patterns() {
        let empty = SymmetricPattern::from_edges(0, []);
        let (perm, gc, ..) = compressed_min_degree(&empty, 0);
        assert_eq!(perm.len(), 0);
        assert_eq!(gc.ratio(), 1.0);
        let one = SymmetricPattern::from_edges(1, []);
        let (perm, ..) = compressed_min_degree(&one, 0);
        assert_eq!(perm.len(), 1);
        // Two isolated vertices share the empty neighborhood *plus*
        // themselves — closed neighborhoods differ, so no merge.
        let two = SymmetricPattern::from_edges(2, []);
        let gc = GraphCompression::analyze(&two);
        assert_eq!(gc.n_compressed(), 2);
    }
}
