//! The minimum-degree driver behind both [`crate::OrderEngine`]s:
//! `Direct` runs `weighted_min_degree` on the pattern with unit
//! weights, `Compressed` runs it on the quotient pattern of
//! [`GraphCompression::analyze`].
//!
//! Two ideas stack here, both exploiting structure the per-variable
//! oracle in [`crate::mmd`] ignores:
//!
//! * **Indistinguishable-node compression** (Ashcraft's compressed
//!   graphs): variables with identical *closed* neighborhoods — common
//!   in FEM discretizations with several degrees of freedom per mesh
//!   node and in dense sub-blocks — are detected up front by an
//!   adjacency hash plus exact verification and collapsed into one
//!   weighted supervariable. Minimum degree then runs on the quotient
//!   graph, which is 2–10× smaller on such patterns, and the
//!   permutation is expanded back by numbering each supervariable's
//!   members consecutively (exactly the "mass elimination" the
//!   algorithm would have performed one variable at a time).
//! * **Bucketed candidate selection and batched boundary cleaning**:
//!   the oracle rescans all `n` variables twice per elimination pass to
//!   find the minimum degree and the candidate set (`O(n·passes)`
//!   overall — the superlinear term that dominates large grids), and
//!   every degree update re-cleans and clones element boundaries. This
//!   driver keeps lazily-invalidated degree buckets so a pass touches
//!   only the candidates it eliminates, cleans each element boundary
//!   once per pass, and computes degrees with read-only marker scans —
//!   no allocation on the update path.
//!
//! The elimination logic itself — external degrees, multiple
//! elimination with tolerance `delta`, indistinguishable-variable
//! merging, element absorption — follows [`crate::mmd`], and
//! `tests/order_engine.rs` holds the unit-weight driver to the oracle's
//! permutation and counters. That equality rests on one shared rule, the
//! **start-of-step twin rule**: two variables merge iff their adjacency,
//! cleaned at the start of the merge step, is identical. (Until both
//! sides fixed that point in time they disagreed on ≈3 % of random
//! geometric graphs, see `EXPERIMENTS.md`.) Where compression fires, the
//! permutation differs from the direct one but the fill stays in the
//! same regime; `tests/order_engine.rs` pins the bound.

use spfactor_matrix::{Permutation, SymmetricPattern};

/// Variable liveness inside the quotient graph.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    Live,
    Merged,
    Eliminated,
}

/// The result of indistinguishable-node detection on a pattern: the
/// quotient (compressed) pattern, the supervariable weights, and the
/// member lists needed to expand a compressed ordering back to the
/// original variables.
#[derive(Clone, Debug)]
pub struct GraphCompression {
    /// Quotient pattern over supervariables (strict lower triangle).
    pub compressed: SymmetricPattern,
    /// Number of original variables each supervariable represents.
    pub weights: Vec<usize>,
    /// CSR member lists: supervariable `s` represents original
    /// variables `member_idx[member_ptr[s]..member_ptr[s+1]]`, ascending.
    member_ptr: Vec<usize>,
    member_idx: Vec<usize>,
}

impl GraphCompression {
    /// Detects indistinguishable variables of `pattern` — identical
    /// closed neighborhoods `N[v] = {v} ∪ adj(v)` — by hashing each
    /// sorted closed list and verifying candidate pairs exactly, then
    /// builds the quotient pattern. Deterministic: supervariables are
    /// numbered by their smallest member, ascending.
    pub fn analyze(pattern: &SymmetricPattern) -> Self {
        let n = pattern.n();
        let g = pattern.to_graph();

        // Closed neighborhoods as one flat CSR, each list sorted.
        let mut closed_ptr = Vec::with_capacity(n + 1);
        closed_ptr.push(0usize);
        let mut closed_idx: Vec<usize> = Vec::with_capacity(2 * pattern.nnz_strict_lower() + n);
        for v in 0..n {
            let nbrs = g.neighbors(v);
            // neighbors are sorted; splice v into position.
            let split = nbrs.partition_point(|&u| u < v);
            closed_idx.extend_from_slice(&nbrs[..split]);
            closed_idx.push(v);
            closed_idx.extend_from_slice(&nbrs[split..]);
            closed_ptr.push(closed_idx.len());
        }
        let closed = |v: usize| &closed_idx[closed_ptr[v]..closed_ptr[v + 1]];

        // Hash each closed list; group by hash, verify exactly.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let hash_of = |list: &[usize]| {
            let mut h = OFFSET;
            for &u in list {
                for byte in (u as u64).to_le_bytes() {
                    h ^= byte as u64;
                    h = h.wrapping_mul(PRIME);
                }
            }
            h
        };
        let mut groups_by_hash: std::collections::HashMap<u64, Vec<usize>> =
            std::collections::HashMap::new();
        // rep_of[v] = supervariable id of v; ids assigned in ascending
        // order of the group's first (smallest) member.
        let mut rep_of = vec![usize::MAX; n];
        let mut member_lists: Vec<Vec<usize>> = Vec::new();
        for (v, slot) in rep_of.iter_mut().enumerate() {
            let h = hash_of(closed(v));
            let bucket = groups_by_hash.entry(h).or_default();
            let mut found = None;
            for &s in bucket.iter() {
                let rep = member_lists[s][0];
                if closed(rep) == closed(v) {
                    found = Some(s);
                    break;
                }
            }
            match found {
                Some(s) => {
                    *slot = s;
                    member_lists[s].push(v);
                }
                None => {
                    let s = member_lists.len();
                    bucket.push(s);
                    member_lists.push(vec![v]);
                    *slot = s;
                }
            }
        }
        let nc = member_lists.len();

        // Quotient edges between distinct supervariables (`from_edges`
        // deduplicates). Nothing merged: the quotient is the pattern.
        let compressed = if nc == n {
            pattern.clone()
        } else {
            let quotient = pattern.iter_entries().map(|(i, j)| (rep_of[i], rep_of[j]));
            SymmetricPattern::from_edges(nc, quotient)
        };

        let weights: Vec<usize> = member_lists.iter().map(|m| m.len()).collect();
        let mut member_ptr = Vec::with_capacity(nc + 1);
        member_ptr.push(0usize);
        let mut member_idx = Vec::with_capacity(n);
        for m in &member_lists {
            member_idx.extend_from_slice(m); // ascending: pushed in v order
            member_ptr.push(member_idx.len());
        }
        GraphCompression {
            compressed,
            weights,
            member_ptr,
            member_idx,
        }
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
    /// members are numbered consecutively, ascending.
    pub fn expand(&self, order_c: &[usize]) -> Permutation {
        debug_assert_eq!(order_c.len(), self.n_compressed());
        let mut out = Vec::with_capacity(self.n_original());
        for &s in order_c {
            out.extend_from_slice(self.members(s));
        }
        Permutation::from_vec(out).expect("expansion covers every original variable once")
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

/// Quotient-graph state, structurally the same as the oracle's in
/// [`crate::mmd`] but with weighted initial degrees and batched,
/// allocation-free maintenance.
struct Quotient {
    adj_vars: Vec<Vec<usize>>,
    adj_elems: Vec<Vec<usize>>,
    elem_vars: Vec<Vec<usize>>,
    elem_live: Vec<bool>,
    state: Vec<State>,
    weight: Vec<usize>,
    members: Vec<Vec<usize>>,
    degree: Vec<usize>,
    marker: Vec<usize>,
    marker_val: usize,
}

impl Quotient {
    fn new(pattern: &SymmetricPattern, weights: &[usize]) -> Self {
        let n = pattern.n();
        let g = pattern.to_graph();
        let adj_vars: Vec<Vec<usize>> = (0..n).map(|v| g.neighbors(v).to_vec()).collect();
        let degree: Vec<usize> = (0..n)
            .map(|v| g.neighbors(v).iter().map(|&u| weights[u]).sum())
            .collect();
        Quotient {
            adj_vars,
            adj_elems: vec![Vec::new(); n],
            elem_vars: Vec::new(),
            elem_live: Vec::new(),
            state: vec![State::Live; n],
            weight: weights.to_vec(),
            members: vec![Vec::new(); n],
            degree,
            marker: vec![0; n],
            marker_val: 0,
        }
    }

    #[inline]
    fn live(&self, v: usize) -> bool {
        self.state[v] == State::Live
    }

    fn next_marker(&mut self) -> usize {
        self.marker_val += 1;
        self.marker_val
    }

    /// Drops dead/merged variables and absorbed elements from `v`'s
    /// adjacency, deduplicating both lists (elements end up sorted).
    fn clean(&mut self, v: usize) {
        let m = self.next_marker();
        let mut vars = std::mem::take(&mut self.adj_vars[v]);
        vars.retain(|&u| {
            if u != v && self.state[u] == State::Live && self.marker[u] != m {
                self.marker[u] = m;
                true
            } else {
                false
            }
        });
        self.adj_vars[v] = vars;
        let mut elems = std::mem::take(&mut self.adj_elems[v]);
        elems.sort_unstable();
        elems.dedup();
        elems.retain(|&e| self.elem_live[e]);
        self.adj_elems[v] = elems;
    }

    /// Eliminates `v`: forms the new element from `v`'s reach, absorbs
    /// the elements adjacent to `v`, and returns the boundary.
    fn eliminate(&mut self, v: usize) -> Vec<usize> {
        debug_assert!(self.live(v));
        self.clean(v);
        let m = self.next_marker();
        self.marker[v] = m;
        let mut boundary: Vec<usize> = Vec::new();
        for k in 0..self.adj_vars[v].len() {
            let u = self.adj_vars[v][k];
            // clean() deduplicated and filtered: u is live and distinct.
            self.marker[u] = m;
            boundary.push(u);
        }
        for k in 0..self.adj_elems[v].len() {
            let e = self.adj_elems[v][k];
            for t in 0..self.elem_vars[e].len() {
                let u = self.elem_vars[e][t];
                if u != v && self.state[u] == State::Live && self.marker[u] != m {
                    self.marker[u] = m;
                    boundary.push(u);
                }
            }
            self.elem_live[e] = false; // absorbed into the new element
        }
        let e = self.elem_vars.len();
        self.elem_vars.push(boundary.clone());
        self.elem_live.push(true);
        self.state[v] = State::Eliminated;
        for &u in &boundary {
            self.adj_elems[u].push(e);
        }
        boundary
    }

    /// Exact external degree of `v` by a read-only marker scan; assumes
    /// `clean(v)` ran and adjacent element boundaries hold live
    /// variables only (the per-pass batch clean).
    fn exact_degree(&mut self, v: usize) -> usize {
        let m = self.next_marker();
        self.marker[v] = m;
        let mut d = 0usize;
        for k in 0..self.adj_vars[v].len() {
            let u = self.adj_vars[v][k];
            // Merges since the last clean() may have left dead entries.
            if self.state[u] == State::Live && self.marker[u] != m {
                self.marker[u] = m;
                d += self.weight[u];
            }
        }
        for k in 0..self.adj_elems[v].len() {
            let e = self.adj_elems[v][k];
            for t in 0..self.elem_vars[e].len() {
                let u = self.elem_vars[e][t];
                if self.state[u] == State::Live && self.marker[u] != m {
                    self.marker[u] = m;
                    d += self.weight[u];
                }
            }
        }
        d
    }

    /// Amestoy–Davis–Duff upper-bound degree: no deduplication across
    /// element boundaries. Same preconditions as [`Self::exact_degree`].
    fn approx_degree(&mut self, v: usize) -> usize {
        let mut d: usize = self.adj_vars[v]
            .iter()
            .filter(|&&u| self.state[u] == State::Live)
            .map(|&u| self.weight[u])
            .sum();
        for k in 0..self.adj_elems[v].len() {
            let e = self.adj_elems[v][k];
            for t in 0..self.elem_vars[e].len() {
                let u = self.elem_vars[e][t];
                if u != v && self.state[u] == State::Live {
                    d += self.weight[u];
                }
            }
        }
        d
    }

    /// Merges indistinguishable variables among `candidates` under the
    /// start-of-step twin rule (module docs), with a cheap screen in
    /// front of the oracle's exact comparison: every candidate is cleaned
    /// and given a *commutative* hash of its closed adjacency (no clone,
    /// no sort) before anything merges, and only candidates sharing a
    /// hash pay for the exact signature. Each hash group is resolved in
    /// ascending candidate order on those same start-of-step lists, so
    /// the representative is the smallest member, as in the oracle.
    ///
    /// The caller's degree scans rely on the cleaning done here.
    fn merge_indistinguishable(&mut self, candidates: &[usize]) {
        fn mix(mut x: u64) -> u64 {
            // splitmix64 finalizer.
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        }
        let mut sigs: Vec<(u64, usize)> = Vec::with_capacity(candidates.len());
        for &v in candidates {
            self.clean(v);
            let mut hv = mix(v as u64);
            for &u in &self.adj_vars[v] {
                hv = hv.wrapping_add(mix(u as u64));
            }
            let mut he = mix(self.adj_elems[v].len() as u64 ^ 0x9e37_79b9_7f4a_7c15);
            for &e in &self.adj_elems[v] {
                he = he.wrapping_add(mix(e as u64 ^ 0x9e37_79b9_7f4a_7c15));
            }
            sigs.push((mix(hv ^ he.rotate_left(32)), v));
        }
        sigs.sort_unstable();
        let mut i = 0;
        while i < sigs.len() {
            let mut j = i + 1;
            while j < sigs.len() && sigs[j].0 == sigs[i].0 {
                j += 1;
            }
            if j - i >= 2 {
                self.merge_group(i, j, &sigs);
            }
            i = j;
        }
    }

    /// Oracle-style exact merge over `sigs[lo..hi]` (one hash group,
    /// ascending candidate order because the sort tie-breaks on the id).
    /// No re-clean: a twin merged a moment ago must stay in the lists.
    fn merge_group(&mut self, lo: usize, hi: usize, sigs: &[(u64, usize)]) {
        use std::collections::hash_map::Entry;
        use std::collections::HashMap;
        let mut exact: HashMap<(Vec<usize>, Vec<usize>), usize> = HashMap::new();
        for &(_, v) in &sigs[lo..hi] {
            let mut vars = self.adj_vars[v].clone();
            vars.push(v);
            vars.sort_unstable();
            let elems = self.adj_elems[v].clone(); // sorted by clean()
            match exact.entry((vars, elems)) {
                Entry::Vacant(slot) => {
                    slot.insert(v);
                }
                Entry::Occupied(slot) => {
                    let rep = *slot.get();
                    self.state[v] = State::Merged;
                    self.weight[rep] += self.weight[v];
                    let mut sub = std::mem::take(&mut self.members[v]);
                    self.members[rep].push(v);
                    self.members[rep].append(&mut sub);
                }
            }
        }
    }
}

/// Lazily-invalidated degree buckets: `bucket[d]` over-approximates the
/// live variables of degree `d`; entries are validated (and the bucket
/// compacted, sorted, deduplicated) when the bucket is scanned.
struct DegreeBuckets {
    bucket: Vec<Vec<usize>>,
    cur_min: usize,
}

impl DegreeBuckets {
    fn new(max_degree: usize) -> Self {
        DegreeBuckets {
            bucket: vec![Vec::new(); max_degree + 1],
            cur_min: 0,
        }
    }

    /// Grows on demand: the approximate degree is an upper bound that
    /// can exceed the total weight the array was sized for.
    #[inline]
    fn push(&mut self, v: usize, d: usize) {
        if d >= self.bucket.len() {
            self.bucket.resize(d + 1, Vec::new());
        }
        self.bucket[d].push(v);
        if d < self.cur_min {
            self.cur_min = d;
        }
    }

    /// Compacts `bucket[d]` to currently-valid entries in ascending
    /// variable order.
    fn compact(&mut self, d: usize, q: &Quotient) {
        let b = &mut self.bucket[d];
        b.retain(|&v| q.live(v) && q.degree[v] == d);
        b.sort_unstable();
        b.dedup();
    }

    /// Advances to the smallest non-empty valid degree. Panics if no
    /// live variable remains (callers loop while some do).
    fn min_degree(&mut self, q: &Quotient) -> usize {
        while self.cur_min < self.bucket.len() {
            self.compact(self.cur_min, q);
            if !self.bucket[self.cur_min].is_empty() {
                return self.cur_min;
            }
            self.cur_min += 1;
        }
        unreachable!("degree buckets exhausted while live variables remain")
    }
}

/// Runs weighted multiple minimum degree (or its approximate-degree
/// variant) on `pattern` with initial supervariable `weights`, returning
/// the elimination order of the (compressed) variables and the work
/// counters. With unit weights: the oracle's permutation and counters.
pub(crate) fn weighted_min_degree(
    pattern: &SymmetricPattern,
    weights: &[usize],
    delta: usize,
    approx: bool,
) -> (Vec<usize>, MdCounters) {
    let n = pattern.n();
    let mut counters = MdCounters::default();
    if n == 0 {
        return (Vec::new(), counters);
    }
    let total_weight: usize = weights.iter().sum();
    let mut q = Quotient::new(pattern, weights);
    let mut buckets = DegreeBuckets::new(total_weight);
    for v in 0..n {
        buckets.push(v, q.degree[v]);
    }

    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut eliminated = 0usize;
    let mut candidates: Vec<usize> = Vec::new();
    let mut touched: Vec<usize> = Vec::new();
    let mut pass_elems: Vec<usize> = Vec::new();
    // Degree-update groups keyed by packed element pair; element ids fit
    // u32 comfortably (at most one element per elimination).
    const NO_ELEM: u64 = u32::MAX as u64;
    let mut upd_groups: Vec<(u64, usize)> = Vec::new();

    while eliminated < n {
        counters.passes += 1;
        let mindeg = buckets.min_degree(&q);
        let hi = mindeg.saturating_add(delta).min(buckets.bucket.len() - 1);
        candidates.clear();
        candidates.extend_from_slice(&buckets.bucket[mindeg]);
        for d in (mindeg + 1)..=hi {
            buckets.compact(d, &q);
            candidates.extend_from_slice(&buckets.bucket[d]);
        }

        // Multiple elimination: skip candidates whose degree went stale
        // (adjacent to an earlier elimination of this pass).
        let pass_mark = q.next_marker();
        touched.clear();
        for &v in &candidates {
            if !q.live(v) || q.marker[v] == pass_mark {
                continue;
            }
            let boundary = q.eliminate(v);
            counters.eliminations += 1;
            order.push(v);
            eliminated += 1 + q.members[v].len();
            let members = std::mem::take(&mut q.members[v]);
            order.extend(members);
            for &u in &boundary {
                q.marker[u] = pass_mark;
                touched.push(u);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        touched.retain(|&u| q.live(u));

        // Merge indistinguishable variables among the touched set (the
        // merge cleans every live candidate itself), then clean each
        // adjacent element boundary exactly once so the degree scans
        // below are read-only. Variables merged away *during* the pass
        // linger in their neighbours' adjacency until the next clean;
        // the degree scans skip them by state.
        let live_before = touched.len() as u64;
        q.merge_indistinguishable(&touched);
        pass_elems.clear();
        let mut live_after = 0u64;
        for &u in touched.iter() {
            if q.live(u) {
                live_after += 1;
                pass_elems.extend_from_slice(&q.adj_elems[u]);
            }
        }
        counters.merges += live_before - live_after;
        pass_elems.sort_unstable();
        pass_elems.dedup();
        for &e in &pass_elems {
            let mut boundary = std::mem::take(&mut q.elem_vars[e]);
            boundary.retain(|&u| q.state[u] == State::Live);
            q.elem_vars[e] = boundary;
        }

        if approx {
            for &u in &touched {
                if !q.live(u) {
                    continue;
                }
                counters.degree_updates += 1;
                let d = q.approx_degree(u);
                q.degree[u] = d;
                buckets.push(u, d);
            }
        } else {
            // Exact degrees grouped by adjacent-element signature: most
            // updated variables sit on the boundary of one or two
            // elements, and variables sharing the same pair share the
            // same boundary union — mark and weigh that union once per
            // group, then each member pays only a scan of its direct
            // variable neighbours instead of re-walking every boundary.
            upd_groups.clear();
            for &u in &touched {
                if !q.live(u) {
                    continue;
                }
                counters.degree_updates += 1;
                let elems = &q.adj_elems[u];
                debug_assert!(elems.iter().all(|&e| e < NO_ELEM as usize));
                match *elems.as_slice() {
                    [] => {
                        // adj_vars[u] is clean (merge pass) up to
                        // same-pass merges, which the state check skips.
                        let mut d = 0usize;
                        for idx in 0..q.adj_vars[u].len() {
                            let a = q.adj_vars[u][idx];
                            if q.live(a) {
                                d += q.weight[a];
                            }
                        }
                        q.degree[u] = d;
                        buckets.push(u, d);
                    }
                    [e] => upd_groups.push(((e as u64) << 32 | NO_ELEM, u)),
                    [e1, e2] => upd_groups.push(((e1 as u64) << 32 | e2 as u64, u)),
                    _ => {
                        let d = q.exact_degree(u);
                        q.degree[u] = d;
                        buckets.push(u, d);
                    }
                }
            }
            upd_groups.sort_unstable();
            let mut i = 0;
            while i < upd_groups.len() {
                let key = upd_groups[i].0;
                let mut j = i + 1;
                while j < upd_groups.len() && upd_groups[j].0 == key {
                    j += 1;
                }
                let e1 = (key >> 32) as usize;
                let e2 = (key & 0xffff_ffff) as usize;
                let m = q.next_marker();
                let mut union_w = 0usize;
                for idx in 0..q.elem_vars[e1].len() {
                    let u = q.elem_vars[e1][idx];
                    if q.live(u) && q.marker[u] != m {
                        q.marker[u] = m;
                        union_w += q.weight[u];
                    }
                }
                if e2 != NO_ELEM as usize {
                    for idx in 0..q.elem_vars[e2].len() {
                        let u = q.elem_vars[e2][idx];
                        if q.live(u) && q.marker[u] != m {
                            q.marker[u] = m;
                            union_w += q.weight[u];
                        }
                    }
                }
                for &(_, v) in &upd_groups[i..j] {
                    // v lies on each of its elements' boundaries, so it
                    // is marked in the union; external degree drops it.
                    let mut d = union_w - q.weight[v];
                    for idx in 0..q.adj_vars[v].len() {
                        let a = q.adj_vars[v][idx];
                        if q.live(a) && q.marker[a] != m {
                            d += q.weight[a];
                        }
                    }
                    q.degree[v] = d;
                    buckets.push(v, d);
                }
                i = j;
            }
        }
    }
    debug_assert_eq!(order.len(), n);
    (order, counters)
}

/// `OrderEngine::Direct`: the driver on the pattern itself, unit weights.
pub(crate) fn direct_min_degree(
    pattern: &SymmetricPattern,
    delta: usize,
    approx: bool,
) -> (Permutation, MdCounters) {
    let (order, counters) = weighted_min_degree(pattern, &vec![1; pattern.n()], delta, approx);
    let perm = Permutation::from_vec(order).expect("every variable eliminated exactly once");
    (perm, counters)
}

/// Compressed-graph minimum degree end to end: analyze → weighted MD on
/// the quotient graph → expand. Returns the permutation, the
/// compression statistics, and the elimination counters.
pub(crate) fn compressed_min_degree(
    pattern: &SymmetricPattern,
    delta: usize,
    approx: bool,
) -> (Permutation, GraphCompression, MdCounters) {
    let gc = GraphCompression::analyze(pattern);
    let (order_c, counters) = weighted_min_degree(&gc.compressed, &gc.weights, delta, approx);
    let perm = gc.expand(&order_c);
    (perm, gc, counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmd::{elimination_fill, minimum_degree_counted, multiple_minimum_degree};
    use spfactor_matrix::gen;

    fn fill_under(pattern: &SymmetricPattern, perm: &Permutation) -> usize {
        elimination_fill(&pattern.permute(perm))
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
        assert_eq!(gc.weights, vec![6]);
        assert_eq!(gc.members(0), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(gc.ratio(), 6.0);
    }

    #[test]
    fn grid_laplacian_does_not_compress() {
        let p = gen::lap9(6, 6);
        let gc = GraphCompression::analyze(&p);
        assert_eq!(gc.n_compressed(), 36, "9-point grid nodes are distinct");
        assert_eq!(gc.compressed, p);
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
        assert_eq!(gc.weights.iter().sum::<usize>(), p.n());
    }

    #[test]
    fn expansion_is_a_valid_permutation() {
        let p = gen::grid5_fe(5, 5);
        let (perm, gc, _) = compressed_min_degree(&p, 0, false);
        assert_eq!(perm.len(), p.n());
        assert!(gc.ratio() >= 1.0);
    }

    #[test]
    fn weighted_md_with_unit_weights_matches_oracle() {
        // Permutation and counters, exact and approximate degrees; where
        // nothing compresses the whole compressed path agrees as well.
        for p in [
            gen::lap9(8, 8),
            gen::grid5(7, 5),
            gen::power_network(50, 9, 3),
        ] {
            for (delta, approx) in [(0, false), (1, false), (2, false), (0, true)] {
                let oracle = minimum_degree_counted(&p, delta, approx);
                assert_eq!(direct_min_degree(&p, delta, approx), oracle);
                let (perm, gc, counters) = compressed_min_degree(&p, delta, approx);
                if gc.n_compressed() == p.n() {
                    assert_eq!((perm, counters), oracle, "n = {}", p.n());
                }
            }
        }
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
            let (perm, _, _) = compressed_min_degree(&p, 0, false);
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
        let (a, _, _) = compressed_min_degree(&p, 0, false);
        let (b, _, _) = compressed_min_degree(&p, 0, false);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_and_tiny_patterns() {
        let empty = SymmetricPattern::from_edges(0, []);
        let (perm, gc, _) = compressed_min_degree(&empty, 0, false);
        assert_eq!(perm.len(), 0);
        assert_eq!(gc.ratio(), 1.0);
        let one = SymmetricPattern::from_edges(1, []);
        let (perm, _, _) = compressed_min_degree(&one, 0, false);
        assert_eq!(perm.len(), 1);
        // Two isolated vertices share the empty neighborhood *plus*
        // themselves — closed neighborhoods differ, so no merge.
        let two = SymmetricPattern::from_edges(2, []);
        let gc = GraphCompression::analyze(&two);
        assert_eq!(gc.n_compressed(), 2);
    }

    #[test]
    fn approx_variant_is_valid_and_deterministic() {
        let p = gen::grid5_fe(6, 6);
        let (a, _, _) = compressed_min_degree(&p, 0, true);
        let (b, _, _) = compressed_min_degree(&p, 0, true);
        assert_eq!(a, b);
        assert_eq!(a.len(), p.n());
    }
}
