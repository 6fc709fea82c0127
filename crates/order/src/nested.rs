//! Recursive nested dissection ordering.
//!
//! A generic (graph-based, not geometry-based) nested dissection: split
//! each component with a BFS level-structure separator from a
//! pseudo-peripheral vertex, number the two halves recursively, then the
//! separator last. Small subgraphs fall back to minimum degree.

use spfactor_matrix::{Graph, Permutation, SymmetricPattern};

/// Subgraphs at or below this size are ordered with MMD instead of being
/// dissected further.
const LEAF_SIZE: usize = 16;

/// Computes a nested dissection permutation (`perm[new] = old`).
pub fn nested_dissection(pattern: &SymmetricPattern) -> Permutation {
    let n = pattern.n();
    let g = pattern.to_graph();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let all: Vec<usize> = (0..n).collect();
    dissect(&g, &all, &mut order);
    debug_assert_eq!(order.len(), n);
    Permutation::from_vec(order).expect("dissection numbers every vertex once")
}

/// Recursively orders the vertices of `verts` (a union of components of
/// the induced subgraph), appending to `order`.
fn dissect(g: &Graph, verts: &[usize], order: &mut Vec<usize>) {
    if verts.is_empty() {
        return;
    }
    if verts.len() <= LEAF_SIZE {
        order_leaf(g, verts, order);
        return;
    }
    // Induced-subgraph membership.
    let member: std::collections::HashSet<usize> = verts.iter().copied().collect();

    // BFS level structure from a pseudo-peripheral vertex of the first
    // component found.
    let root = pseudo_peripheral_in(g, verts[0], &member);
    let levels = bfs_levels_in(g, root, &member);
    let max_level = levels.values().copied().max().unwrap_or(0);

    // Unreached vertices (other components): dissect them independently.
    let unreached: Vec<usize> = verts
        .iter()
        .copied()
        .filter(|v| !levels.contains_key(v))
        .collect();

    if max_level < 2 {
        // Too shallow to split: order directly.
        let reached: Vec<usize> = verts
            .iter()
            .copied()
            .filter(|v| levels.contains_key(v))
            .collect();
        order_leaf(g, &reached, order);
        dissect(g, &unreached, order);
        return;
    }

    let mid = max_level / 2;
    let mut part_a: Vec<usize> = Vec::new();
    let mut part_b: Vec<usize> = Vec::new();
    let mut sep: Vec<usize> = Vec::new();
    for &v in verts {
        match levels.get(&v) {
            Some(&l) if l < mid => part_a.push(v),
            Some(&l) if l == mid => sep.push(v),
            Some(_) => part_b.push(v),
            None => {}
        }
    }
    dissect(g, &part_a, order);
    dissect(g, &part_b, order);
    dissect(g, &unreached, order);
    // Separator last.
    order_leaf(g, &sep, order);
}

/// Orders a small vertex set with MMD on its induced subgraph.
fn order_leaf(g: &Graph, verts: &[usize], order: &mut Vec<usize>) {
    if verts.len() <= 1 {
        order.extend_from_slice(verts);
        return;
    }
    // Build the induced subgraph with local ids.
    let mut local = std::collections::HashMap::with_capacity(verts.len());
    for (k, &v) in verts.iter().enumerate() {
        local.insert(v, k);
    }
    let mut edges = Vec::new();
    for (k, &v) in verts.iter().enumerate() {
        for &w in g.neighbors(v) {
            if let Some(&m) = local.get(&w) {
                if m > k {
                    edges.push((m, k));
                }
            }
        }
    }
    let sub = SymmetricPattern::from_edges(verts.len(), edges);
    // The driver itself, not `crate::order`: leaves are part of this
    // ordering, not orderings of their own, and record nothing.
    let (perm, ..) = crate::compress::direct_min_degree(&sub, 0);
    for new in 0..verts.len() {
        order.push(verts[perm.old_of(new)]);
    }
}

fn bfs_levels_in(
    g: &Graph,
    root: usize,
    member: &std::collections::HashSet<usize>,
) -> std::collections::HashMap<usize, usize> {
    let mut level = std::collections::HashMap::new();
    let mut queue = std::collections::VecDeque::new();
    level.insert(root, 0usize);
    queue.push_back(root);
    while let Some(v) = queue.pop_front() {
        let l = level[&v];
        for &w in g.neighbors(v) {
            if member.contains(&w) && !level.contains_key(&w) {
                level.insert(w, l + 1);
                queue.push_back(w);
            }
        }
    }
    level
}

fn pseudo_peripheral_in(
    g: &Graph,
    start: usize,
    member: &std::collections::HashSet<usize>,
) -> usize {
    let mut v = start;
    let mut ecc = 0usize;
    loop {
        let levels = bfs_levels_in(g, v, member);
        let (&far, &e) = levels
            .iter()
            .max_by_key(|&(&w, &l)| (l, std::cmp::Reverse(w)))
            .expect("level structure non-empty");
        if e > ecc {
            ecc = e;
            v = far;
        } else {
            return v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmd::elimination_fill;
    use spfactor_matrix::gen;

    #[test]
    fn nd_is_a_valid_permutation() {
        let p = gen::lap9(9, 9);
        assert_eq!(nested_dissection(&p).len(), 81);
    }

    #[test]
    fn nd_is_deterministic() {
        let p = gen::grid5(8, 8);
        assert_eq!(nested_dissection(&p), nested_dissection(&p));
    }

    #[test]
    fn nd_reduces_fill_on_grid() {
        let p = gen::grid5(12, 12);
        let natural = elimination_fill(&p);
        let nd = elimination_fill(&p.permute(&nested_dissection(&p)));
        assert!(nd < natural, "ND fill {nd} vs natural {natural}");
    }

    #[test]
    fn nd_handles_small_and_disconnected() {
        let p = SymmetricPattern::from_edges(5, [(1, 0), (4, 3)]);
        assert_eq!(nested_dissection(&p).len(), 5);
        let p = SymmetricPattern::from_edges(2, [(1, 0)]);
        assert_eq!(nested_dissection(&p).len(), 2);
        let p = SymmetricPattern::from_edges(0, []);
        assert_eq!(nested_dissection(&p).len(), 0);
    }

    #[test]
    fn nd_on_large_disconnected_graph() {
        // Two 6x6 grids side by side with no connection.
        let a = gen::grid5(6, 6);
        let edges: Vec<(usize, usize)> = a
            .iter_entries()
            .flat_map(|(i, j)| [(i, j), (i + 36, j + 36)])
            .collect();
        let p = SymmetricPattern::from_edges(72, edges);
        assert_eq!(nested_dissection(&p).len(), 72);
    }
}
