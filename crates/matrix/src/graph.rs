//! Adjacency-graph view of a symmetric matrix.
//!
//! The ordering algorithms (minimum degree, Cuthill-McKee, nested
//! dissection) operate on the undirected graph whose vertices are the
//! matrix rows/columns and whose edges are the off-diagonal nonzeros.

/// Undirected graph in CSR adjacency form. Neighbour lists are sorted and
/// contain no self loops or duplicates; every edge appears in both endpoint
/// lists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    xadj: Vec<usize>,
    adj: Vec<usize>,
}

impl Graph {
    /// Builds a graph from undirected edges. Self loops are dropped,
    /// duplicates merged.
    pub fn from_edges<I: IntoIterator<Item = (usize, usize)>>(n: usize, edges: I) -> Self {
        let mut nbrs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (a, b) in edges {
            assert!(a < n && b < n, "edge ({a}, {b}) out of bounds for n = {n}");
            if a == b {
                continue;
            }
            nbrs[a].push(b);
            nbrs[b].push(a);
        }
        let mut xadj = Vec::with_capacity(n + 1);
        let mut adj = Vec::new();
        xadj.push(0);
        for l in &mut nbrs {
            l.sort_unstable();
            l.dedup();
            adj.extend_from_slice(l);
            xadj.push(adj.len());
        }
        Graph { n, xadj, adj }
    }

    /// The graph of a canonical strict-lower CSC structure (ascending,
    /// duplicate-free rows `> j` per column) in two flat passes: count,
    /// then fill. Column `j` receives its smaller neighbours from the
    /// columns before it and appends its own rows, so every list comes
    /// out sorted without a sort.
    pub(crate) fn from_lower_csc(n: usize, colptr: &[usize], rowidx: &[usize]) -> Self {
        let mut xadj = vec![0usize; n + 1];
        for j in 0..n {
            let rows = &rowidx[colptr[j]..colptr[j + 1]];
            xadj[j + 1] += rows.len();
            for &i in rows {
                xadj[i + 1] += 1;
            }
        }
        for v in 0..n {
            xadj[v + 1] += xadj[v];
        }
        let mut next = xadj.clone();
        let mut adj = vec![0usize; 2 * rowidx.len()];
        for j in 0..n {
            for &i in &rowidx[colptr[j]..colptr[j + 1]] {
                adj[next[j]] = i;
                next[j] += 1;
                adj[next[i]] = j;
                next[i] += 1;
            }
        }
        Graph { n, xadj, adj }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adj.len() / 2
    }

    /// Sorted neighbour list of vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adj[self.xadj[v]..self.xadj[v + 1]]
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }

    /// `true` if `a` and `b` are adjacent.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Connected components; returns `comp[v] = component id` and the
    /// number of components. Ids are assigned in order of the smallest
    /// vertex in each component.
    pub fn components(&self) -> (Vec<usize>, usize) {
        let mut comp = vec![usize::MAX; self.n];
        let mut nc = 0;
        let mut stack = Vec::new();
        for s in 0..self.n {
            if comp[s] != usize::MAX {
                continue;
            }
            comp[s] = nc;
            stack.push(s);
            while let Some(v) = stack.pop() {
                for &w in self.neighbors(v) {
                    if comp[w] == usize::MAX {
                        comp[w] = nc;
                        stack.push(w);
                    }
                }
            }
            nc += 1;
        }
        (comp, nc)
    }

    /// `true` if the graph is connected (vacuously true for `n <= 1`).
    pub fn is_connected(&self) -> bool {
        self.components().1 <= 1
    }

    /// Breadth-first levels from `root`: `level[v]` (or `usize::MAX` if
    /// unreachable), plus the vertices in BFS order.
    pub fn bfs_levels(&self, root: usize) -> (Vec<usize>, Vec<usize>) {
        let mut level = vec![usize::MAX; self.n];
        let mut order = Vec::with_capacity(self.n);
        let mut queue = std::collections::VecDeque::new();
        level[root] = 0;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &w in self.neighbors(v) {
                if level[w] == usize::MAX {
                    level[w] = level[v] + 1;
                    queue.push_back(w);
                }
            }
        }
        (level, order)
    }

    /// A pseudo-peripheral vertex of the component containing `start`,
    /// found by the usual alternating-BFS heuristic (George & Liu).
    pub fn pseudo_peripheral(&self, start: usize) -> usize {
        let mut v = start;
        let (mut level, mut order) = self.bfs_levels(v);
        let mut ecc = order.last().map(|&w| level[w]).unwrap_or(0);
        loop {
            // Candidate: minimum-degree vertex in the last BFS level.
            let last = *order.last().unwrap();
            let far = level[last];
            let cand = order
                .iter()
                .rev()
                .take_while(|&&w| level[w] == far)
                .copied()
                .min_by_key(|&w| self.degree(w))
                .unwrap();
            let (l2, o2) = self.bfs_levels(cand);
            let e2 = o2.last().map(|&w| l2[w]).unwrap_or(0);
            if e2 > ecc {
                v = cand;
                ecc = e2;
                level = l2;
                order = o2;
            } else {
                return v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, (1..n).map(|i| (i - 1, i)))
    }

    #[test]
    fn from_edges_symmetric_sorted() {
        let g = Graph::from_edges(4, [(3, 1), (0, 2), (1, 0)]);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 3]);
        assert_eq!(g.neighbors(2), &[0]);
        assert_eq!(g.neighbors(3), &[1]);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn duplicate_and_self_edges_normalized() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (2, 2)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn has_edge_works() {
        let g = path(3);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn components_of_disconnected_graph() {
        let g = Graph::from_edges(5, [(0, 1), (3, 4)]);
        let (comp, nc) = g.components();
        assert_eq!(nc, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[2]);
        assert_ne!(comp[2], comp[3]);
        assert!(!g.is_connected());
    }

    #[test]
    fn bfs_levels_on_path() {
        let g = path(4);
        let (level, order) = g.bfs_levels(0);
        assert_eq!(level, vec![0, 1, 2, 3]);
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn pseudo_peripheral_of_path_is_an_end() {
        let g = path(10);
        let v = g.pseudo_peripheral(5);
        assert!(v == 0 || v == 9, "got {v}");
    }

    #[test]
    fn pseudo_peripheral_single_vertex() {
        let g = Graph::from_edges(1, std::iter::empty());
        assert_eq!(g.pseudo_peripheral(0), 0);
    }

    #[test]
    fn to_graph_equals_the_from_edges_route_on_every_generator() {
        use crate::gen;
        let mut patterns = vec![
            gen::grid5(7, 5),
            gen::lap9(9, 6),
            gen::grid5_fe(4, 5),
            gen::grid7(3, 4, 5),
            gen::lshape(6),
            gen::frame_shell(4, 7),
            gen::power_network(150, 20, 3),
            gen::random_geometric(120, 0.13, 5),
            gen::paper::fig2_grid().pattern,
            gen::paper::lap_grid(12).pattern,
            crate::SymmetricPattern::from_edges(0, []),
            crate::SymmetricPattern::from_edges(3, []),
        ];
        patterns.extend(gen::paper::all().into_iter().map(|m| m.pattern));
        for p in patterns {
            let via_edges = Graph::from_edges(p.n(), p.iter_entries());
            assert_eq!(p.to_graph(), via_edges, "n = {}", p.n());
        }
    }

    #[test]
    fn pattern_to_graph_round_trip() {
        use crate::SymmetricPattern;
        let p = SymmetricPattern::from_edges(4, [(1, 0), (2, 0), (3, 2)]);
        let g = p.to_graph();
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 3));
    }
}
