//! Undirected graph with the derived operators GCN training needs.
//!
//! The graph is stored once as a symmetric CSR adjacency (unit weights, no
//! self-loops) plus the unique undirected edge list `(i < j)`. The GCN
//! propagation operator Â = D^-1/2 (A + I) D^-1/2 is derived on demand and
//! cached by callers (it is constant across a whole experiment).

use rdd_tensor::CsrMatrix;

/// An undirected, unweighted graph.
#[derive(Clone, Debug)]
pub struct Graph {
    n: usize,
    /// Symmetric 0/1 adjacency without self-loops.
    adj: CsrMatrix,
    /// Unique undirected edges with `i < j`.
    edges: Vec<(u32, u32)>,
}

impl Graph {
    /// Build from an edge list. Self-loops are dropped; duplicate and
    /// reversed pairs are merged. `n` is the number of nodes.
    pub fn from_edges(n: usize, raw_edges: &[(usize, usize)]) -> Self {
        let mut edges: Vec<(u32, u32)> = raw_edges
            .iter()
            .filter(|&&(a, b)| a != b)
            .map(|&(a, b)| {
                assert!(a < n && b < n, "edge ({a},{b}) out of bounds for n={n}");
                if a < b {
                    (a as u32, b as u32)
                } else {
                    (b as u32, a as u32)
                }
            })
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let mut triplets = Vec::with_capacity(edges.len() * 2);
        for &(a, b) in &edges {
            triplets.push((a as usize, b as usize, 1.0));
            triplets.push((b as usize, a as usize, 1.0));
        }
        let adj = CsrMatrix::from_triplets(n, n, &triplets);
        Self { n, adj, edges }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of unique undirected edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The unique undirected edge list (`i < j`).
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// The symmetric adjacency in CSR form (no self-loops).
    pub fn adjacency(&self) -> &CsrMatrix {
        &self.adj
    }

    /// Degree of node `i` (self-loops excluded).
    pub fn degree(&self, i: usize) -> usize {
        self.adj.row_nnz(i)
    }

    /// Neighbor ids of node `i`.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        self.adj.row(i).0
    }

    /// Whether `(a, b)` is an edge.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.adj.get(a, b) != 0.0
    }

    /// The symmetric GCN propagation operator
    /// `Â = D^-1/2 (A + I) D^-1/2` (Kipf & Welling renormalization trick).
    pub fn normalized_adjacency(&self) -> CsrMatrix {
        let mut triplets: Vec<(usize, usize, f32)> =
            Vec::with_capacity(self.edges.len() * 2 + self.n);
        // Degrees of A + I.
        let deg: Vec<f32> = (0..self.n).map(|i| (self.degree(i) + 1) as f32).collect();
        let inv_sqrt: Vec<f32> = deg.iter().map(|&d| 1.0 / d.sqrt()).collect();
        for &(a, b) in &self.edges {
            let (a, b) = (a as usize, b as usize);
            let w = inv_sqrt[a] * inv_sqrt[b];
            triplets.push((a, b, w));
            triplets.push((b, a, w));
        }
        #[allow(clippy::needless_range_loop)]
        for i in 0..self.n {
            triplets.push((i, i, inv_sqrt[i] * inv_sqrt[i]));
        }
        CsrMatrix::from_triplets(self.n, self.n, &triplets)
    }

    /// Random-walk transition matrix `D^-1 A` (used by label propagation).
    /// Dangling nodes get an empty row.
    pub fn transition_matrix(&self) -> CsrMatrix {
        self.adj.map_values(|r, _, v| {
            let d = self.degree(r) as f32;
            if d > 0.0 {
                v / d
            } else {
                0.0
            }
        })
    }

    /// PageRank by power iteration with damping `d` (the paper uses PageRank
    /// node importance in the ensemble weights, Eq. 12). Returns a
    /// probability vector.
    ///
    /// Dangling nodes redistribute their mass uniformly, so the result sums
    /// to 1 up to floating-point error.
    pub fn pagerank(&self, damping: f32, iterations: usize, tol: f32) -> Vec<f32> {
        let n = self.n;
        assert!(n > 0, "pagerank on empty graph");
        let uniform = 1.0 / n as f32;
        let mut rank = vec![uniform; n];
        // Incoming mass is P^T rank for the transition matrix P = D^-1 A.
        // A is symmetric, so P^T = A D^-1 has the adjacency's pattern with
        // entry (r, c) scaled by 1 / deg(c), and the walk is a row gather:
        // each node sums its neighbors' shares in column order. Dangling
        // nodes have empty columns in P^T, so
        // their mass is redistributed uniformly by hand.
        let transition_t = self.adj.map_values(|_, c, v| v / self.degree(c) as f32);
        let dangling_nodes: Vec<usize> = (0..n).filter(|&i| self.degree(i) == 0).collect();
        for _ in 0..iterations {
            let mut next = transition_t.spmv(&rank);
            let dangling: f32 = dangling_nodes.iter().map(|&i| rank[i]).sum();
            let base = (1.0 - damping) * uniform + damping * dangling * uniform;
            let mut delta = 0.0f32;
            for (i, nx) in next.iter_mut().enumerate() {
                *nx = base + damping * *nx;
                delta += (*nx - rank[i]).abs();
            }
            rank = next;
            if delta < tol {
                break;
            }
        }
        rank
    }

    /// Connected component id of each node (BFS labelling, ids are dense
    /// from 0 in discovery order).
    pub fn connected_components(&self) -> Vec<usize> {
        let mut comp = vec![usize::MAX; self.n];
        let mut next_id = 0;
        let mut queue = std::collections::VecDeque::new();
        for start in 0..self.n {
            if comp[start] != usize::MAX {
                continue;
            }
            comp[start] = next_id;
            queue.push_back(start);
            while let Some(u) = queue.pop_front() {
                for &v in self.neighbors(u) {
                    let v = v as usize;
                    if comp[v] == usize::MAX {
                        comp[v] = next_id;
                        queue.push_back(v);
                    }
                }
            }
            next_id += 1;
        }
        comp
    }

    /// Fraction of edges whose endpoints share a label (edge homophily).
    pub fn edge_homophily(&self, labels: &[usize]) -> f32 {
        assert_eq!(labels.len(), self.n);
        if self.edges.is_empty() {
            return 0.0;
        }
        let same = self
            .edges
            .iter()
            .filter(|&&(a, b)| labels[a as usize] == labels[b as usize])
            .count();
        same as f32 / self.edges.len() as f32
    }

    /// Average degree.
    pub fn avg_degree(&self) -> f32 {
        if self.n == 0 {
            0.0
        } else {
            2.0 * self.edges.len() as f32 / self.n as f32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Graph {
        // 0 - 1 - 2
        Graph::from_edges(3, &[(0, 1), (1, 2)])
    }

    #[test]
    fn dedups_and_symmetrizes() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 2)]);
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(2, 2), "self-loop dropped");
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = path3();
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn normalized_adjacency_rows() {
        let g = path3();
        let a = g.normalized_adjacency();
        // Node 0: deg+1 = 2, node 1: deg+1 = 3.
        let d0 = 2.0f32;
        let d1 = 3.0f32;
        assert!((a.get(0, 0) - 1.0 / d0).abs() < 1e-6);
        assert!((a.get(0, 1) - 1.0 / (d0 * d1).sqrt()).abs() < 1e-6);
        assert!((a.get(1, 1) - 1.0 / d1).abs() < 1e-6);
        assert_eq!(a.get(0, 2), 0.0);
        // Symmetry.
        assert!((a.get(0, 1) - a.get(1, 0)).abs() < 1e-7);
    }

    #[test]
    fn pagerank_is_distribution_and_ranks_hub_highest() {
        // Star: 0 is the hub.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let pr = g.pagerank(0.85, 100, 1e-9);
        let sum: f32 = pr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "pagerank sums to {sum}");
        for i in 1..5 {
            assert!(pr[0] > pr[i], "hub must outrank leaf {i}");
        }
    }

    #[test]
    fn pagerank_uniform_on_cycle() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let pr = g.pagerank(0.85, 200, 1e-10);
        for &p in &pr {
            assert!((p - 0.25).abs() < 1e-4);
        }
    }

    #[test]
    fn pagerank_handles_dangling_nodes() {
        let g = Graph::from_edges(3, &[(0, 1)]); // node 2 isolated
        let pr = g.pagerank(0.85, 100, 1e-9);
        let sum: f32 = pr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert!(pr[2] > 0.0);
    }

    #[test]
    fn components_found() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let c = g.connected_components();
        assert_eq!(c[0], c[1]);
        assert_eq!(c[1], c[2]);
        assert_eq!(c[3], c[4]);
        assert_ne!(c[0], c[3]);
    }

    #[test]
    fn homophily_counts_same_label_edges() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let labels = [0, 0, 1, 1];
        let h = g.edge_homophily(&labels);
        assert!((h - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn transition_matrix_rows_sum_to_one() {
        let g = path3();
        let t = g.transition_matrix();
        for (i, s) in t.row_sums().iter().enumerate() {
            assert!((s - 1.0).abs() < 1e-6, "row {i} sums to {s}");
        }
    }
}
