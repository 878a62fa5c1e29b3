//! Shared per-dataset training context, and the receptive-field blocks
//! that let an eval forward compute only the rows a reader needs.

use std::cell::RefCell;
use std::rc::Rc;

use rdd_graph::Dataset;
use rdd_tensor::{CsrMatrix, Rng};

/// Time spent building receptive-field blocks (once per row set and hop
/// count; near-free when tracing is off).
static SPAN_BLOCK: rdd_obs::SpanCell = rdd_obs::SpanCell::new("block_build");
/// Input-feature dropout time (every training epoch).
static SPAN_DROPOUT_FEATURES: rdd_obs::SpanCell = rdd_obs::SpanCell::new("dropout_features");

/// Â and X restricted to the receptive field of a [`RowSet`], `hops`
/// propagation steps deep (the DGL "blocks" of a sampled minibatch, with
/// every neighbor kept).
///
/// Hop 0 is the row set itself; hop `h + 1` is hop `h` plus every column
/// Â stores in a hop-`h` row. Each hop lists its nodes in ascending order,
/// and a block matrix renumbers its columns to positions in the next hop,
/// so every kept row holds its nonzeros in Â's order. A gather product over
/// a block row therefore sums exactly what the full product sums for that
/// node: the block's outputs are the full outputs' rows, bit for bit.
pub struct Block {
    /// One matrix per propagation step, outermost first: `adj[l]` is Â
    /// restricted to hop `hops − l − 1`'s rows and hop `hops − l`'s
    /// columns, so a model's layer `l` multiplies by `adj[l]`.
    pub adj: Vec<Rc<CsrMatrix>>,
    /// X restricted to the outermost hop's rows (the rows themselves for
    /// zero hops).
    pub features: Rc<CsrMatrix>,
}

/// A set of graph rows, ascending, and its receptive-field [`Block`]s,
/// each built on first use. Get one from [`GraphContext::row_set`] or
/// [`GraphContext::all_rows`].
pub struct RowSet {
    rows: Rc<Vec<usize>>,
    /// Every row of the graph: blocks are Â and X themselves.
    all: bool,
    /// The context's Â and X, which the blocks restrict.
    a_hat: Rc<CsrMatrix>,
    features: Rc<CsrMatrix>,
    blocks: RefCell<Vec<(usize, Rc<Block>)>>,
}

impl RowSet {
    /// The rows, ascending and distinct: eval row `r` answers node
    /// `rows()[r]`.
    pub fn rows(&self) -> &Rc<Vec<usize>> {
        &self.rows
    }

    /// Whether the set covers every row of the graph (in order).
    pub fn is_all(&self) -> bool {
        self.all
    }

    /// The block `hops` deep, built on the first request for that depth.
    pub fn block(&self, hops: usize) -> Rc<Block> {
        if let Some((_, b)) = self.blocks.borrow().iter().find(|(h, _)| *h == hops) {
            return Rc::clone(b);
        }
        let block = Rc::new(if self.all {
            Block {
                adj: vec![Rc::clone(&self.a_hat); hops],
                features: Rc::clone(&self.features),
            }
        } else {
            self.build_block(hops)
        });
        self.blocks.borrow_mut().push((hops, Rc::clone(&block)));
        block
    }

    /// Walk `hops` steps out from the rows and restrict Â and X.
    fn build_block(&self, hops: usize) -> Block {
        let _span = SPAN_BLOCK.enter();
        let a = &self.a_hat;
        // `pos[v]` is node v's position in the hop being built, or u32::MAX.
        let mut pos = vec![u32::MAX; a.rows()];
        let mut inner: Vec<usize> = self.rows.to_vec();
        let mut adj = Vec::with_capacity(hops);
        for _ in 0..hops {
            let mut outer: Vec<usize> = inner.clone();
            for &v in &inner {
                pos[v] = 0;
            }
            for &i in &inner {
                for &c in a.row(i).0 {
                    if pos[c as usize] == u32::MAX {
                        pos[c as usize] = 0;
                        outer.push(c as usize);
                    }
                }
            }
            outer.sort_unstable();
            for (p, &v) in outer.iter().enumerate() {
                pos[v] = p as u32;
            }
            let mut indptr = Vec::with_capacity(inner.len() + 1);
            indptr.push(0);
            let (mut indices, mut values) = (Vec::new(), Vec::new());
            for &i in &inner {
                let (cols, vals) = a.row(i);
                indices.extend(cols.iter().map(|&c| pos[c as usize]));
                values.extend_from_slice(vals);
                indptr.push(indices.len());
            }
            for &v in &outer {
                pos[v] = u32::MAX;
            }
            adj.push(Rc::new(CsrMatrix::from_csr(
                inner.len(),
                outer.len(),
                indptr,
                indices,
                values,
            )));
            inner = outer;
        }
        adj.reverse();
        Block {
            adj,
            features: Rc::new(self.features.select_rows(&inner)),
        }
    }
}

/// Everything constant across a training run: the renormalized adjacency Â
/// and the sparse feature matrix X, both shared into tapes by `Rc`, plus
/// the [`RowSet`]s built over them so far.
#[derive(Clone)]
pub struct GraphContext {
    /// Renormalized propagation operator Â.
    pub a_hat: Rc<CsrMatrix>,
    /// Sparse node features X.
    pub features: Rc<CsrMatrix>,
    /// Number of nodes.
    pub n: usize,
    /// Feature dimensionality.
    pub in_dim: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Row sets handed out so far, so a set's blocks are built once per
    /// context (the cascade trains every member against one context).
    row_sets: RefCell<Vec<Rc<RowSet>>>,
}

impl GraphContext {
    /// Precompute the context of `dataset`.
    pub fn new(dataset: &Dataset) -> Self {
        Self {
            a_hat: Rc::new(dataset.graph.normalized_adjacency()),
            features: Rc::new(dataset.features.clone()),
            n: dataset.n(),
            in_dim: dataset.num_features(),
            num_classes: dataset.num_classes,
            row_sets: RefCell::new(Vec::new()),
        }
    }

    /// The [`RowSet`] of `rows` (any order; duplicates are dropped),
    /// shared with every earlier request for the same set.
    pub fn row_set(&self, rows: &[usize]) -> Rc<RowSet> {
        let mut sorted = rows.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert!(
            sorted.last().is_none_or(|&r| r < self.n),
            "row set names a row outside the graph"
        );
        if let Some(set) = self.row_sets.borrow().iter().find(|s| *s.rows == sorted) {
            return Rc::clone(set);
        }
        let all = sorted.len() == self.n;
        let set = Rc::new(RowSet {
            rows: Rc::new(sorted),
            all,
            a_hat: Rc::clone(&self.a_hat),
            features: Rc::clone(&self.features),
            blocks: RefCell::new(Vec::new()),
        });
        self.row_sets.borrow_mut().push(Rc::clone(&set));
        set
    }

    /// The [`RowSet`] of every row: its blocks are Â and X themselves, so
    /// an eval over it is the full-graph forward.
    pub fn all_rows(&self) -> Rc<RowSet> {
        if let Some(set) = self.row_sets.borrow().iter().find(|s| s.all) {
            return Rc::clone(set);
        }
        self.row_set(&(0..self.n).collect::<Vec<_>>())
    }

    /// Inverted dropout over the stored entries of the sparse feature
    /// matrix (the reference GCN also drops input features). Entries are
    /// dropped with probability `p` and survivors scaled by `1/(1-p)`.
    ///
    /// Dropped entries are *compacted out* of the returned matrix rather
    /// than stored as explicit zeros, so the layer-1 spmm only walks the
    /// survivors — at `p = 0.5` that halves the single largest kernel of
    /// every training epoch (forward and backward). The rng is consulted
    /// once per stored entry in row-major order, the same stream a
    /// zero-keeping `map_values` implementation would draw.
    pub fn dropout_features(&self, p: f32, rng: &mut Rng) -> Rc<CsrMatrix> {
        if p <= 0.0 {
            return Rc::clone(&self.features);
        }
        let _span = SPAN_DROPOUT_FEATURES.enter();
        let keep = 1.0 - p;
        let scale = 1.0 / keep;
        let (n, d) = self.features.shape();
        let nnz = self.features.nnz();
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices = vec![0u32; nnz];
        let mut values = vec![0.0f32; nnz];
        indptr.push(0);
        // All coin flips first, in one vectorized draw into `values` (1.0
        // keeps an entry); then branchless compaction: write every entry,
        // advance the cursor only for survivors. The flips are ~50/50, so
        // a conditional push would mispredict on nearly half the nnz. The
        // cursor never passes the entry being read, so each flip is read
        // before its slot is overwritten.
        rng.keep_mask(keep, 1.0, &mut values);
        let mut len = 0usize;
        let mut e = 0usize;
        for i in 0..n {
            let (cols, vals) = self.features.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                let kept = values[e] != 0.0;
                indices[len] = c;
                values[len] = v * scale;
                len += usize::from(kept);
                e += 1;
            }
            indptr.push(len);
        }
        indices.truncate(len);
        values.truncate(len);
        Rc::new(CsrMatrix::from_csr(n, d, indptr, indices, values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdd_graph::SynthConfig;
    use rdd_tensor::seeded_rng;

    #[test]
    fn context_shapes() {
        let d = SynthConfig::tiny().generate();
        let ctx = GraphContext::new(&d);
        assert_eq!(ctx.n, 300);
        assert_eq!(ctx.in_dim, 64);
        assert_eq!(ctx.num_classes, 3);
        assert_eq!(ctx.a_hat.shape(), (300, 300));
        assert_eq!(ctx.features.shape(), (300, 64));
    }

    #[test]
    fn feature_dropout_preserves_expectation() {
        let d = SynthConfig::tiny().generate();
        let ctx = GraphContext::new(&d);
        let mut rng = seeded_rng(5);
        let dropped = ctx.dropout_features(0.5, &mut rng);
        let orig_sum: f32 = ctx.features.row_sums().iter().sum();
        let drop_sum: f32 = dropped.row_sums().iter().sum();
        assert!(
            (drop_sum - orig_sum).abs() / orig_sum < 0.1,
            "sum {drop_sum} vs {orig_sum}"
        );
        // Dropped entries are compacted out, not stored as zeros.
        assert!(
            dropped.nnz() < ctx.features.nnz(),
            "dropout kept all {} entries",
            dropped.nnz()
        );
        let (n, _) = dropped.shape();
        for i in 0..n {
            let (_, vals) = dropped.row(i);
            assert!(vals.iter().all(|&v| v != 0.0), "explicit zero in row {i}");
        }
    }

    #[test]
    fn zero_dropout_shares_matrix() {
        let d = SynthConfig::tiny().generate();
        let ctx = GraphContext::new(&d);
        let mut rng = seeded_rng(5);
        let same = ctx.dropout_features(0.0, &mut rng);
        assert!(Rc::ptr_eq(&same, &ctx.features));
    }
}
