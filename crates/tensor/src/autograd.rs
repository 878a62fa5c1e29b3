//! Tape-based reverse-mode automatic differentiation.
//!
//! The engine is a classic Wengert list: every operation eagerly computes its
//! forward value and appends a node recording its inputs; [`Tape::backward`]
//! then walks the list in reverse, accumulating gradients. The op set is
//! exactly what GCN-family models and the RDD losses need — nothing more.
//!
//! Sparse matrices (the normalized adjacency Â and the feature matrix X) are
//! *constants* of the computation, shared into the tape via `Rc<CsrMatrix>`;
//! only dense values are differentiated through.
//!
//! Gradient correctness for every op is checked against central finite
//! differences in this module's tests and, property-based, in
//! `tests/grad_check.rs` of this crate.

use std::rc::Rc;

use crate::rng::Rng;

use crate::matrix::{log_softmax_in_place, softmax_in_place, Matrix};
use crate::simd;
use crate::sparse::CsrMatrix;
use crate::workspace::Workspace;

/// Forward and backward time of the fused masked cross-entropy.
static SPAN_CE: rdd_obs::SpanCell = rdd_obs::SpanCell::new("ce_masked");
/// Forward time of the activation and hidden-dropout ops.
static SPAN_RELU: rdd_obs::SpanCell = rdd_obs::SpanCell::new("relu");
static SPAN_DROPOUT: rdd_obs::SpanCell = rdd_obs::SpanCell::new("dropout");

/// Handle to a node on the tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

enum Op {
    /// Input or parameter. `param` is the caller's parameter slot, used to
    /// export gradients after `backward`.
    Leaf { param: Option<usize> },
    /// Dense product `a @ b`.
    Matmul(Var, Var),
    /// Sparse-constant product `sp @ x`. `symmetric` selects the cheaper
    /// backward (`sp^T == sp` holds for the normalized adjacency).
    Spmm {
        sp: Rc<CsrMatrix>,
        x: Var,
        symmetric: bool,
    },
    /// Element-wise sum of two same-shaped matrices.
    Add(Var, Var),
    /// Rectified linear unit.
    Relu(Var),
    /// Inverted dropout; `mask` entries are `0` or `1/(1-p)`.
    Dropout { x: Var, mask: Vec<f32> },
    /// Scalar multiple.
    Scale(Var, f32),
    /// Column-wise concatenation.
    ConcatCols(Vec<Var>),
    /// The rows `rows` of `x`, stacked in that order.
    TakeRows { x: Var, rows: Rc<Vec<usize>> },
    /// Row-wise log-softmax.
    LogSoftmax(Var),
    /// Row-wise softmax.
    Softmax(Var),
    /// Exponential linear unit with `alpha = 1`.
    Elu(Var),
    /// Single-head graph attention (Veličković et al. 2018):
    /// `out_i = Σ_{j∈N(i)} α_ij · h_j` with
    /// `α_ij = softmax_j(LeakyReLU(a_l·h_i + a_r·h_j))`.
    /// `adj` fixes the neighborhood structure (self-loops included);
    /// `alpha` and `z` cache the per-edge coefficients (aligned with the
    /// CSR entry order) for the backward pass.
    GraphAttention {
        adj: Rc<CsrMatrix>,
        h: Var,
        a_l: Var,
        a_r: Var,
        slope: f32,
        alpha: Vec<f32>,
        z: Vec<f32>,
    },
    /// Mean cross-entropy over `idx`:
    /// `-(1/|idx|) Σ log_softmax(logits)[i, y_i]`. `logp` holds the
    /// log-softmax of the `idx` rows, one row per `idx` entry.
    CeMasked {
        logits: Var,
        labels: Rc<Vec<usize>>,
        idx: Rc<Vec<usize>>,
        logp: Matrix,
    },
    /// Mean squared row distance to a constant target over `idx`:
    /// `(1/|idx|) Σ ‖x_i − t_i‖²`. This is RDD's L2 distillation loss.
    MseRows {
        x: Var,
        target: Rc<Matrix>,
        idx: Rc<Vec<usize>>,
    },
    /// Soft-label cross-entropy over `idx`:
    /// `-(1/|idx|) Σ_i Σ_c T[i,c] · logp[i,c]` with a constant target
    /// distribution `T` (teacher softmax). Hinton-style distillation.
    SoftCeMasked {
        logp: Var,
        target: Rc<Matrix>,
        idx: Rc<Vec<usize>>,
    },
    /// Weighted mean squared difference across edges:
    /// `(1/Σw) Σ_{(i,j)} w_ij · ‖x_i − x_j‖²`. This is RDD's reliable-edge
    /// Laplacian regularizer, with degree-normalized weights
    /// (`w_ij = 1/√(d_i·d_j)`).
    EdgeReg {
        x: Var,
        edges: Rc<Vec<(u32, u32)>>,
        weights: Rc<Vec<f32>>,
    },
}

struct Node {
    value: Matrix,
    op: Op,
}

/// A single forward computation. Build one per training step.
///
/// A tape built with [`Tape::with_workspace`] draws every node value and
/// every backward gradient accumulator from the workspace pool and returns
/// them on drop, so steady-state epochs run without allocator traffic. A
/// plain [`Tape::new`] allocates freshly — both produce bitwise-identical
/// numerics (recycled buffers are always zero-filled or copy-overwritten
/// before use).
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    ws: Option<Workspace>,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty tape whose buffers come from (and return to) `ws`.
    pub fn with_workspace(ws: &Workspace) -> Self {
        Self {
            nodes: Vec::new(),
            ws: Some(ws.clone()),
        }
    }

    /// A `rows x cols` zero matrix, pooled when a workspace is attached.
    fn alloc_zeros(&self, rows: usize, cols: usize) -> Matrix {
        match &self.ws {
            Some(ws) => ws.take_zeroed(rows, cols),
            None => Matrix::zeros(rows, cols),
        }
    }

    /// A `rows x cols` matrix whose every element the caller overwrites.
    fn alloc_uninit(&self, rows: usize, cols: usize) -> Matrix {
        match &self.ws {
            Some(ws) => ws.take_uninit(rows, cols),
            None => Matrix::zeros(rows, cols),
        }
    }

    /// A copy of `src`, pooled when a workspace is attached.
    fn alloc_copy(&self, src: &Matrix) -> Matrix {
        match &self.ws {
            Some(ws) => ws.take_copy(src),
            None => src.clone(),
        }
    }

    /// A `1 x 1` matrix holding `v` (loss nodes and the backward seed).
    fn alloc_scalar(&self, v: f32) -> Matrix {
        let mut m = self.alloc_uninit(1, 1);
        m.set(0, 0, v);
        m
    }

    /// An empty `Vec<f32>` with capacity `len`, pooled when possible.
    fn alloc_vec(&self, len: usize) -> Vec<f32> {
        match &self.ws {
            Some(ws) => ws.take_vec(len),
            None => Vec::with_capacity(len),
        }
    }

    /// A zero-filled `Vec<f32>` of length `len`, pooled when possible.
    fn alloc_vec_zeroed(&self, len: usize) -> Vec<f32> {
        match &self.ws {
            Some(ws) => ws.take_vec_zeroed(len),
            None => vec![0.0; len],
        }
    }

    /// Return a matrix to the pool (drop when no workspace is attached).
    fn recycle(&self, m: Matrix) {
        if let Some(ws) = &self.ws {
            ws.give(m);
        }
    }

    /// Return a raw buffer to the pool.
    fn recycle_vec(&self, v: Vec<f32>) {
        if let Some(ws) = &self.ws {
            ws.give_vec(v);
        }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// The scalar value of a `1x1` node (losses).
    pub fn scalar(&self, v: Var) -> f32 {
        let m = self.value(v);
        assert_eq!(m.shape(), (1, 1), "scalar() on non-scalar node");
        m.get(0, 0)
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// Record a non-trainable input.
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf { param: None })
    }

    /// Record a trainable parameter occupying the caller's slot `param_idx`.
    pub fn param(&mut self, param_idx: usize, value: Matrix) -> Var {
        self.push(
            value,
            Op::Leaf {
                param: Some(param_idx),
            },
        )
    }

    /// Record a trainable parameter by *copying* `value` onto the tape —
    /// the pooled twin of [`Tape::param`], so models need not clone their
    /// weights into every epoch's tape.
    pub fn param_of(&mut self, param_idx: usize, value: &Matrix) -> Var {
        let v = self.alloc_copy(value);
        self.push(
            v,
            Op::Leaf {
                param: Some(param_idx),
            },
        )
    }

    /// Dense matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let mut value = self.alloc_zeros(self.value(a).rows(), self.value(b).cols());
        self.value(a).matmul_into(self.value(b), &mut value);
        self.push(value, Op::Matmul(a, b))
    }

    /// Sparse-constant product `sp @ x`. Set `symmetric` when `sp^T == sp`.
    pub fn spmm(&mut self, sp: &Rc<CsrMatrix>, x: Var, symmetric: bool) -> Var {
        let mut value = self.alloc_zeros(sp.rows(), self.value(x).cols());
        sp.spmm_into(self.value(x), &mut value);
        self.push(
            value,
            Op::Spmm {
                sp: Rc::clone(sp),
                x,
                symmetric,
            },
        )
    }

    /// Element-wise sum (residual connections).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let mut value = self.alloc_copy(self.value(a));
        value.add_assign(self.value(b));
        self.push(value, Op::Add(a, b))
    }

    /// ReLU activation.
    pub fn relu(&mut self, x: Var) -> Var {
        let _span = SPAN_RELU.enter();
        let mut value = self.alloc_copy(self.value(x));
        simd::relu_in_place(simd::active(), value.as_mut_slice());
        self.push(value, Op::Relu(x))
    }

    /// Inverted dropout with drop probability `p`. `p == 0` is the identity.
    pub fn dropout(&mut self, x: Var, p: f32, rng: &mut Rng) -> Var {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0,1)"
        );
        if p == 0.0 {
            return x;
        }
        let _span = SPAN_DROPOUT.enter();
        let keep = 1.0 - p;
        let scale = 1.0 / keep;
        let xm = self.value(x);
        let mut value = self.alloc_uninit(xm.rows(), xm.cols());
        let mut mask = self.alloc_vec_zeroed(xm.len());
        // Branch-free: each coin flip is a 0/1 factor times `scale`, drawn
        // for all elements at once, then applied in one product pass.
        rng.keep_mask(keep, scale, &mut mask);
        for ((out, &v), &k) in value
            .as_mut_slice()
            .iter_mut()
            .zip(xm.as_slice())
            .zip(&mask)
        {
            *out = v * k;
        }
        self.push(value, Op::Dropout { x, mask })
    }

    /// Scalar multiple `c * x` (loss weighting: works on any shape).
    pub fn scale(&mut self, x: Var, c: f32) -> Var {
        let mut value = self.alloc_copy(self.value(x));
        value.scale_assign(c);
        self.push(value, Op::Scale(x, c))
    }

    /// Column-wise concatenation (JK-Net / DenseGCN aggregators).
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols of zero parts");
        let rows = self.value(parts[0]).rows();
        let cols: usize = parts.iter().map(|&v| self.value(v).cols()).sum();
        let mut value = self.alloc_uninit(rows, cols);
        let mats: Vec<&Matrix> = parts.iter().map(|&v| self.value(v)).collect();
        Matrix::hcat_into(&mats, &mut value);
        self.push(value, Op::ConcatCols(parts.to_vec()))
    }

    /// The rows `rows` of `x`, stacked in that order (an eval over a row
    /// subset of a full forward).
    pub fn take_rows(&mut self, x: Var, rows: Rc<Vec<usize>>) -> Var {
        let xm = self.value(x);
        let mut value = self.alloc_uninit(rows.len(), xm.cols());
        for (r, &i) in rows.iter().enumerate() {
            value.row_mut(r).copy_from_slice(xm.row(i));
        }
        self.push(value, Op::TakeRows { x, rows })
    }

    /// Row-wise log-softmax.
    pub fn log_softmax(&mut self, x: Var) -> Var {
        let mut value = self.alloc_copy(self.value(x));
        for i in 0..value.rows() {
            log_softmax_in_place(value.row_mut(i));
        }
        self.push(value, Op::LogSoftmax(x))
    }

    /// Row-wise softmax (used when a loss needs probabilities, e.g. the
    /// edge regularizer over predicted label distributions).
    pub fn softmax(&mut self, x: Var) -> Var {
        let mut value = self.alloc_copy(self.value(x));
        for i in 0..value.rows() {
            softmax_in_place(value.row_mut(i));
        }
        self.push(value, Op::Softmax(x))
    }

    /// ELU activation (`alpha = 1`), the nonlinearity GAT uses.
    pub fn elu(&mut self, x: Var) -> Var {
        let mut value = self.alloc_copy(self.value(x));
        for v in value.as_mut_slice() {
            if *v <= 0.0 {
                *v = v.exp_m1();
            }
        }
        self.push(value, Op::Elu(x))
    }

    /// Single-head graph attention over the fixed neighborhood structure
    /// `adj` (a CSR matrix whose stored pattern — values ignored — lists
    /// each node's neighbors, self-loops included).
    ///
    /// * `h` — `n x d` transformed node features (`W·x`, differentiable);
    /// * `a_l`, `a_r` — `1 x d` attention vectors (differentiable);
    /// * `slope` — LeakyReLU negative slope (GAT uses 0.2).
    pub fn graph_attention(
        &mut self,
        adj: &Rc<CsrMatrix>,
        h: Var,
        a_l: Var,
        a_r: Var,
        slope: f32,
    ) -> Var {
        let hv = self.value(h);
        let n = hv.rows();
        let d = hv.cols();
        assert_eq!(adj.shape(), (n, n), "attention adjacency shape mismatch");
        let alv = self.value(a_l);
        let arv = self.value(a_r);
        assert_eq!(alv.shape(), (1, d), "a_l must be 1 x d");
        assert_eq!(arv.shape(), (1, d), "a_r must be 1 x d");

        // Per-node projections s_l[i] = a_l·h_i, s_r[i] = a_r·h_i.
        let dot = |row: &[f32], a: &[f32]| -> f32 { row.iter().zip(a).map(|(&x, &y)| x * y).sum() };
        let mut s_l = self.alloc_vec(n);
        let mut s_r = self.alloc_vec(n);
        for i in 0..n {
            s_l.push(dot(hv.row(i), alv.row(0)));
            s_r.push(dot(hv.row(i), arv.row(0)));
        }

        let mut z = self.alloc_vec(adj.nnz());
        let mut alpha = self.alloc_vec(adj.nnz());
        let mut out = self.alloc_zeros(n, d);
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            let (cols, _) = adj.row(i);
            let start = z.len();
            let mut max_e = f32::NEG_INFINITY;
            for &j in cols {
                let raw = s_l[i] + s_r[j as usize];
                let e = if raw > 0.0 { raw } else { slope * raw };
                z.push(raw);
                max_e = max_e.max(e);
            }
            // Softmax over the neighborhood (empty rows produce no output).
            let mut denom = 0.0f32;
            for (k, &j) in cols.iter().enumerate() {
                let raw = z[start + k];
                let e = if raw > 0.0 { raw } else { slope * raw };
                let w = (e - max_e).exp();
                alpha.push(w);
                denom += w;
                let _ = j;
            }
            let out_row = out.row_mut(i);
            for (k, &j) in cols.iter().enumerate() {
                let a = alpha[start + k] / denom;
                alpha[start + k] = a;
                for (o, &hj) in out_row.iter_mut().zip(hv.row(j as usize)) {
                    *o += a * hj;
                }
            }
        }
        self.recycle_vec(s_l);
        self.recycle_vec(s_r);
        self.push(
            out,
            Op::GraphAttention {
                adj: Rc::clone(adj),
                h,
                a_l,
                a_r,
                slope,
                alpha,
                z,
            },
        )
    }

    /// Mean cross-entropy of the row-wise softmax of `logits` over the rows
    /// listed in `idx`: `-(1/|idx|) Σ log_softmax(logits)[i, labels[i]]`.
    /// Empty `idx` yields a constant-zero loss.
    ///
    /// The log-softmax is computed for the `idx` rows only. Value and
    /// gradient are bitwise those of a full-matrix log-softmax followed by
    /// a masked negative log-likelihood, including a row outside `idx` that
    /// holds a NaN or an infinity: such a row's gradient is the log-softmax
    /// backward of a zero row (NaN where the log-softmax is), which is what
    /// lets the trainer's divergence guard see it.
    pub fn ce_masked(&mut self, logits: Var, labels: Rc<Vec<usize>>, idx: Rc<Vec<usize>>) -> Var {
        let _span = SPAN_CE.enter();
        let k = self.value(logits).cols();
        let mut logp = self.alloc_uninit(idx.len(), k);
        let x = self.value(logits);
        for (p, &i) in idx.iter().enumerate() {
            let row = logp.row_mut(p);
            row.copy_from_slice(x.row(i));
            log_softmax_in_place(row);
        }
        let loss = if idx.is_empty() {
            0.0
        } else {
            let s: f32 = idx
                .iter()
                .enumerate()
                .map(|(p, &i)| -logp.get(p, labels[i]))
                .sum();
            s / idx.len() as f32
        };
        let value = self.alloc_scalar(loss);
        self.push(
            value,
            Op::CeMasked {
                logits,
                labels,
                idx,
                logp,
            },
        )
    }

    /// Mean squared distance between rows of `x` and the constant `target`
    /// over `idx` (RDD's L2 distillation term). Empty `idx` yields zero.
    pub fn mse_rows(&mut self, x: Var, target: Rc<Matrix>, idx: Rc<Vec<usize>>) -> Var {
        let xm = self.value(x);
        assert_eq!(xm.shape(), target.shape(), "mse_rows target shape mismatch");
        let loss = if idx.is_empty() {
            0.0
        } else {
            let s: f32 = idx
                .iter()
                .map(|&i| {
                    xm.row(i)
                        .iter()
                        .zip(target.row(i))
                        .map(|(&a, &b)| (a - b) * (a - b))
                        .sum::<f32>()
                })
                .sum();
            s / idx.len() as f32
        };
        let value = self.alloc_scalar(loss);
        self.push(value, Op::MseRows { x, target, idx })
    }

    /// Soft-label cross-entropy over the rows in `idx` given log-softmax
    /// inputs and a constant row-stochastic `target`. Empty `idx` is zero.
    pub fn soft_ce_masked(&mut self, logp: Var, target: Rc<Matrix>, idx: Rc<Vec<usize>>) -> Var {
        let lp = self.value(logp);
        assert_eq!(
            lp.shape(),
            target.shape(),
            "soft_ce_masked target shape mismatch"
        );
        let loss = if idx.is_empty() {
            0.0
        } else {
            let s: f32 = idx
                .iter()
                .map(|&i| {
                    -lp.row(i)
                        .iter()
                        .zip(target.row(i))
                        .map(|(&l, &t)| t * l)
                        .sum::<f32>()
                })
                .sum();
            s / idx.len() as f32
        };
        let value = self.alloc_scalar(loss);
        self.push(value, Op::SoftCeMasked { logp, target, idx })
    }

    /// Weighted mean squared row difference across `edges` (RDD's
    /// reliable-edge regularizer): `(1/Σw) Σ w_ij · ‖x_i − x_j‖²`.
    /// Degree-normalized weights (`w_ij = 1/√(d_i·d_j)`) keep hub nodes from
    /// dominating the pull. Empty `edges` yields zero.
    pub fn edge_reg_weighted(
        &mut self,
        x: Var,
        edges: Rc<Vec<(u32, u32)>>,
        weights: Rc<Vec<f32>>,
    ) -> Var {
        assert_eq!(edges.len(), weights.len(), "edge/weight length mismatch");
        let xm = self.value(x);
        let total_w = weights.iter().sum::<f32>();
        let loss = if edges.is_empty() || total_w <= 0.0 {
            0.0
        } else {
            let s: f32 = edges
                .iter()
                .enumerate()
                .map(|(e, &(i, j))| {
                    weights[e]
                        * xm.row(i as usize)
                            .iter()
                            .zip(xm.row(j as usize))
                            .map(|(&a, &b)| (a - b) * (a - b))
                            .sum::<f32>()
                })
                .sum();
            s / total_w
        };
        let value = self.alloc_scalar(loss);
        self.push(value, Op::EdgeReg { x, edges, weights })
    }

    /// Sum of scalar losses: `Σ cᵢ · lossᵢ`.
    pub fn weighted_sum(&mut self, terms: &[(Var, f32)]) -> Var {
        assert!(!terms.is_empty(), "weighted_sum of zero terms");
        let mut acc = self.scale(terms[0].0, terms[0].1);
        for &(v, c) in &terms[1..] {
            let scaled = self.scale(v, c);
            acc = self.add(acc, scaled);
        }
        acc
    }

    /// Reverse pass from the scalar node `loss`. Returns per-parameter-slot
    /// gradients; slots never touched by the graph get `None`.
    pub fn backward(&self, loss: Var, n_params: usize) -> Vec<Option<Matrix>> {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward needs a scalar loss"
        );
        let mut grads: Vec<Option<Matrix>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[loss.0] = Some(self.alloc_scalar(1.0));

        for id in (0..=loss.0).rev() {
            let Some(g) = grads[id].take() else { continue };
            match &self.nodes[id].op {
                Op::Leaf { .. } => {
                    grads[id] = Some(g); // keep for param export
                }
                Op::Matmul(a, b) => {
                    let mut da = self.alloc_uninit(g.rows(), self.value(*b).rows());
                    g.matmul_a_bt_into(self.value(*b), &mut da);
                    let mut db = self.alloc_zeros(self.value(*a).cols(), g.cols());
                    self.value(*a).matmul_at_b_into(&g, &mut db);
                    self.accum(&mut grads, *a, da);
                    self.accum(&mut grads, *b, db);
                    self.recycle(g);
                }
                Op::Spmm { sp, x, symmetric } => {
                    let xv = self.value(*x);
                    let mut dx = self.alloc_zeros(xv.rows(), xv.cols());
                    if *symmetric {
                        sp.spmm_into(&g, &mut dx);
                    } else {
                        sp.spmm_t_into(&g, &mut dx);
                    }
                    self.accum(&mut grads, *x, dx);
                    self.recycle(g);
                }
                Op::Add(a, b) => {
                    let ga = self.alloc_copy(&g);
                    self.accum(&mut grads, *a, ga);
                    self.accum(&mut grads, *b, g);
                }
                Op::Relu(x) => {
                    let xv = self.value(*x);
                    let mut dx = g;
                    simd::relu_bwd(simd::active(), dx.as_mut_slice(), xv.as_slice());
                    self.accum(&mut grads, *x, dx);
                }
                Op::Dropout { x, mask } => {
                    let mut dx = g;
                    simd::mul_assign(simd::active(), dx.as_mut_slice(), mask);
                    self.accum(&mut grads, *x, dx);
                }
                Op::Scale(x, c) => {
                    let mut dx = g;
                    dx.scale_assign(*c);
                    self.accum(&mut grads, *x, dx);
                }
                Op::ConcatCols(parts) => {
                    let mut off = 0;
                    for &p in parts {
                        let pc = self.value(p).cols();
                        let mut dp = self.alloc_uninit(g.rows(), pc);
                        for i in 0..g.rows() {
                            dp.row_mut(i).copy_from_slice(&g.row(i)[off..off + pc]);
                        }
                        self.accum(&mut grads, p, dp);
                        off += pc;
                    }
                    self.recycle(g);
                }
                Op::TakeRows { x, rows } => {
                    let xv = self.value(*x);
                    let mut dx = self.alloc_zeros(xv.rows(), xv.cols());
                    let tier = simd::active();
                    for (r, &i) in rows.iter().enumerate() {
                        simd::add_assign(tier, dx.row_mut(i), g.row(r));
                    }
                    self.accum(&mut grads, *x, dx);
                    self.recycle(g);
                }
                Op::Softmax(x) => {
                    // y = softmax(x); dx = y ⊙ (g − rowsum(g ⊙ y)).
                    let y = &self.nodes[id].value;
                    let mut dx = g;
                    let tier = simd::active();
                    for i in 0..dx.rows() {
                        simd::softmax_bwd_row(tier, dx.row_mut(i), y.row(i));
                    }
                    self.accum(&mut grads, *x, dx);
                }
                Op::LogSoftmax(x) => {
                    // y = x − logsumexp(x) row-wise; dx = g − softmax(x)·rowsum(g).
                    let y = &self.nodes[id].value;
                    let mut dx = g;
                    let tier = simd::active();
                    for i in 0..dx.rows() {
                        simd::log_softmax_bwd_row(tier, dx.row_mut(i), y.row(i));
                    }
                    self.accum(&mut grads, *x, dx);
                }
                Op::CeMasked {
                    logits,
                    labels,
                    idx,
                    logp,
                } => {
                    let _span = SPAN_CE.enter();
                    if idx.is_empty() {
                        self.recycle(g);
                        continue;
                    }
                    let scale = g.get(0, 0) / idx.len() as f32;
                    let xv = self.value(*logits);
                    let (n, k) = xv.shape();
                    let mut dx = self.alloc_zeros(n, k);
                    for &i in idx.iter() {
                        let j = labels[i];
                        dx.set(i, j, dx.get(i, j) - scale);
                    }
                    // Log-softmax backward, once per distinct `idx` row.
                    let tier = simd::active();
                    let mut done = self.alloc_vec_zeroed(n);
                    for (p, &i) in idx.iter().enumerate() {
                        if done[i] == 0.0 {
                            done[i] = 1.0;
                            simd::log_softmax_bwd_row(tier, dx.row_mut(i), logp.row(p));
                        }
                    }
                    // Any other row's gradient is the backward of a zero row:
                    // +0 when its logits are finite, so only a non-finite row
                    // needs its log-softmax.
                    let finite = xv.as_slice().iter().fold(true, |ok, v| ok & v.is_finite());
                    if !finite {
                        let mut y = self.alloc_vec(k);
                        for (i, &d) in done.iter().enumerate() {
                            let row = xv.row(i);
                            if d == 0.0 && !row.iter().all(|v| v.is_finite()) {
                                y.clear();
                                y.extend_from_slice(row);
                                log_softmax_in_place(&mut y);
                                simd::log_softmax_bwd_row(tier, dx.row_mut(i), &y);
                            }
                        }
                        self.recycle_vec(y);
                    }
                    self.recycle_vec(done);
                    self.accum(&mut grads, *logits, dx);
                    self.recycle(g);
                }
                Op::MseRows { x, target, idx } => {
                    if idx.is_empty() {
                        self.recycle(g);
                        continue;
                    }
                    let scale = 2.0 * g.get(0, 0) / idx.len() as f32;
                    let xv = self.value(*x);
                    let mut dx = self.alloc_zeros(xv.rows(), xv.cols());
                    for &i in idx.iter() {
                        let trow = target.row(i);
                        let xrow = xv.row(i);
                        for ((d, &t), &xval) in dx.row_mut(i).iter_mut().zip(trow).zip(xrow) {
                            *d += scale * (xval - t);
                        }
                    }
                    self.accum(&mut grads, *x, dx);
                    self.recycle(g);
                }
                Op::Elu(x) => {
                    let xv = self.value(*x);
                    let mut dx = g;
                    for (dv, &v) in dx.as_mut_slice().iter_mut().zip(xv.as_slice()) {
                        if v <= 0.0 {
                            *dv *= v.exp();
                        }
                    }
                    self.accum(&mut grads, *x, dx);
                }
                Op::GraphAttention {
                    adj,
                    h,
                    a_l,
                    a_r,
                    slope,
                    alpha,
                    z,
                } => {
                    let hv = self.value(*h);
                    let alv = self.value(*a_l);
                    let arv = self.value(*a_r);
                    let n = hv.rows();
                    let d = hv.cols();
                    let mut dh = self.alloc_zeros(n, d);
                    let mut ds_l = self.alloc_vec_zeroed(n);
                    let mut ds_r = self.alloc_vec_zeroed(n);
                    let mut dalpha: Vec<f32> = Vec::new();
                    let mut cursor = 0usize;
                    #[allow(clippy::needless_range_loop)]
                    for i in 0..n {
                        let (cols, _) = adj.row(i);
                        let g_row = g.row(i);
                        // dα_ij = g_i · h_j; dh_j += α_ij g_i.
                        dalpha.clear();
                        dalpha.reserve(cols.len());
                        let mut weighted_sum = 0.0f32; // Σ_k α_ik dα_ik
                        for (k, &j) in cols.iter().enumerate() {
                            let a = alpha[cursor + k];
                            let hj = hv.row(j as usize);
                            let da: f32 = g_row.iter().zip(hj).map(|(&gv, &hvx)| gv * hvx).sum();
                            dalpha.push(da);
                            weighted_sum += a * da;
                            let dh_j = dh.row_mut(j as usize);
                            for (o, &gv) in dh_j.iter_mut().zip(g_row) {
                                *o += a * gv;
                            }
                        }
                        // Softmax backward then LeakyReLU backward.
                        for (k, &j) in cols.iter().enumerate() {
                            let a = alpha[cursor + k];
                            let de = a * (dalpha[k] - weighted_sum);
                            let raw = z[cursor + k];
                            let dz = if raw > 0.0 { de } else { *slope * de };
                            ds_l[i] += dz;
                            ds_r[j as usize] += dz;
                        }
                        cursor += cols.len();
                    }
                    // dh += ds_l ⊗ a_l + ds_r ⊗ a_r;
                    // da_l = Σ_i ds_l[i]·h_i, da_r likewise.
                    let mut da_l = self.alloc_zeros(1, d);
                    let mut da_r = self.alloc_zeros(1, d);
                    for i in 0..n {
                        let hi = hv.row(i);
                        let dh_i = dh.row_mut(i);
                        for c in 0..d {
                            dh_i[c] += ds_l[i] * alv.get(0, c) + ds_r[i] * arv.get(0, c);
                            da_l.set(0, c, da_l.get(0, c) + ds_l[i] * hi[c]);
                            da_r.set(0, c, da_r.get(0, c) + ds_r[i] * hi[c]);
                        }
                    }
                    self.recycle_vec(ds_l);
                    self.recycle_vec(ds_r);
                    self.accum(&mut grads, *h, dh);
                    self.accum(&mut grads, *a_l, da_l);
                    self.accum(&mut grads, *a_r, da_r);
                    self.recycle(g);
                }
                Op::SoftCeMasked { logp, target, idx } => {
                    if idx.is_empty() {
                        self.recycle(g);
                        continue;
                    }
                    let scale = g.get(0, 0) / idx.len() as f32;
                    let lpv = self.value(*logp);
                    let mut dlp = self.alloc_zeros(lpv.rows(), lpv.cols());
                    for &i in idx.iter() {
                        let trow = target.row(i);
                        for (d, &t) in dlp.row_mut(i).iter_mut().zip(trow) {
                            *d -= scale * t;
                        }
                    }
                    self.accum(&mut grads, *logp, dlp);
                    self.recycle(g);
                }
                Op::EdgeReg { x, edges, weights } => {
                    if edges.is_empty() {
                        self.recycle(g);
                        continue;
                    }
                    let total_w = weights.iter().sum::<f32>();
                    if total_w <= 0.0 {
                        self.recycle(g);
                        continue;
                    }
                    let scale = 2.0 * g.get(0, 0) / total_w;
                    let xv = self.value(*x);
                    let mut dx = self.alloc_zeros(xv.rows(), xv.cols());
                    for (e, &(i, j)) in edges.iter().enumerate() {
                        let w = weights[e];
                        let (i, j) = (i as usize, j as usize);
                        for c in 0..xv.cols() {
                            let diff = scale * w * (xv.get(i, c) - xv.get(j, c));
                            dx.set(i, c, dx.get(i, c) + diff);
                            dx.set(j, c, dx.get(j, c) - diff);
                        }
                    }
                    self.accum(&mut grads, *x, dx);
                    self.recycle(g);
                }
            }
        }

        // Export per-parameter-slot gradients.
        let mut out: Vec<Option<Matrix>> = (0..n_params).map(|_| None).collect();
        for (id, node) in self.nodes.iter().enumerate() {
            if let Op::Leaf { param: Some(slot) } = node.op {
                if let Some(g) = grads[id].take() {
                    match &mut out[slot] {
                        Some(acc) => {
                            acc.add_assign(&g);
                            self.recycle(g);
                        }
                        slot_ref @ None => *slot_ref = Some(g),
                    }
                }
            }
        }
        // Anything left in the scratch table (unused leaves) goes back to
        // the pool.
        for g in grads.into_iter().flatten() {
            self.recycle(g);
        }
        out
    }

    /// Accumulate gradient `g` into `v`'s slot, recycling `g` when it merges
    /// into an existing accumulator.
    fn accum(&self, grads: &mut [Option<Matrix>], v: Var, g: Matrix) {
        match &mut grads[v.0] {
            Some(acc) => {
                acc.add_assign(&g);
                self.recycle(g);
            }
            slot @ None => *slot = Some(g),
        }
    }
}

impl Drop for Tape {
    fn drop(&mut self) {
        let Some(ws) = self.ws.take() else { return };
        for node in self.nodes.drain(..) {
            ws.give(node.value);
            match node.op {
                Op::Dropout { mask, .. } => ws.give_vec(mask),
                Op::CeMasked { logp, .. } => ws.give(logp),
                Op::GraphAttention { alpha, z, .. } => {
                    ws.give_vec(alpha);
                    ws.give_vec(z);
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    /// Central finite-difference check of `d loss / d param0` for a graph
    /// builder. `build` receives a tape and the parameter value and must
    /// return the scalar loss node.
    fn grad_check(param: &Matrix, build: &dyn Fn(&mut Tape, Matrix) -> Var, tol: f32) {
        let mut tape = Tape::new();
        let loss = build(&mut tape, param.clone());
        let grads = tape.backward(loss, 1);
        let analytic = grads[0].as_ref().expect("param participates in loss");

        let h = 1e-2f32;
        for k in 0..param.len() {
            let mut plus = param.clone();
            plus.as_mut_slice()[k] += h;
            let mut tp = Tape::new();
            let lp = build(&mut tp, plus);
            let fp = tp.scalar(lp);

            let mut minus = param.clone();
            minus.as_mut_slice()[k] -= h;
            let mut tm = Tape::new();
            let lm = build(&mut tm, minus);
            let fm = tm.scalar(lm);

            let numeric = (fp - fm) / (2.0 * h);
            let a = analytic.as_slice()[k];
            assert!(
                (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                "grad mismatch at {k}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn matmul_gradient() {
        let mut rng = seeded_rng(7);
        let w = crate::init::uniform(3, 2, 1.0, &mut rng);
        let a = crate::init::uniform(4, 3, 1.0, &mut rng);
        grad_check(
            &w,
            &|t, p| {
                let av = t.constant(a.clone());
                let pv = t.param(0, p);
                let c = t.matmul(av, pv);
                // Scalar: sum of squares via mse against zeros over all rows.
                let target = Rc::new(Matrix::zeros(4, 2));
                let idx = Rc::new((0..4).collect());
                t.mse_rows(c, target, idx)
            },
            2e-2,
        );
    }

    #[test]
    fn spmm_gradient() {
        let sp = Rc::new(CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 0.5),
                (0, 1, 0.5),
                (1, 1, 1.0),
                (2, 0, 0.3),
                (2, 2, 0.7),
            ],
        ));
        let mut rng = seeded_rng(8);
        let x = crate::init::uniform(3, 2, 1.0, &mut rng);
        grad_check(
            &x,
            &|t, p| {
                let pv = t.param(0, p);
                let c = t.spmm(&sp, pv, false);
                let target = Rc::new(Matrix::full(3, 2, 0.1));
                let idx = Rc::new((0..3).collect());
                t.mse_rows(c, target, idx)
            },
            2e-2,
        );
    }

    #[test]
    fn take_rows_gradient() {
        let mut rng = seeded_rng(10);
        let x = crate::init::uniform(4, 3, 1.0, &mut rng);
        grad_check(
            &x,
            &|t, p| {
                let pv = t.param(0, p);
                // Row 2 twice, row 1 never.
                let picked = t.take_rows(pv, Rc::new(vec![2, 0, 2, 3]));
                let target = Rc::new(Matrix::full(4, 3, 0.2));
                t.mse_rows(picked, target, Rc::new((0..4).collect()))
            },
            2e-2,
        );
    }

    #[test]
    fn relu_logsoftmax_nll_gradient() {
        let mut rng = seeded_rng(9);
        let x = crate::init::uniform(4, 3, 1.0, &mut rng);
        let labels = Rc::new(vec![0usize, 2, 1, 0]);
        let idx = Rc::new(vec![0usize, 1, 3]);
        grad_check(
            &x,
            &|t, p| {
                let pv = t.param(0, p);
                let r = t.relu(pv);
                t.ce_masked(r, Rc::clone(&labels), Rc::clone(&idx))
            },
            3e-2,
        );
    }

    #[test]
    fn edge_reg_gradient() {
        let mut rng = seeded_rng(10);
        let x = crate::init::uniform(4, 2, 1.0, &mut rng);
        let edges = Rc::new(vec![(0u32, 1u32), (2, 3), (0, 3)]);
        grad_check(
            &x,
            &|t, p| {
                let pv = t.param(0, p);
                t.edge_reg_weighted(pv, Rc::clone(&edges), Rc::new(vec![1.0; 3]))
            },
            2e-2,
        );
    }

    #[test]
    fn weighted_sum_combines_losses() {
        let mut t = Tape::new();
        let a = t.constant(Matrix::from_vec(1, 1, vec![2.0]));
        let b = t.constant(Matrix::from_vec(1, 1, vec![3.0]));
        let s = t.weighted_sum(&[(a, 1.0), (b, 10.0)]);
        assert!((t.scalar(s) - 32.0).abs() < 1e-6);
    }

    #[test]
    fn dropout_zero_p_is_identity() {
        let mut t = Tape::new();
        let mut rng = seeded_rng(1);
        let x = t.constant(Matrix::full(2, 2, 1.0));
        let d = t.dropout(x, 0.0, &mut rng);
        assert_eq!(d, x);
    }

    #[test]
    fn dropout_preserves_expectation() {
        let mut t = Tape::new();
        let mut rng = seeded_rng(2);
        let x = t.constant(Matrix::full(100, 100, 1.0));
        let d = t.dropout(x, 0.5, &mut rng);
        let mean = t.value(d).sum() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.05, "dropout mean {mean}");
    }

    /// The two-pass dropout the fused pass replaced: draw the whole mask
    /// with a branch per element, then multiply a copy of `x` by it.
    fn two_pass_dropout(x: &Matrix, p: f32, rng: &mut Rng) -> (Vec<f32>, Matrix) {
        let keep = 1.0 - p;
        let scale = 1.0 / keep;
        let mask: Vec<f32> = (0..x.len())
            .map(|_| if rng.f32() < keep { scale } else { 0.0 })
            .collect();
        let mut out = x.clone();
        simd::mul_assign(simd::active(), out.as_mut_slice(), &mask);
        (mask, out)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fused_dropout_matches_two_pass_reference_bitwise() {
        let specials = [f32::NAN, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY];
        for p in [0.2f32, 0.5] {
            for seed in [3u64, 41, 977] {
                // 37 x 11: odd sizes, so vector bodies and scalar tails both run.
                let x = Matrix::from_fn(37, 11, |i, j| match (i * 11 + j) % 9 {
                    k @ 0..=4 => specials[k],
                    k => (i as f32 - 18.0) * 0.37 + k as f32,
                });
                let (ref_mask, ref_out) = two_pass_dropout(&x, p, &mut seeded_rng(seed));

                let mut t = Tape::new();
                let mut rng = seeded_rng(seed);
                let xv = t.constant(x.clone());
                let d = t.dropout(xv, p, &mut rng);
                assert_eq!(
                    bits(t.value(d).as_slice()),
                    bits(ref_out.as_slice()),
                    "p={p} seed={seed}: values differ"
                );
                let Op::Dropout { mask, .. } = &t.nodes[d.0].op else {
                    panic!("dropout recorded a different op");
                };
                assert_eq!(
                    bits(mask),
                    bits(&ref_mask),
                    "p={p} seed={seed}: masks differ"
                );
                // Both variants leave the rng at the same point.
                let mut ref_rng = seeded_rng(seed);
                two_pass_dropout(&x, p, &mut ref_rng);
                assert_eq!(rng.f32().to_bits(), ref_rng.f32().to_bits());
            }
        }
    }

    #[test]
    fn dropout_backward_multiplies_by_the_forward_mask() {
        for p in [0.2f32, 0.5] {
            let x = Matrix::from_fn(23, 9, |i, j| (i * 9 + j) as f32 * 0.01 - 1.0);
            let (ref_mask, _) = two_pass_dropout(&x, p, &mut seeded_rng(5));
            // L = 1ᵀ · dropout(x) · 1, so dL/dx is exactly the mask.
            let mut t = Tape::new();
            let xv = t.param(0, x.clone());
            let d = t.dropout(xv, p, &mut seeded_rng(5));
            let ones_c = t.constant(Matrix::full(9, 1, 1.0));
            let ones_r = t.constant(Matrix::full(1, 23, 1.0));
            let col = t.matmul(d, ones_c);
            let loss = t.matmul(ones_r, col);
            let grads = t.backward(loss, 1);
            let dx = grads[0].as_ref().expect("x is a param");
            assert_eq!(bits(dx.as_slice()), bits(&ref_mask), "p={p}");
        }
    }

    #[test]
    fn empty_losses_are_zero_and_safe() {
        let mut t = Tape::new();
        let x = t.param(0, Matrix::full(2, 2, 1.0));
        let l1 = t.ce_masked(x, Rc::new(vec![0, 0]), Rc::new(vec![]));
        let l2 = t.mse_rows(x, Rc::new(Matrix::zeros(2, 2)), Rc::new(vec![]));
        let l3 = t.edge_reg_weighted(x, Rc::new(vec![]), Rc::new(vec![]));
        let l4 = t.soft_ce_masked(x, Rc::new(Matrix::full(2, 2, 0.5)), Rc::new(vec![]));
        let total = t.weighted_sum(&[(l1, 1.0), (l2, 1.0), (l3, 1.0), (l4, 1.0)]);
        assert_eq!(t.scalar(total), 0.0);
        let grads = t.backward(total, 1);
        // No gradient flows from empty losses.
        assert!(grads[0].is_none() || grads[0].as_ref().unwrap().frob_sq() == 0.0);
    }

    #[test]
    fn grad_accumulates_across_reused_vars() {
        // loss = mse(x, 0) + mse(x, 0) should double the gradient.
        let x = Matrix::from_vec(1, 2, vec![1.0, -2.0]);
        let mut t = Tape::new();
        let p = t.param(0, x.clone());
        let target = Rc::new(Matrix::zeros(1, 2));
        let idx: Rc<Vec<usize>> = Rc::new(vec![0]);
        let l1 = t.mse_rows(p, Rc::clone(&target), Rc::clone(&idx));
        let l2 = t.mse_rows(p, target, idx);
        let s = t.weighted_sum(&[(l1, 1.0), (l2, 1.0)]);
        let g = t.backward(s, 1);
        let g = g[0].as_ref().unwrap();
        // d/dx of 2·x² = 4x (mse over one row: ‖x‖², twice).
        assert!((g.get(0, 0) - 4.0).abs() < 1e-5);
        assert!((g.get(0, 1) + 8.0).abs() < 1e-5);
    }

    #[test]
    fn concat_cols_gradient_splits() {
        let a = Matrix::from_vec(2, 1, vec![1.0, 2.0]);
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let mut t = Tape::new();
        let pa = t.param(0, a);
        let pb = t.param(1, b);
        let c = t.concat_cols(&[pa, pb]);
        let target = Rc::new(Matrix::zeros(2, 3));
        let idx = Rc::new(vec![0usize, 1]);
        let l = t.mse_rows(c, target, idx);
        let g = t.backward(l, 2);
        assert_eq!(g[0].as_ref().unwrap().shape(), (2, 1));
        assert_eq!(g[1].as_ref().unwrap().shape(), (2, 2));
        // dl/da = 2a/|idx| = a.
        assert!((g[0].as_ref().unwrap().get(0, 0) - 1.0).abs() < 1e-5);
    }
}

#[cfg(test)]
mod gat_tests {
    use super::*;
    use crate::rng::seeded_rng;

    fn grad_check_slot(
        params: &[Matrix],
        slot: usize,
        build: &dyn Fn(&mut Tape, &[Matrix]) -> Var,
        tol: f32,
    ) {
        let mut tape = Tape::new();
        let loss = build(&mut tape, params);
        let grads = tape.backward(loss, params.len());
        let analytic = grads[slot].as_ref().expect("slot participates");
        let h = 1e-2f32;
        for k in 0..params[slot].len() {
            let eval = |delta: f32| {
                let mut ps = params.to_vec();
                ps[slot].as_mut_slice()[k] += delta;
                let mut t = Tape::new();
                let l = build(&mut t, &ps);
                t.scalar(l)
            };
            let numeric = (eval(h) - eval(-h)) / (2.0 * h);
            let a = analytic.as_slice()[k];
            assert!(
                (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                "slot {slot} elem {k}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    fn attention_graph() -> Rc<CsrMatrix> {
        // 4-node path with self-loops: structure only, values ignored.
        Rc::new(CsrMatrix::from_triplets(
            4,
            4,
            &[
                (0, 0, 1.0),
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 1, 1.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (2, 2, 1.0),
                (2, 3, 1.0),
                (3, 2, 1.0),
                (3, 3, 1.0),
            ],
        ))
    }

    fn gat_loss(t: &mut Tape, ps: &[Matrix], adj: &Rc<CsrMatrix>) -> Var {
        let h = t.param(0, ps[0].clone());
        let a_l = t.param(1, ps[1].clone());
        let a_r = t.param(2, ps[2].clone());
        let out = t.graph_attention(adj, h, a_l, a_r, 0.2);
        let e = t.elu(out);
        let target = Rc::new(Matrix::full(4, 3, 0.25));
        t.mse_rows(e, target, Rc::new((0..4).collect()))
    }

    #[test]
    fn graph_attention_rows_are_convex_combinations() {
        let adj = attention_graph();
        let mut t = Tape::new();
        let mut rng = seeded_rng(31);
        let h = crate::init::uniform(4, 3, 1.0, &mut rng);
        let hv = t.constant(h.clone());
        let a_l = t.constant(crate::init::uniform(1, 3, 1.0, &mut rng));
        let a_r = t.constant(crate::init::uniform(1, 3, 1.0, &mut rng));
        let out = t.graph_attention(&adj, hv, a_l, a_r, 0.2);
        let o = t.value(out);
        // Each output row lies inside the convex hull of its neighborhood's
        // h-rows: its min/max per column are bounded by the neighbors'.
        for i in 0..4 {
            let (cols, _) = adj.row(i);
            for c in 0..3 {
                let lo = cols
                    .iter()
                    .map(|&j| h.get(j as usize, c))
                    .fold(f32::INFINITY, f32::min);
                let hi = cols
                    .iter()
                    .map(|&j| h.get(j as usize, c))
                    .fold(f32::NEG_INFINITY, f32::max);
                let v = o.get(i, c);
                assert!(
                    v >= lo - 1e-5 && v <= hi + 1e-5,
                    "row {i} col {c}: {v} not in [{lo},{hi}]"
                );
            }
        }
    }

    #[test]
    fn graph_attention_gradient_h() {
        let adj = attention_graph();
        let mut rng = seeded_rng(32);
        let params = vec![
            crate::init::uniform(4, 3, 1.0, &mut rng),
            crate::init::uniform(1, 3, 1.0, &mut rng),
            crate::init::uniform(1, 3, 1.0, &mut rng),
        ];
        grad_check_slot(&params, 0, &|t, ps| gat_loss(t, ps, &adj), 5e-2);
    }

    #[test]
    fn graph_attention_gradient_attention_vectors() {
        let adj = attention_graph();
        let mut rng = seeded_rng(33);
        let params = vec![
            crate::init::uniform(4, 3, 1.0, &mut rng),
            crate::init::uniform(1, 3, 1.0, &mut rng),
            crate::init::uniform(1, 3, 1.0, &mut rng),
        ];
        grad_check_slot(&params, 1, &|t, ps| gat_loss(t, ps, &adj), 5e-2);
        grad_check_slot(&params, 2, &|t, ps| gat_loss(t, ps, &adj), 5e-2);
    }

    #[test]
    fn elu_matches_definition_and_gradient() {
        let x = Matrix::from_vec(1, 4, vec![-2.0, -0.5, 0.0, 1.5]);
        let mut t = Tape::new();
        let p = t.param(0, x.clone());
        let e = t.elu(p);
        let v = t.value(e);
        assert!((v.get(0, 0) - (-2.0f32).exp_m1()).abs() < 1e-6);
        assert!((v.get(0, 3) - 1.5).abs() < 1e-6);
        // Gradient via mse against zeros.
        let params = vec![x];
        grad_check_slot(
            &params,
            0,
            &|t, ps| {
                let p = t.param(0, ps[0].clone());
                let e = t.elu(p);
                let target = Rc::new(Matrix::zeros(1, 4));
                t.mse_rows(e, target, Rc::new(vec![0]))
            },
            3e-2,
        );
    }

    #[test]
    fn isolated_node_attention_is_safe() {
        // Node 1 has no stored neighbors at all (not even a self-loop).
        let adj = Rc::new(CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0)]));
        let mut t = Tape::new();
        let h = t.param(0, Matrix::full(2, 2, 1.0));
        let a_l = t.constant(Matrix::full(1, 2, 0.1));
        let a_r = t.constant(Matrix::full(1, 2, 0.1));
        let out = t.graph_attention(&adj, h, a_l, a_r, 0.2);
        let o = t.value(out);
        assert_eq!(o.row(1), &[0.0, 0.0], "empty neighborhood outputs zero");
        assert!(
            (o.get(0, 0) - 1.0).abs() < 1e-6,
            "self-loop passes h through"
        );
        let target = Rc::new(Matrix::zeros(2, 2));
        let l = t.mse_rows(out, target, Rc::new(vec![0, 1]));
        let g = t.backward(l, 1);
        assert!(g[0].is_some());
    }
}
