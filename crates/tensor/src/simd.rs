//! Explicit-SIMD kernel tier with runtime dispatch.
//!
//! Two kinds of kernel live here. The **products** (`matmul`,
//! `matmul_at_b`, `matmul_a_bt`, `spmm`, `spmm_t`) run as *row kernels*:
//! `run_rows` and `dot_rows` choose the tier once per block of rows,
//! and the body keeps an output row's accumulators (or a right-hand row)
//! in registers for the row's whole reduction; the gather and scatter
//! bodies themselves are in `rows.rs`. The **row-wise kernels** — softmax
//! / log-softmax / entropy, the elementwise arms used by the loss hook and
//! reliability refresh, and the int8 dequantization of the serving
//! artifacts — are per-slice dispatchers with the tier as first argument.
//! There are two tiers:
//!
//! * **`Scalar`** — the original autovectorized kernels (see [`scalar`];
//!   the products use the portable `Lanes` impl, the same scalar tree
//!   per element). They are the *bitwise oracle*: `RDD_SIMD=off` selects
//!   this order, so the pre-SIMD numerics are always reachable.
//! * **`Avx2`** — AVX2 + FMA. Fused multiply-adds reassociate the
//!   reductions (the products use an FMA chain on full blocks of eight
//!   columns and the scalar tree on narrower tails) and the
//!   transcendental kernels use Cephes-style polynomial vector `exp`/`ln`,
//!   so this tier is *bounded-ULP* equivalent to `Scalar` rather than
//!   bitwise (pinned by property tests in `tests/simd_equivalence.rs`).
//!
//! **One source per kernel.** A hand-written AVX2 body exists only where
//! its bits or its vector maths differ from scalar: the FMA product lanes
//! and dot, the softmax / log-softmax / entropy family, the backward rows,
//! `add_scaled_assign` and `dequant_u8`. The pure elementwise kernels
//! (`add_assign`, `scale_assign`, `mul_assign`, `relu_in_place`,
//! `relu_bwd`) have no intrinsics: their AVX2 tier is the [`scalar`]
//! function compiled a second time under `#[target_feature]`, so both
//! tiers give the same bits on every input, ±0, ±inf, NaN and subnormals
//! included.
//!
//! A product's bits depend only on the tier; `tests/kernel_oracle.rs` checks every tier against the per-element
//! kernels the row kernels replaced.
//!
//! # Tier selection
//!
//! The active tier latches once per process from `RDD_SIMD`:
//!
//! * unset / `auto` / `on` — AVX2 when the CPU has AVX2 and FMA (probed
//!   with `is_x86_feature_detected!`), else scalar;
//! * `off` / `scalar` / `0` / `false` / `no` — the scalar oracle;
//! * anything else — warning through `rdd_obs` naming `auto|off`, keeps
//!   `auto`.
//!
//! The first resolution emits a one-shot `simd_init` trace event naming
//! the selected and detected tiers. Benches and tests that must compare
//! tiers inside one process bypass the latch with [`force_active`], or
//! call the per-tier kernels directly (every public kernel takes its
//! [`SimdTier`] as the first argument).

use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering};

/// One instruction-set tier of the kernel layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SimdTier {
    /// The original autovectorized scalar kernels (the bitwise oracle).
    Scalar = 0,
    /// AVX2 + FMA (bounded-ULP equivalent, fastest).
    Avx2 = 1,
}

impl SimdTier {
    /// Stable lowercase name, as reported in the `simd_init` trace event.
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
        }
    }
}

const TIER_UNSET: u8 = u8::MAX;

/// Latched active tier; `TIER_UNSET` until the first [`active`] call.
static ACTIVE: AtomicU8 = AtomicU8::new(TIER_UNSET);

fn tier_from_u8(v: u8) -> SimdTier {
    match v {
        1 => SimdTier::Avx2,
        _ => SimdTier::Scalar,
    }
}

/// Best tier the running CPU supports.
pub fn detect_best() -> SimdTier {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        return SimdTier::Avx2;
    }
    SimdTier::Scalar
}

/// Whether `tier` can run on this CPU.
pub fn available(tier: SimdTier) -> bool {
    tier as u8 <= detect_best() as u8
}

/// The process-wide active tier, resolved from `RDD_SIMD` on first use.
#[inline]
pub fn active() -> SimdTier {
    match ACTIVE.load(Ordering::Relaxed) {
        TIER_UNSET => init_from_env(),
        t => tier_from_u8(t),
    }
}

/// Override the active tier (benches and tier-comparison tests only —
/// normal code lets the `RDD_SIMD` latch decide once per process).
pub fn force_active(tier: SimdTier) {
    ACTIVE.store(tier as u8, Ordering::Relaxed);
}

#[cold]
fn init_from_env() -> SimdTier {
    let best = detect_best();
    let tier = rdd_obs::env::parse_with("RDD_SIMD", "auto|off", |v| {
        match v.trim().to_ascii_lowercase().as_str() {
            "" | "auto" | "on" => Some(best),
            "off" | "scalar" | "0" | "false" | "no" => Some(SimdTier::Scalar),
            _ => None,
        }
    })
    .unwrap_or(best);
    // First writer wins so the init event fires exactly once even when
    // several pool workers race into the latch.
    if ACTIVE
        .compare_exchange(TIER_UNSET, tier as u8, Ordering::Relaxed, Ordering::Relaxed)
        .is_ok()
    {
        rdd_obs::event(
            "simd_init",
            &[
                ("tier", rdd_obs::Json::from(tier.name())),
                ("detected", rdd_obs::Json::from(best.name())),
            ],
        );
    }
    tier_from_u8(ACTIVE.load(Ordering::Relaxed))
}

// ---------------------------------------------------------------------------
// Dispatchers: one public function per kernel, tier as the first argument.
// ---------------------------------------------------------------------------

/// Slices narrower than one AVX2 vector (8 lanes) take the scalar tier in
/// the kernels with a hand-written AVX2 body: at such widths the vector
/// path is all setup and masked remainder (measured ~0.9x on 7-class
/// softmax/backward rows), and demoting to the bitwise oracle can never
/// change results.
pub(crate) const NARROW: usize = 8;

macro_rules! dispatch {
    ($tier:expr, $scalar:expr, $avx2:expr) => {
        match $tier {
            // SAFETY: the Avx2 tier is only ever latched on CPUs with AVX2+FMA.
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => unsafe { $avx2 },
            _ => $scalar,
        }
    };
}

/// Numerically-stable in-place softmax (bounded-ULP under AVX2).
#[inline]
pub fn softmax_in_place(tier: SimdTier, row: &mut [f32]) {
    if row.len() < NARROW {
        return scalar::softmax_in_place(row);
    }
    dispatch!(tier, scalar::softmax_in_place(row), x86::softmax_avx2(row))
}

/// Numerically-stable in-place log-softmax (bounded-ULP under AVX2).
#[inline]
pub fn log_softmax_in_place(tier: SimdTier, row: &mut [f32]) {
    if row.len() < NARROW {
        return scalar::log_softmax_in_place(row);
    }
    dispatch!(
        tier,
        scalar::log_softmax_in_place(row),
        x86::log_softmax_avx2(row)
    )
}

/// Shannon entropy of one row (`Σ −p ln p` over `p > 0`). AVX2 uses the
/// polynomial vector `ln` (bounded-ULP).
#[inline]
pub fn row_entropy(tier: SimdTier, row: &[f32]) -> f32 {
    if row.len() < NARROW {
        return scalar::row_entropy(row);
    }
    dispatch!(tier, scalar::row_entropy(row), x86::row_entropy_avx2(row))
}

/// Elementwise `a += b` (one source: bitwise on every tier).
#[inline]
pub fn add_assign(tier: SimdTier, a: &mut [f32], b: &[f32]) {
    debug_assert_eq!(a.len(), b.len());
    dispatch!(tier, scalar::add_assign(a, b), x86::add_assign_avx2(a, b))
}

/// Elementwise `a += s * b` (one fused multiply-add under AVX2:
/// bounded-ULP).
#[inline]
pub fn add_scaled_assign(tier: SimdTier, a: &mut [f32], b: &[f32], s: f32) {
    debug_assert_eq!(a.len(), b.len());
    if a.len() < NARROW {
        return scalar::add_scaled_assign(a, b, s);
    }
    dispatch!(
        tier,
        scalar::add_scaled_assign(a, b, s),
        x86::add_scaled_avx2(a, b, s)
    )
}

/// Elementwise `a *= s` (one source: bitwise on every tier).
#[inline]
pub fn scale_assign(tier: SimdTier, a: &mut [f32], s: f32) {
    dispatch!(tier, scalar::scale_assign(a, s), x86::scale_avx2(a, s))
}

/// Elementwise `a *= b` (Hadamard / dropout-mask arm; one source: bitwise
/// on every tier).
#[inline]
pub fn mul_assign(tier: SimdTier, a: &mut [f32], b: &[f32]) {
    debug_assert_eq!(a.len(), b.len());
    dispatch!(tier, scalar::mul_assign(a, b), x86::mul_assign_avx2(a, b))
}

/// In-place ReLU `v = max(v, 0)` (one source: bitwise on every tier).
#[inline]
pub fn relu_in_place(tier: SimdTier, a: &mut [f32]) {
    dispatch!(tier, scalar::relu_in_place(a), x86::relu_avx2(a))
}

/// ReLU backward: zero `d` wherever the forward input `x <= 0`, keep it
/// where `x` is NaN (one source: bitwise on every tier).
#[inline]
pub fn relu_bwd(tier: SimdTier, d: &mut [f32], x: &[f32]) {
    debug_assert_eq!(d.len(), x.len());
    dispatch!(tier, scalar::relu_bwd(d, x), x86::relu_bwd_avx2(d, x))
}

/// Dropout coin flips: `mask[i] = on · [draw i < threshold]`, where draw
/// `i` is the top 24 bits of the `i+1`-th splitmix64 output after `state`
/// (one source: bitwise on every tier). [`crate::Rng::keep_mask`] is the
/// one caller.
#[inline]
pub(crate) fn keep_mask(tier: SimdTier, state: u64, threshold: u64, on: f32, mask: &mut [f32]) {
    dispatch!(
        tier,
        scalar::keep_mask(state, threshold, on, mask),
        x86::keep_mask_avx2(state, threshold, on, mask)
    )
}

/// Softmax backward over one row: `dx = y ⊙ (dx − Σ dx·y)`. AVX2
/// vectorizes both passes (bounded-ULP).
#[inline]
pub fn softmax_bwd_row(tier: SimdTier, dx: &mut [f32], y: &[f32]) {
    debug_assert_eq!(dx.len(), y.len());
    if dx.len() < NARROW {
        return scalar::softmax_bwd_row(dx, y);
    }
    dispatch!(
        tier,
        scalar::softmax_bwd_row(dx, y),
        x86::softmax_bwd_row_avx2(dx, y)
    )
}

/// Log-softmax backward over one row: `dx -= exp(y) * Σ dx`. AVX2 uses
/// the polynomial vector `exp` (bounded-ULP).
#[inline]
pub fn log_softmax_bwd_row(tier: SimdTier, dx: &mut [f32], y: &[f32]) {
    debug_assert_eq!(dx.len(), y.len());
    if dx.len() < NARROW {
        return scalar::log_softmax_bwd_row(dx, y);
    }
    dispatch!(
        tier,
        scalar::log_softmax_bwd_row(dx, y),
        x86::log_softmax_bwd_row_avx2(dx, y)
    )
}

/// Affine int8 dequantization `out[i] = zero + scale * q[i]` (the v2q
/// serving-artifact load path). AVX2 widens eight codes per step through
/// `cvtepu8` + FMA (≤1 ULP from scalar).
#[inline]
pub fn dequant_u8(tier: SimdTier, q: &[u8], scale: f32, zero: f32, out: &mut [f32]) {
    debug_assert_eq!(q.len(), out.len());
    if q.len() < NARROW {
        return scalar::dequant_u8(q, scale, zero, out);
    }
    dispatch!(
        tier,
        scalar::dequant_u8(q, scale, zero, out),
        x86::dequant_u8_avx2(q, scale, zero, out)
    )
}

// ---------------------------------------------------------------------------
// Row kernels: the bodies of `Matrix::matmul*` and `CsrMatrix::spmm*`.
// ---------------------------------------------------------------------------

/// A register's worth of output lanes, with one tier's operation order for
/// a reduction *group*: a quad of four entries, or one leftover entry.
///
/// Per output element `o`, a group with coefficients `a` and right-hand
/// values `b` is either the scalar tree `o + (((a0·b0 + a1·b1) + a2·b2) +
/// a3·b3)` or the FMA chain `fma(a3, b3, fma(a2, b2, fma(a1, b1, fma(a0,
/// b0, o))))`. The row bodies skip a group whose coefficients all compare
/// equal to zero, so these two orders are all a product ever computes.
///
/// # Safety
///
/// Every method may use instructions of one tier: the caller must have
/// checked the CPU has them (the `RDD_SIMD` latch does). `load` and
/// `store` access `lanes` floats at `p` (fewer than `W` only in the last
/// vector of a row), which must be valid for that access.
pub(crate) trait Lanes: Copy {
    /// `f32` lanes per value.
    const W: usize;
    /// Load `lanes` values from `p`.
    unsafe fn load(p: *const f32, lanes: usize) -> Self;
    /// Store `lanes` values to `p`.
    unsafe fn store(self, p: *mut f32, lanes: usize);
    /// `self` plus the group `Σ_q a[q]·b[q]`, in this type's order.
    unsafe fn group<const Q: usize>(self, a: [f32; Q], b: [Self; Q]) -> Self;
}

/// Portable lanes: the scalar tree on every lane (the `RDD_SIMD=off`
/// order; the compiler packs the four lanes into one SSE register, which
/// never changes a bit). A last vector narrower than four reads and writes
/// only its `lanes`; the other lanes compute on zeros and are dropped.
impl Lanes for [f32; 4] {
    const W: usize = 4;

    #[inline(always)]
    unsafe fn load(p: *const f32, lanes: usize) -> Self {
        if lanes == 4 {
            return std::ptr::read_unaligned(p as *const [f32; 4]);
        }
        let mut x = [0.0; 4];
        for (l, x) in x.iter_mut().enumerate() {
            if l < lanes {
                *x = *p.add(l);
            }
        }
        x
    }

    #[inline(always)]
    unsafe fn store(self, p: *mut f32, lanes: usize) {
        if lanes == 4 {
            return std::ptr::write_unaligned(p as *mut [f32; 4], self);
        }
        for (l, &x) in self.iter().enumerate() {
            if l < lanes {
                *p.add(l) = x;
            }
        }
    }

    #[inline(always)]
    unsafe fn group<const Q: usize>(mut self, a: [f32; Q], b: [Self; Q]) -> Self {
        for (l, o) in self.iter_mut().enumerate() {
            let mut t = a[0] * b[0][l];
            for q in 1..Q {
                t += a[q] * b[q][l];
            }
            *o += t;
        }
        self
    }
}

/// A row kernel: one output-column block of one row (or row quad).
pub(crate) trait RowKernel {
    /// Widest column block, in `Lanes` values: 4, or 2 where a quad of
    /// right-hand rows must stay in registers as well.
    const MAX_V: usize;
    /// Output columns per row.
    fn width(&self) -> usize;
    /// Process the `V` vectors of output columns from `c0` in row `r`; the
    /// last vector holds `lanes` columns, the others `L::W`.
    ///
    /// # Safety
    ///
    /// As for [`Lanes`]; the block must lie within `0..width()`.
    unsafe fn block<L: Lanes, const V: usize>(&self, r: usize, c0: usize, lanes: usize);
}

/// Run `k` over `rows` and all its output columns, choosing the lane
/// types of `tier` once for the whole block of rows.
pub(crate) fn run_rows<K: RowKernel>(tier: SimdTier, k: &K, rows: Range<usize>) {
    match tier {
        // SAFETY: the Avx2 tier is only ever latched on CPUs with AVX2+FMA.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe { x86::run_rows_avx2(k, rows) },
        _ => {
            let width = k.width();
            for r in rows {
                // SAFETY: plain arrays need no CPU feature, and they handle
                // a partial last vector.
                unsafe { col_blocks::<K, [f32; 4]>(k, r, 0, width) };
            }
        }
    }
}

/// Columns `c..end` of row `r` in blocks of up to `K::MAX_V` vectors; the
/// last vector of the last block holds the remainder.
///
/// # Safety
///
/// The CPU must support `L`, and `L` must handle a partial last vector
/// unless `L::W` divides `end - c`.
#[inline(always)]
unsafe fn col_blocks<K: RowKernel, L: Lanes>(k: &K, r: usize, mut c: usize, end: usize) {
    let w = L::W;
    while c < end {
        let left = end - c;
        let vectors = left.div_ceil(w);
        if K::MAX_V >= 4 && vectors >= 4 {
            k.block::<L, 4>(r, c, left.min(4 * w) - 3 * w);
            c += 4 * w;
        } else if vectors >= 2 {
            k.block::<L, 2>(r, c, left.min(2 * w) - w);
            c += 2 * w;
        } else {
            k.block::<L, 1>(r, c, left);
            c = end;
        }
    }
}

/// Dot body: `out[r][j] = a_r · b_j` for every row `r` of `out` (width
/// `n`) and `j` in `cols`, where `a` and `b` hold rows of length `k`. The
/// reduction is the eight-lane scalar [`scalar::dot`], or under AVX2 (for
/// `k >= 8`) the two-accumulator FMA dot.
pub(crate) fn dot_rows(
    tier: SimdTier,
    out: &mut [f32],
    n: usize,
    a: &[f32],
    k: usize,
    b: &[f32],
    cols: Range<usize>,
) {
    if k < NARROW {
        // Both tiers reduce a dot this short with `scalar::dot`.
        return dispatch!(
            tier,
            dot_rows_narrow(out, n, a, k, b, cols),
            x86::dot_rows_narrow_avx2(out, n, a, k, b, cols)
        );
    }
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 {
        // SAFETY: the Avx2 tier is only ever latched on CPUs with AVX2+FMA.
        return unsafe { x86::dot_rows_avx2(out, n, a, k, b, cols) };
    }
    dot_rows_with(out, n, a, k, b, cols, scalar::dot);
}

/// Output columns per block in [`dot_rows_narrow`]: the block's slice of
/// `b`, transposed, fits one stack buffer.
const NARROW_COLS: usize = 64;

/// [`dot_rows`] for `k < NARROW`. [`scalar::dot`] of rows this short has
/// no eight-lane block: it is the sequential sum `((0 + a0·b0) + a1·b1) +
/// ...` from `+0.0`. Here each output row runs that sum across a block of
/// output columns at once, as separate multiplies and adds over a
/// transposed copy of the block's `b` rows, so every element gets the same
/// bits while the column loop vectorizes.
#[inline(always)]
fn dot_rows_narrow(out: &mut [f32], n: usize, a: &[f32], k: usize, b: &[f32], cols: Range<usize>) {
    debug_assert!(k < NARROW);
    let mut bt = [0.0f32; NARROW * NARROW_COLS];
    let mut jb = cols.start;
    while jb < cols.end {
        let w = (cols.end - jb).min(NARROW_COLS);
        for t in 0..k {
            for c in 0..w {
                bt[t * NARROW_COLS + c] = b[(jb + c) * k + t];
            }
        }
        for (r, out_row) in out.chunks_exact_mut(n).enumerate() {
            let o = &mut out_row[jb..jb + w];
            o.fill(0.0);
            for (t, &x) in a[r * k..(r + 1) * k].iter().enumerate() {
                for (o, &y) in o.iter_mut().zip(&bt[t * NARROW_COLS..t * NARROW_COLS + w]) {
                    *o += x * y;
                }
            }
        }
        jb += w;
    }
}

#[inline(always)]
fn dot_rows_with(
    out: &mut [f32],
    n: usize,
    a: &[f32],
    k: usize,
    b: &[f32],
    cols: Range<usize>,
    dot: impl Fn(&[f32], &[f32]) -> f32,
) {
    for (r, out_row) in out.chunks_exact_mut(n).enumerate() {
        let a_row = &a[r * k..(r + 1) * k];
        for j in cols.clone() {
            out_row[j] = dot(a_row, &b[j * k..(j + 1) * k]);
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar tier: the bitwise oracle.
// ---------------------------------------------------------------------------

/// The original scalar kernels, moved verbatim from `matrix.rs` (plus the
/// per-row backward/dequant loops from `autograd.rs` and the serve crate).
/// `RDD_SIMD=off` routes every row-wise kernel here and runs the products
/// on the portable row kernels above, and the property tests use these as
/// the reference the vector tiers are checked against.
pub mod scalar {
    /// Dot product with eight independent accumulator lanes.
    ///
    /// The lanes break the loop-carried `f32` addition chain, which is what
    /// allows SIMD codegen without `-ffast-math`-style reassociation.
    #[inline]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let lanes = a.len() / 8 * 8;
        let (a8, a_tail) = a.split_at(lanes);
        let (b8, b_tail) = b.split_at(lanes);
        let mut acc = [0.0f32; 8];
        for (ac, bc) in a8.chunks_exact(8).zip(b8.chunks_exact(8)) {
            for l in 0..8 {
                acc[l] += ac[l] * bc[l];
            }
        }
        let mut s =
            ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]));
        for (&x, &y) in a_tail.iter().zip(b_tail) {
            s += x * y;
        }
        s
    }

    /// Numerically-stable in-place softmax over a slice.
    pub fn softmax_in_place(row: &mut [f32]) {
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut z = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            z += *v;
        }
        let inv = 1.0 / z;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }

    /// Numerically-stable in-place log-softmax over a slice.
    pub fn log_softmax_in_place(row: &mut [f32]) {
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let z: f32 = row.iter().map(|&v| (v - max).exp()).sum();
        let lz = z.ln() + max;
        for v in row.iter_mut() {
            *v -= lz;
        }
    }

    /// Shannon entropy of one row: `Σ −p ln p` over entries `p > 0`.
    pub fn row_entropy(row: &[f32]) -> f32 {
        row.iter().filter(|&&p| p > 0.0).map(|&p| -p * p.ln()).sum()
    }

    /// Elementwise `a += b`.
    #[inline]
    pub fn add_assign(a: &mut [f32], b: &[f32]) {
        for (x, &y) in a.iter_mut().zip(b) {
            *x += y;
        }
    }

    /// Elementwise `a += s * b`.
    #[inline]
    pub fn add_scaled_assign(a: &mut [f32], b: &[f32], s: f32) {
        for (x, &y) in a.iter_mut().zip(b) {
            *x += s * y;
        }
    }

    /// Elementwise `a *= s`.
    #[inline]
    pub fn scale_assign(a: &mut [f32], s: f32) {
        for x in a.iter_mut() {
            *x *= s;
        }
    }

    /// Elementwise `a *= b`.
    #[inline]
    pub fn mul_assign(a: &mut [f32], b: &[f32]) {
        for (x, &y) in a.iter_mut().zip(b) {
            *x *= y;
        }
    }

    /// In-place ReLU.
    #[inline]
    pub fn relu_in_place(a: &mut [f32]) {
        for v in a.iter_mut() {
            *v = v.max(0.0);
        }
    }

    /// ReLU backward: zero the gradient wherever the input was `<= 0`.
    #[inline]
    pub fn relu_bwd(d: &mut [f32], x: &[f32]) {
        for (dv, &v) in d.iter_mut().zip(x) {
            if v <= 0.0 {
                *dv = 0.0;
            }
        }
    }

    /// Dropout coin flips, written by index: each element's draw is
    /// splitmix64 of its own counter, so no element waits on another and
    /// the loop vectorizes.
    #[inline]
    pub(crate) fn keep_mask(state: u64, threshold: u64, on: f32, mask: &mut [f32]) {
        for (i, m) in mask.iter_mut().enumerate() {
            let z =
                crate::rng::mix(state.wrapping_add(crate::rng::GAMMA.wrapping_mul(i as u64 + 1)));
            *m = on * (((z >> 40) < threshold) as u32 as f32);
        }
    }

    /// Softmax backward over one row: `dx = y ⊙ (dx − Σ dx·y)`.
    #[inline]
    pub fn softmax_bwd_row(dx: &mut [f32], y: &[f32]) {
        let dot: f32 = dx.iter().zip(y).map(|(&a, &b)| a * b).sum();
        for (d, &yv) in dx.iter_mut().zip(y) {
            *d = yv * (*d - dot);
        }
    }

    /// Log-softmax backward over one row: `dx -= exp(y) * Σ dx`.
    #[inline]
    pub fn log_softmax_bwd_row(dx: &mut [f32], y: &[f32]) {
        let row_sum: f32 = dx.iter().sum();
        for (d, &ly) in dx.iter_mut().zip(y) {
            *d -= ly.exp() * row_sum;
        }
    }

    /// Affine int8 dequantization `out[i] = zero + scale * q[i]`.
    #[inline]
    pub fn dequant_u8(q: &[u8], scale: f32, zero: f32, out: &mut [f32]) {
        for (o, &qv) in out.iter_mut().zip(q) {
            *o = zero + scale * qv as f32;
        }
    }
}

// ---------------------------------------------------------------------------
// x86-64 AVX2 tier.
// ---------------------------------------------------------------------------

/// AVX2+FMA kernel implementations. All functions are
/// `#[target_feature]`-gated: callers must have verified the feature via
/// [`detect_best`] (the dispatchers and the `RDD_SIMD` latch do).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_op_in_unsafe_fn)]
mod x86 {
    use super::{col_blocks, dot_rows_with, scalar, Lanes, RowKernel};
    use std::arch::x86_64::*;
    use std::ops::Range;

    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hsum256(v: __m256) -> f32 {
        let s = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
        let s = _mm_add_ps(s, _mm_shuffle_ps(s, s, 0b10_11_00_01));
        let s = _mm_add_ss(s, _mm_movehl_ps(s, s));
        _mm_cvtss_f32(s)
    }

    /// Register lanes of a full AVX2 block: the FMA chain.
    #[derive(Clone, Copy)]
    struct Fma8(__m256);

    impl Lanes for Fma8 {
        const W: usize = 8;

        #[inline(always)]
        unsafe fn load(p: *const f32, _lanes: usize) -> Self {
            Fma8(_mm256_loadu_ps(p))
        }

        #[inline(always)]
        unsafe fn store(self, p: *mut f32, _lanes: usize) {
            _mm256_storeu_ps(p, self.0)
        }

        #[inline(always)]
        unsafe fn group<const Q: usize>(self, a: [f32; Q], b: [Self; Q]) -> Self {
            let mut o = self.0;
            for q in 0..Q {
                o = _mm256_fmadd_ps(_mm256_set1_ps(a[q]), b[q].0, o);
            }
            Fma8(o)
        }
    }

    /// Register lanes of the narrow tail (fewer than eight columns, masked
    /// loads and stores): the scalar tree, as separate multiplies and adds.
    #[derive(Clone, Copy)]
    struct Tree8(__m256);

    #[inline(always)]
    unsafe fn mask(lanes: usize) -> __m256i {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(lanes as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    }

    impl Lanes for Tree8 {
        const W: usize = 8;

        #[inline(always)]
        unsafe fn load(p: *const f32, lanes: usize) -> Self {
            Tree8(_mm256_maskload_ps(p, mask(lanes)))
        }

        /// Plain stores of 4, 2 and 1 lanes: a masked store would cover
        /// the next row's first columns, and a later load of those cannot
        /// be forwarded from it, so it would wait for the store to retire.
        #[inline(always)]
        unsafe fn store(self, p: *mut f32, lanes: usize) {
            debug_assert!(lanes < 8);
            let (mut x, mut p) = (_mm256_castps256_ps128(self.0), p);
            if lanes & 4 != 0 {
                _mm_storeu_ps(p, x);
                x = _mm256_extractf128_ps(self.0, 1);
                p = p.add(4);
            }
            if lanes & 2 != 0 {
                _mm_store_sd(p as *mut f64, _mm_castps_pd(x));
                x = _mm_movehl_ps(x, x);
                p = p.add(2);
            }
            if lanes & 1 != 0 {
                _mm_store_ss(p, x);
            }
        }

        #[inline(always)]
        unsafe fn group<const Q: usize>(self, a: [f32; Q], b: [Self; Q]) -> Self {
            let mut t = _mm256_mul_ps(_mm256_set1_ps(a[0]), b[0].0);
            for q in 1..Q {
                t = _mm256_add_ps(t, _mm256_mul_ps(_mm256_set1_ps(a[q]), b[q].0));
            }
            Tree8(_mm256_add_ps(self.0, t))
        }
    }

    /// [`super::run_rows`] on the AVX2 tier: FMA blocks over the full
    /// eight-lane columns, the masked scalar tree over the tail.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn run_rows_avx2<K: RowKernel>(k: &K, rows: Range<usize>) {
        let width = k.width();
        let split = width / 8 * 8;
        for r in rows {
            col_blocks::<K, Fma8>(k, r, 0, split);
            col_blocks::<K, Tree8>(k, r, split, width);
        }
    }

    /// [`super::dot_rows_narrow`] compiled for AVX2 (separate multiplies
    /// and adds, as on the scalar tier: the same bits, wider vectors).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_rows_narrow_avx2(
        out: &mut [f32],
        n: usize,
        a: &[f32],
        k: usize,
        b: &[f32],
        cols: Range<usize>,
    ) {
        super::dot_rows_narrow(out, n, a, k, b, cols)
    }

    /// [`super::dot_rows`] on the AVX2 tier.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_rows_avx2(
        out: &mut [f32],
        n: usize,
        a: &[f32],
        k: usize,
        b: &[f32],
        cols: Range<usize>,
    ) {
        dot_rows_with(out, n, a, k, b, cols, |x, y| dot_avx2(x, y))
    }

    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let pa = a.as_ptr();
        let pb = b.as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let pairs = n / 16 * 16;
        let mut i = 0;
        while i < pairs {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(i + 8)),
                _mm256_loadu_ps(pb.add(i + 8)),
                acc1,
            );
            i += 16;
        }
        let mut acc = _mm256_add_ps(acc0, acc1);
        while i + 8 <= n {
            acc = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc);
            i += 8;
        }
        let mut s = hsum256(acc);
        while i < n {
            s += a[i] * b[i];
            i += 1;
        }
        s
    }

    /// Cephes-style polynomial `exp` on 8 lanes (≈1 ULP over the reduced
    /// range; inputs clamped to ±88.376 like the libm fallback region).
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn exp256_ps(x: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        let x = _mm256_min_ps(
            _mm256_max_ps(x, _mm256_set1_ps(-88.376_26)),
            _mm256_set1_ps(88.376_26),
        );
        // n = floor(x / ln2 + 0.5); r = x - n*ln2 (hi/lo split).
        let fx = _mm256_floor_ps(_mm256_fmadd_ps(
            x,
            _mm256_set1_ps(std::f32::consts::LOG2_E),
            _mm256_set1_ps(0.5),
        ));
        let x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693_359_4), x);
        let x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.121_944_4e-4), x);
        let z = _mm256_mul_ps(x, x);
        let mut y = _mm256_set1_ps(1.987_569_1e-4);
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.398_199_9e-3));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.333_452e-3));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.166_579_6e-2));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.666_666_6e-1));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5e-1));
        y = _mm256_fmadd_ps(y, z, x);
        y = _mm256_add_ps(y, one);
        // * 2^n via exponent-field construction.
        let pow2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            _mm256_cvttps_epi32(fx),
            _mm256_set1_epi32(0x7f),
        )));
        _mm256_mul_ps(y, pow2)
    }

    /// Cephes-style polynomial `ln` on 8 lanes. Assumes `x > 0` (callers
    /// mask out non-positive lanes); denormals are clamped up to the
    /// smallest normal before exponent extraction.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn log256_ps(x: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        let half = _mm256_set1_ps(0.5);
        let x = _mm256_max_ps(x, _mm256_set1_ps(f32::MIN_POSITIVE));
        let emm0 = _mm256_srli_epi32::<23>(_mm256_castps_si256(x));
        // Mantissa into [0.5, 1).
        let x = _mm256_and_ps(
            x,
            _mm256_castsi256_ps(_mm256_set1_epi32(!0x7f80_0000u32 as i32)),
        );
        let x = _mm256_or_ps(x, half);
        let emm0 = _mm256_sub_epi32(emm0, _mm256_set1_epi32(0x7f));
        let e = _mm256_add_ps(_mm256_cvtepi32_ps(emm0), one);
        // If mantissa < 1/sqrt(2): e -= 1, m = 2m - 1; else m -= 1.
        let mask = _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_set1_ps(std::f32::consts::FRAC_1_SQRT_2));
        let tmp = _mm256_and_ps(x, mask);
        let x = _mm256_sub_ps(x, one);
        let e = _mm256_sub_ps(e, _mm256_and_ps(one, mask));
        let x = _mm256_add_ps(x, tmp);
        let z = _mm256_mul_ps(x, x);
        let mut y = _mm256_set1_ps(7.037_683_6e-2);
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(-1.151_461e-1));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.167_699_9e-1));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(-1.242_014_1e-1));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.424_932_3e-1));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(-1.666_805_7e-1));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(2.000_071_4e-1));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(-2.499_999_4e-1));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(3.333_333e-1));
        y = _mm256_mul_ps(_mm256_mul_ps(y, x), z);
        y = _mm256_fmadd_ps(e, _mm256_set1_ps(-2.121_944_4e-4), y);
        y = _mm256_fnmadd_ps(half, z, y);
        let x = _mm256_add_ps(x, y);
        _mm256_fmadd_ps(e, _mm256_set1_ps(0.693_359_4), x)
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn max_avx2(row: &[f32]) -> f32 {
        let n = row.len();
        let octs = n / 8 * 8;
        let mut max = f32::NEG_INFINITY;
        if octs >= 8 {
            let mut vm = _mm256_loadu_ps(row.as_ptr());
            let mut i = 8;
            while i < octs {
                vm = _mm256_max_ps(vm, _mm256_loadu_ps(row.as_ptr().add(i)));
                i += 8;
            }
            let mut lanes = [0.0f32; 8];
            _mm256_storeu_ps(lanes.as_mut_ptr(), vm);
            max = lanes.iter().cloned().fold(max, f32::max);
        }
        for &v in &row[octs..] {
            max = max.max(v);
        }
        max
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn softmax_avx2(row: &mut [f32]) {
        let max = max_avx2(row);
        let n = row.len();
        let octs = n / 8 * 8;
        let vmax = _mm256_set1_ps(max);
        let p = row.as_mut_ptr();
        let mut vz = _mm256_setzero_ps();
        let mut i = 0;
        while i < octs {
            let e = exp256_ps(_mm256_sub_ps(_mm256_loadu_ps(p.add(i)), vmax));
            _mm256_storeu_ps(p.add(i), e);
            vz = _mm256_add_ps(vz, e);
            i += 8;
        }
        let mut z = hsum256(vz);
        for v in &mut row[octs..] {
            *v = (*v - max).exp();
            z += *v;
        }
        let inv = 1.0 / z;
        let vi = _mm256_set1_ps(inv);
        let mut i = 0;
        while i < octs {
            _mm256_storeu_ps(p.add(i), _mm256_mul_ps(_mm256_loadu_ps(p.add(i)), vi));
            i += 8;
        }
        for v in &mut row[octs..] {
            *v *= inv;
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn log_softmax_avx2(row: &mut [f32]) {
        let max = max_avx2(row);
        let n = row.len();
        let octs = n / 8 * 8;
        let vmax = _mm256_set1_ps(max);
        let p = row.as_mut_ptr();
        let mut vz = _mm256_setzero_ps();
        let mut i = 0;
        while i < octs {
            vz = _mm256_add_ps(
                vz,
                exp256_ps(_mm256_sub_ps(_mm256_loadu_ps(p.add(i)), vmax)),
            );
            i += 8;
        }
        let mut z = hsum256(vz);
        for &v in &row[octs..] {
            z += (v - max).exp();
        }
        let lz = z.ln() + max;
        let vlz = _mm256_set1_ps(lz);
        let mut i = 0;
        while i < octs {
            _mm256_storeu_ps(p.add(i), _mm256_sub_ps(_mm256_loadu_ps(p.add(i)), vlz));
            i += 8;
        }
        for v in &mut row[octs..] {
            *v -= lz;
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn row_entropy_avx2(row: &[f32]) -> f32 {
        let n = row.len();
        let octs = n / 8 * 8;
        let zero = _mm256_setzero_ps();
        let one = _mm256_set1_ps(1.0);
        let mut acc = _mm256_setzero_ps(); // accumulates Σ p·ln p
        let mut i = 0;
        while i < octs {
            let p = _mm256_loadu_ps(row.as_ptr().add(i));
            let pos = _mm256_cmp_ps::<_CMP_GT_OQ>(p, zero);
            // ln on masked-out lanes runs on 1.0 (→ 0), then gets zeroed.
            let safe = _mm256_blendv_ps(one, p, pos);
            let pl = _mm256_and_ps(_mm256_mul_ps(p, log256_ps(safe)), pos);
            acc = _mm256_add_ps(acc, pl);
            i += 8;
        }
        let mut s = -hsum256(acc);
        for &p in &row[octs..] {
            if p > 0.0 {
                s += -p * p.ln();
            }
        }
        s
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn softmax_bwd_row_avx2(dx: &mut [f32], y: &[f32]) {
        let dot = dot_avx2(dx, y);
        let n = dx.len();
        let octs = n / 8 * 8;
        let vd = _mm256_set1_ps(dot);
        let pd = dx.as_mut_ptr();
        let py = y.as_ptr();
        let mut i = 0;
        while i < octs {
            let t = _mm256_sub_ps(_mm256_loadu_ps(pd.add(i)), vd);
            _mm256_storeu_ps(pd.add(i), _mm256_mul_ps(_mm256_loadu_ps(py.add(i)), t));
            i += 8;
        }
        for k in octs..n {
            dx[k] = y[k] * (dx[k] - dot);
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn log_softmax_bwd_row_avx2(dx: &mut [f32], y: &[f32]) {
        let n = dx.len();
        let octs = n / 8 * 8;
        let pd = dx.as_mut_ptr();
        let py = y.as_ptr();
        let mut vs = _mm256_setzero_ps();
        let mut i = 0;
        while i < octs {
            vs = _mm256_add_ps(vs, _mm256_loadu_ps(pd.add(i)));
            i += 8;
        }
        let mut row_sum = hsum256(vs);
        for &d in &dx[octs..] {
            row_sum += d;
        }
        let vsum = _mm256_set1_ps(row_sum);
        let mut i = 0;
        while i < octs {
            let e = exp256_ps(_mm256_loadu_ps(py.add(i)));
            _mm256_storeu_ps(
                pd.add(i),
                _mm256_fnmadd_ps(e, vsum, _mm256_loadu_ps(pd.add(i))),
            );
            i += 8;
        }
        for k in octs..n {
            dx[k] -= y[k].exp() * row_sum;
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dequant_u8_avx2(q: &[u8], scale: f32, zero: f32, out: &mut [f32]) {
        let n = out.len();
        let octs = n / 8 * 8;
        let vs = _mm256_set1_ps(scale);
        let vz = _mm256_set1_ps(zero);
        let po = out.as_mut_ptr();
        let mut i = 0;
        while i < octs {
            // Widen 8 codes u8 → i32 → f32, then one FMA.
            let q8 = _mm_loadl_epi64(q.as_ptr().add(i) as *const __m128i);
            let qf = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(q8));
            _mm256_storeu_ps(po.add(i), _mm256_fmadd_ps(vs, qf, vz));
            i += 8;
        }
        for k in octs..n {
            out[k] = zero + scale * q[k] as f32;
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn add_scaled_avx2(a: &mut [f32], b: &[f32], s: f32) {
        let n = a.len();
        let octs = n / 8 * 8;
        let vs = _mm256_set1_ps(s);
        let pa = a.as_mut_ptr();
        let pb = b.as_ptr();
        let mut i = 0;
        while i < octs {
            _mm256_storeu_ps(
                pa.add(i),
                _mm256_fmadd_ps(vs, _mm256_loadu_ps(pb.add(i)), _mm256_loadu_ps(pa.add(i))),
            );
            i += 8;
        }
        for k in octs..n {
            a[k] += s * b[k];
        }
    }

    // One source, compiled twice: the elementwise kernels whose AVX2 bits
    // equal scalar's are the `scalar` functions themselves, inlined here
    // and vectorized eight lanes wide by the compiler.

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn add_assign_avx2(a: &mut [f32], b: &[f32]) {
        scalar::add_assign(a, b)
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn scale_avx2(a: &mut [f32], s: f32) {
        scalar::scale_assign(a, s)
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn mul_assign_avx2(a: &mut [f32], b: &[f32]) {
        scalar::mul_assign(a, b)
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn relu_avx2(a: &mut [f32]) {
        scalar::relu_in_place(a)
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn relu_bwd_avx2(d: &mut [f32], x: &[f32]) {
        scalar::relu_bwd(d, x)
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn keep_mask_avx2(state: u64, threshold: u64, on: f32, mask: &mut [f32]) {
        scalar::keep_mask(state, threshold, on, mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{seeded_rng, Rng};

    /// `n` values in [-0.5, 0.5).
    fn values(rng: &mut Rng, n: usize) -> Vec<f32> {
        (0..n).map(|_| rng.range_f32(-0.5..0.5)).collect()
    }

    fn tiers() -> Vec<SimdTier> {
        [SimdTier::Scalar, SimdTier::Avx2]
            .into_iter()
            .filter(|&t| available(t))
            .collect()
    }

    /// Lengths that cover empty, sub-lane, lane-aligned and ragged tails.
    const LENS: &[usize] = &[0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 67];

    fn assert_close(a: f32, b: f32, scale: f32, what: &str) {
        assert!(
            (a - b).abs() <= 1e-5 * scale.max(1.0),
            "{what}: {a} vs {b} (scale {scale})"
        );
    }

    #[test]
    fn softmax_family_tiers_agree() {
        let mut rng = seeded_rng(0xabcd_ef12_3456_789b);
        for &n in LENS {
            if n == 0 {
                continue; // softmax of an empty row is undefined (z = 0)
            }
            let base: Vec<f32> = (0..n).map(|_| rng.range_f32(-4.0..4.0)).collect();

            let mut want_sm = base.clone();
            scalar::softmax_in_place(&mut want_sm);
            let mut want_lsm = base.clone();
            scalar::log_softmax_in_place(&mut want_lsm);
            let want_ent = scalar::row_entropy(&want_sm);

            for t in tiers() {
                let mut sm = base.clone();
                softmax_in_place(t, &mut sm);
                let mut lsm = base.clone();
                log_softmax_in_place(t, &mut lsm);
                let ent = row_entropy(t, &want_sm);
                let sum: f32 = sm.iter().sum();
                assert!((sum - 1.0).abs() < 1e-4, "softmax {} sums {sum}", t.name());
                for (w, g) in want_sm.iter().zip(&sm) {
                    assert_close(*g, *w, 1.0, &format!("softmax {} len {n}", t.name()));
                }
                for (w, g) in want_lsm.iter().zip(&lsm) {
                    assert_close(
                        *g,
                        *w,
                        w.abs(),
                        &format!("log_softmax {} len {n}", t.name()),
                    );
                }
                assert_close(ent, want_ent, (n as f32).max(1.0), "entropy");
            }
        }
    }

    #[test]
    fn elementwise_tiers_agree() {
        let mut rng = seeded_rng(0x0123_4567_89ab_cdef);
        let mut sets: Vec<(Vec<f32>, Vec<f32>, f32)> = LENS
            .iter()
            .map(|&n| {
                (
                    values(&mut rng, n),
                    values(&mut rng, n),
                    rng.range_f32(-0.5..0.5),
                )
            })
            .collect();
        // IEEE corner cases in the vector body and the tail (four octets
        // and three more lanes): ±0, ±inf, NaN, −NaN and subnormals, met by
        // each other and by ordinary values.
        const SPECIAL: [f32; 8] = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            1e-40,
            -1e-40,
        ];
        let a0: Vec<f32> = (0..35).map(|i| SPECIAL[i % 8]).collect();
        let b: Vec<f32> = (0..35)
            .map(|i| match i % 3 {
                0 => SPECIAL[i / 3 % 8],
                _ => rng.range_f32(-0.5..0.5),
            })
            .collect();
        sets.push((a0, b, rng.range_f32(-0.5..0.5)));

        for (a0, b, s) in &sets {
            let (n, s) = (a0.len(), *s);
            for t in tiers() {
                let mut want = a0.clone();
                scalar::add_assign(&mut want, b);
                let mut got = a0.clone();
                add_assign(t, &mut got, b);
                check(&want, &got, true, "add_assign", t, n);

                // One fused multiply-add under AVX2: bounded, not bitwise.
                let mut want = a0.clone();
                scalar::add_scaled_assign(&mut want, b, s);
                let mut got = a0.clone();
                add_scaled_assign(t, &mut got, b, s);
                check(
                    &want,
                    &got,
                    t == SimdTier::Scalar,
                    "add_scaled_assign",
                    t,
                    n,
                );

                let mut want = a0.clone();
                scalar::scale_assign(&mut want, s);
                let mut got = a0.clone();
                scale_assign(t, &mut got, s);
                check(&want, &got, true, "scale_assign", t, n);

                let mut want = a0.clone();
                scalar::mul_assign(&mut want, b);
                let mut got = a0.clone();
                mul_assign(t, &mut got, b);
                check(&want, &got, true, "mul_assign", t, n);

                let mut want = a0.clone();
                scalar::relu_in_place(&mut want);
                let mut got = a0.clone();
                relu_in_place(t, &mut got);
                check(&want, &got, true, "relu", t, n);

                let mut want = b.clone();
                scalar::relu_bwd(&mut want, a0);
                let mut got = b.clone();
                relu_bwd(t, &mut got, a0);
                check(&want, &got, true, "relu_bwd", t, n);
            }
        }

        /// Bitwise (or within `assert_close` where `bitwise` is false, for
        /// finite values), except that a NaN only has to meet a NaN: its
        /// payload is not part of the contract.
        fn check(want: &[f32], got: &[f32], bitwise: bool, what: &str, t: SimdTier, n: usize) {
            for (i, (w, g)) in want.iter().zip(got).enumerate() {
                if w.is_nan() {
                    assert!(g.is_nan(), "{what} {} len {n} [{i}]: NaN vs {g}", t.name());
                } else if bitwise || !w.is_finite() {
                    assert_eq!(
                        w.to_bits(),
                        g.to_bits(),
                        "{what} {} len {n} [{i}]: {w} vs {g}",
                        t.name()
                    );
                } else {
                    assert_close(*g, *w, w.abs(), &format!("{what} {} len {n}", t.name()));
                }
            }
        }
    }

    #[test]
    fn backward_rows_and_dequant_tiers_agree() {
        let mut rng = seeded_rng(0xfeed_face_dead_beef);
        for &n in LENS {
            if n == 0 {
                continue;
            }
            let mut y: Vec<f32> = values(&mut rng, n);
            scalar::softmax_in_place(&mut y);
            let g0 = values(&mut rng, n);

            let mut want = g0.clone();
            scalar::softmax_bwd_row(&mut want, &y);
            for t in tiers() {
                let mut got = g0.clone();
                softmax_bwd_row(t, &mut got, &y);
                for (w, g) in want.iter().zip(&got) {
                    if t == SimdTier::Avx2 {
                        assert_close(*g, *w, 1.0, &format!("softmax_bwd avx2 len {n}"));
                    } else {
                        assert_eq!(w.to_bits(), g.to_bits(), "softmax_bwd {} len {n}", t.name());
                    }
                }
            }

            let mut ly = y.clone();
            for v in &mut ly {
                *v = v.max(1e-9).ln();
            }
            let mut want = g0.clone();
            scalar::log_softmax_bwd_row(&mut want, &ly);
            for t in tiers() {
                let mut got = g0.clone();
                log_softmax_bwd_row(t, &mut got, &ly);
                for (w, g) in want.iter().zip(&got) {
                    if t == SimdTier::Avx2 {
                        assert_close(*g, *w, w.abs().max(1.0), "log_softmax_bwd avx2");
                    } else {
                        assert_eq!(w.to_bits(), g.to_bits(), "lsm_bwd {} len {n}", t.name());
                    }
                }
            }

            let q: Vec<u8> = (0..n).map(|_| rng.range(0..256) as u8).collect();
            let (scale, zero) = (
                rng.range_f32(-0.5..0.5).abs() * 0.01,
                rng.range_f32(-0.5..0.5),
            );
            let mut want = vec![0.0f32; n];
            scalar::dequant_u8(&q, scale, zero, &mut want);
            for t in tiers() {
                let mut got = vec![0.0f32; n];
                dequant_u8(t, &q, scale, zero, &mut got);
                for (w, g) in want.iter().zip(&got) {
                    if t == SimdTier::Avx2 {
                        // FMA skips the product rounding, so the two paths
                        // differ by at most one rounding of the *operands*
                        // (which can be many ULP of a cancelled result).
                        let bound = (zero.abs() + scale * 255.0) * f32::EPSILON;
                        assert!((w - g).abs() <= bound, "dequant avx2: {w} vs {g}");
                    } else {
                        assert_eq!(w.to_bits(), g.to_bits(), "dequant {} len {n}", t.name());
                    }
                }
            }
        }
    }

    #[test]
    fn avx2_exp_ln_follow_libm() {
        if !available(SimdTier::Avx2) {
            return;
        }
        // softmax/log_softmax at width 8 exercise exp256 directly; entropy
        // at width 8 exercises log256. Compare against libm across a range
        // of magnitudes, including the clamp region.
        let xs: Vec<f32> = (-40..=40).map(|i| i as f32 * 2.3).collect();
        for w in xs.chunks(8) {
            if w.len() < 8 {
                continue;
            }
            let mut row = w.to_vec();
            row.push(0.0); // force a tail so both paths run
            let mut want = row.clone();
            scalar::log_softmax_in_place(&mut want);
            log_softmax_in_place(SimdTier::Avx2, &mut row);
            for (a, b) in want.iter().zip(&row) {
                assert_close(*b, *a, a.abs().max(1.0), "exp256 via log_softmax");
            }
        }
        let ps: Vec<f32> = (1..=64).map(|i| i as f32 / 64.0).collect();
        for w in ps.chunks(8) {
            let want = scalar::row_entropy(w);
            let got = row_entropy(SimdTier::Avx2, w);
            assert_close(got, want, 1.0, "log256 via row_entropy");
        }
    }

    #[test]
    fn latch_defaults_and_force() {
        // In-process we cannot re-latch from env (first caller wins), but
        // the resolved tier must be one the CPU supports, and force_active
        // must override it.
        let t = active();
        assert!(available(t), "latched tier {t:?} unsupported");
        force_active(SimdTier::Scalar);
        assert_eq!(active(), SimdTier::Scalar);
        force_active(t);
        assert_eq!(active(), t);
    }
}
