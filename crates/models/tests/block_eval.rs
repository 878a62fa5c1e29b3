//! Block eval: an eval forward over a row set's receptive-field block must
//! give exactly the full-graph eval's rows.
//!
//! The reference is the training-mode forward with every dropout at zero:
//! it runs the full-graph path (Â itself, all of X), independent of the
//! block code. `Gcn` at depths 1–3 and the distilled `MlpModel` (zero
//! hops) are checked on every SIMD tier the CPU has, over a handful of
//! rows (blocks strictly smaller than the graph), the validation rows, and
//! all rows. Equality is bitwise.
//!
//! This is its own test binary: `simd::force_active` switches the tier for
//! the whole process.

use std::sync::{Mutex, MutexGuard};

use rdd_graph::SynthConfig;
use rdd_models::{Gcn, GcnConfig, GraphContext, MlpConfig, MlpModel, Model, RowSet};
use rdd_tensor::simd::{self, SimdTier};
use rdd_tensor::{seeded_rng, Matrix, Tape};

fn on_every_tier(mut check: impl FnMut(SimdTier)) {
    static LOCK: Mutex<()> = Mutex::new(());
    let _guard: MutexGuard<'_, ()> = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let before = simd::active();
    for tier in [SimdTier::Scalar, SimdTier::Avx2] {
        if simd::available(tier) {
            simd::force_active(tier);
            check(tier);
        }
    }
    simd::force_active(before);
}

/// Full-graph logits through the training path with no dropout.
fn reference(model: &dyn Model, ctx: &GraphContext) -> Matrix {
    let mut tape = Tape::new();
    let v = model.forward(&mut tape, ctx, true, &mut seeded_rng(0));
    tape.value(v).clone()
}

fn block_logits(model: &dyn Model, ctx: &GraphContext, rows: &RowSet) -> Matrix {
    let mut tape = Tape::new();
    let v = model.eval_rows(&mut tape, ctx, rows);
    tape.value(v).clone()
}

fn assert_rows_match(model: &dyn Model, ctx: &GraphContext, rows: &RowSet, what: &str) {
    let full = reference(model, ctx);
    let got = block_logits(model, ctx, rows);
    assert_eq!(got.rows(), rows.rows().len(), "{what}: row count");
    for (r, &node) in rows.rows().iter().enumerate() {
        let same = got
            .row(r)
            .iter()
            .zip(full.row(node))
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(
            same,
            "{what}: row {r} (node {node}) differs from the full eval"
        );
    }
}

fn row_sets(ctx: &GraphContext, val: &[usize]) -> Vec<(&'static str, std::rc::Rc<RowSet>)> {
    vec![
        // Out of order and repeated: the set sorts and deduplicates.
        ("few", ctx.row_set(&[41, 7, 7, 199, 3])),
        ("val", ctx.row_set(val)),
        ("all", ctx.all_rows()),
    ]
}

#[test]
fn gcn_block_eval_equals_full_eval_rows_at_depths_one_to_three() {
    let data = SynthConfig::tiny().generate();
    let ctx = GraphContext::new(&data);
    on_every_tier(|tier| {
        for hidden in [vec![], vec![16], vec![16, 8]] {
            let depth = hidden.len() + 1;
            let cfg = GcnConfig {
                hidden,
                dropout: 0.0,
                input_dropout: 0.0,
            };
            let model = Gcn::new(&ctx, cfg, &mut seeded_rng(depth as u64));
            for (name, rows) in row_sets(&ctx, &data.val_idx) {
                let what = format!("{} gcn depth {depth} rows {name}", tier.name());
                assert_rows_match(&model, &ctx, &rows, &what);
            }
            // The eval-mode forward is the block over all rows.
            let mut tape = Tape::new();
            let v = model.forward(&mut tape, &ctx, false, &mut seeded_rng(9));
            let full = reference(&model, &ctx);
            assert_eq!(tape.value(v).as_slice(), full.as_slice());
        }
    });
}

#[test]
fn mlp_student_block_is_its_rows() {
    let data = SynthConfig::tiny().generate();
    let ctx = GraphContext::new(&data);
    let cfg = MlpConfig {
        hidden: vec![32, 16],
        dropout: 0.0,
        input_dropout: 0.0,
    };
    let model = MlpModel::new(&ctx, cfg, &mut seeded_rng(4));
    on_every_tier(|tier| {
        for (name, rows) in row_sets(&ctx, &data.val_idx) {
            let what = format!("{} mlp rows {name}", tier.name());
            assert_rows_match(&model, &ctx, &rows, &what);
            assert_eq!(
                rows.block(0).features.rows(),
                rows.rows().len(),
                "{what}: a zero-hop block is the rows themselves"
            );
        }
    });
}

#[test]
fn blocks_restrict_a_hat_hop_by_hop() {
    let data = SynthConfig::tiny().generate();
    let ctx = GraphContext::new(&data);
    let rows = ctx.row_set(&[41, 7, 199, 3]);
    assert!(std::rc::Rc::ptr_eq(&rows, &ctx.row_set(&[3, 7, 41, 199])));
    let block = rows.block(2);
    assert!(std::rc::Rc::ptr_eq(&block, &rows.block(2)), "built once");
    // Outermost first: (1-hop x 2-hop), then (rows x 1-hop).
    let (inner, outer) = (&block.adj[1], &block.adj[0]);
    assert_eq!(inner.rows(), 4);
    assert_eq!(inner.cols(), outer.rows());
    assert_eq!(outer.cols(), block.features.rows());
    assert!(
        outer.cols() < ctx.n,
        "two hops of four rows cover the graph"
    );
    // Each kept row holds its Â entries, in order, with renumbered columns.
    for (r, &node) in rows.rows().iter().enumerate() {
        assert_eq!(inner.row(r).1, ctx.a_hat.row(node).1);
        assert_eq!(inner.row_nnz(r), ctx.a_hat.row_nnz(node));
    }
    let all = ctx.all_rows();
    assert!(all.is_all());
    assert!(std::rc::Rc::ptr_eq(&all.block(1).adj[0], &ctx.a_hat));
}
