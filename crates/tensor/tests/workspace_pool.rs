//! Steady-state allocation test: two identical training epochs against one
//! workspace — the second must be served entirely from the pool (zero fresh
//! allocations), and the pool's rdd-obs counters must land in the trace.
//!
//! Single `#[test]` on purpose: the recorder sink is process-global, so the
//! scenario must own the whole process.

use std::rc::Rc;

use rdd_tensor::{Matrix, Tape, Workspace};

/// One forward + backward "epoch" of a tiny one-layer classifier, shapes
/// fixed across calls.
fn epoch(ws: &Workspace, x: &Matrix, w: &Matrix, labels: &Rc<Vec<usize>>, idx: &Rc<Vec<usize>>) {
    let mut tape = Tape::with_workspace(ws);
    let wv = tape.param_of(0, w);
    let xv = tape.constant(x.clone());
    let h = tape.matmul(xv, wv);
    let a = tape.relu(h);
    let loss = tape.ce_masked(a, Rc::clone(labels), Rc::clone(idx));
    let grads = tape.backward(loss, 1);
    assert!(grads[0].is_some(), "parameter gradient missing");
    ws.give_grads(grads);
}

#[test]
fn second_epoch_allocates_nothing_and_counters_reach_the_trace() {
    let path = std::env::temp_dir().join(format!("rdd_ws_pool_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    rdd_obs::init_file(&path).expect("init trace sink");

    let ws = Workspace::with_pooling(true);
    let x = Matrix::from_vec(8, 4, (0..32).map(|i| (i as f32) * 0.1 - 1.5).collect());
    let w = Matrix::from_vec(4, 3, (0..12).map(|i| (i as f32) * 0.05 - 0.3).collect());
    let labels = Rc::new(vec![0usize, 1, 2, 0, 1, 2, 0, 1]);
    let idx = Rc::new((0..8).collect::<Vec<usize>>());

    epoch(&ws, &x, &w, &labels, &idx);
    let after_first = ws.stats();
    assert!(after_first.misses > 0, "first epoch must populate the pool");
    assert!(
        after_first.retained_bytes > 0,
        "tape drop must return buffers"
    );

    epoch(&ws, &x, &w, &labels, &idx);
    let after_second = ws.stats();
    assert_eq!(
        after_second.misses, after_first.misses,
        "second identical epoch must be allocation-free (all takes hit)"
    );
    assert!(
        after_second.hits > after_first.hits,
        "second epoch never touched the pool"
    );

    // Pooling must not change the numbers: replay both epochs unpooled and
    // compare the parameter gradient bitwise.
    let grad_pooled = {
        let mut tape = Tape::with_workspace(&ws);
        let wv = tape.param_of(0, &w);
        let xv = tape.constant(x.clone());
        let h = tape.matmul(xv, wv);
        let a = tape.relu(h);
        let loss = tape.ce_masked(a, Rc::clone(&labels), Rc::clone(&idx));
        tape.backward(loss, 1)[0].take().expect("grad")
    };
    let grad_plain = {
        let mut tape = Tape::new();
        let wv = tape.param_of(0, &w);
        let xv = tape.constant(x.clone());
        let h = tape.matmul(xv, wv);
        let a = tape.relu(h);
        let loss = tape.ce_masked(a, Rc::clone(&labels), Rc::clone(&idx));
        tape.backward(loss, 1)[0].take().expect("grad")
    };
    assert_eq!(grad_pooled.shape(), grad_plain.shape());
    for (a, b) in grad_pooled.as_slice().iter().zip(grad_plain.as_slice()) {
        assert_eq!(a.to_bits(), b.to_bits(), "pooled gradient diverged");
    }

    rdd_obs::flush();
    let src = std::fs::read_to_string(&path).expect("trace file readable");
    for counter in ["workspace.hits", "workspace.misses"] {
        assert!(
            src.lines()
                .any(|l| l.contains("\"ev\":\"counter\"") && l.contains(counter)),
            "{counter} missing from flush snapshot"
        );
    }
    assert!(
        src.lines()
            .any(|l| l.contains("\"ev\":\"gauge\"") && l.contains("workspace.bytes_retained")),
        "workspace.bytes_retained gauge missing from flush snapshot"
    );
    let _ = std::fs::remove_file(&path);
}
