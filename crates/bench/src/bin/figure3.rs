//! Figure 3 — "Student learning for both Knowledge Distillation and
//! Reliable Data Distillation" — turned into a measurable experiment.
//!
//! The paper's figure argues that a classical KD student inherits the
//! teacher's mistakes (it mimics *all* outputs), while an RDD student only
//! learns reliable knowledge and keeps its chance to correct unreliable
//! nodes. This binary quantifies the *error-inheritance rate*: among test
//! nodes the teacher gets wrong, how often does each student repeat the
//! teacher's exact wrong label?

use std::rc::Rc;

use rdd_core::compute_reliability;
use rdd_models::{train, Gcn, GraphContext, PredictorExt};
use rdd_tensor::{seeded_rng, Tape, Var};

fn main() {
    let cfg = rdd_bench::preset("cora");
    let data = cfg.generate();
    let (gcn_cfg, train_cfg) = rdd_bench::model_configs(cfg.name);
    let ctx = GraphContext::new(&data);

    // Teacher.
    let mut rng = seeded_rng(1);
    let mut teacher = Gcn::new(&ctx, gcn_cfg.clone(), &mut rng);
    train(&mut teacher, &ctx, &data, &train_cfg, &mut rng, None);
    let teacher_logits = Rc::new(teacher.predictor(&ctx).logits());
    let teacher_proba = teacher_logits.softmax_rows();
    let teacher_pred = teacher_proba.argmax_rows();
    let teacher_wrong: Vec<usize> = data
        .test_idx
        .iter()
        .copied()
        .filter(|&i| teacher_pred[i] != data.labels[i])
        .collect();
    println!(
        "teacher: {:.1}% test accuracy, {} wrong test nodes",
        100.0 * data.test_accuracy(&teacher_pred),
        teacher_wrong.len()
    );

    let inheritance = |student_pred: &[usize]| -> f32 {
        if teacher_wrong.is_empty() {
            return 0.0;
        }
        teacher_wrong
            .iter()
            .filter(|&&i| student_pred[i] == teacher_pred[i])
            .count() as f32
            / teacher_wrong.len() as f32
    };

    let mut is_labeled = vec![false; data.n()];
    for &i in &data.train_idx {
        is_labeled[i] = true;
    }
    let all_nodes: Rc<Vec<usize>> = Rc::new((0..data.n()).collect());

    // 1. Independent student (no teacher) — the diversity baseline.
    let mut rng = seeded_rng(2);
    let mut independent = Gcn::new(&ctx, gcn_cfg.clone(), &mut rng);
    train(&mut independent, &ctx, &data, &train_cfg, &mut rng, None);
    let ind_pred = independent.predictor(&ctx).predict();

    // 2. Classical KD student: mimics ALL teacher outputs.
    let mut rng = seeded_rng(2);
    let mut kd_student = Gcn::new(&ctx, gcn_cfg.clone(), &mut rng);
    {
        let t = Rc::clone(&teacher_logits);
        let nodes = Rc::clone(&all_nodes);
        let mut hook = move |tape: &mut Tape, logits: Var, _e: usize| {
            let l = tape.mse_rows(logits, Rc::clone(&t), Rc::clone(&nodes));
            vec![(l, 1.0f32)]
        };
        train(
            &mut kd_student,
            &ctx,
            &data,
            &train_cfg,
            &mut rng,
            Some(&mut hook),
        );
    }
    let kd_pred = kd_student.predictor(&ctx).predict();

    // 3. RDD student: per-epoch reliability filtering (Algorithm 1).
    let mut rng = seeded_rng(2);
    let mut rdd_student = Gcn::new(&ctx, gcn_cfg.clone(), &mut rng);
    {
        let tp = teacher_proba.clone();
        let tl = Rc::new(teacher_proba.clone());
        let labels = data.labels.clone();
        let graph = &data.graph;
        let is_labeled = &is_labeled;
        let mut hook = move |tape: &mut Tape, logits: Var, epoch: usize| {
            let student_proba = tape.value(logits).softmax_rows();
            let sets = compute_reliability(&tp, &student_proba, &labels, is_labeled, 0.4, graph);
            let gamma = rdd_core::cosine_gamma(3.0, epoch, 150);
            if sets.distill.is_empty() || gamma <= 0.0 {
                return vec![];
            }
            let probs = tape.softmax(logits);
            let l = tape.mse_rows(probs, Rc::clone(&tl), Rc::new(sets.distill));
            vec![(l, gamma)]
        };
        train(
            &mut rdd_student,
            &ctx,
            &data,
            &train_cfg,
            &mut rng,
            Some(&mut hook),
        );
    }
    let rdd_pred = rdd_student.predictor(&ctx).predict();

    println!();
    println!(
        "{:<22} {:>9} {:>22}",
        "student", "test acc", "error inheritance"
    );
    println!("{}", "-".repeat(55));
    for (name, pred) in [
        ("independent (no KD)", &ind_pred),
        ("classical KD", &kd_pred),
        ("RDD (reliable only)", &rdd_pred),
    ] {
        println!(
            "{name:<22} {:>8.1}% {:>21.1}%",
            100.0 * data.test_accuracy(pred),
            100.0 * inheritance(pred)
        );
    }
    println!();
    println!("expected shape (paper Figure 3): classical KD inherits the teacher's");
    println!("mistakes at the highest rate; RDD stays closer to the independent");
    println!("student on teacher-wrong nodes while gaining accuracy overall.");
    rdd_obs::flush();
}
