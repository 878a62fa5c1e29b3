//! Structural analysis of the synthetic presets, next to the published
//! statistics of the real datasets they substitute for. Supports DESIGN.md's
//! substitution-fidelity argument: beyond size and homophily, the presets
//! should reproduce the *structural regime* (sparse, disassortative,
//! low-clustering graphs where most nodes sit 2–4 hops from a label).

use rdd_bench::preset;
use rdd_graph::analysis::{
    average_clustering, degree_assortativity, distance_histogram, distance_to_set, k_core,
};

fn main() {
    // Published reference values for the real datasets (from the original
    // dataset papers / common benchmark surveys).
    println!("real datasets (literature): clustering — Cora 0.24, Citeseer 0.14, Pubmed 0.06;");
    println!("all three mildly disassortative; most unlabeled nodes within 4 hops of a label.");
    println!();
    println!(
        "{:<14} {:>10} {:>13} {:>9} {:>30}",
        "preset", "clustering", "assortativity", "max core", "label-distance histogram"
    );
    for name in ["cora", "citeseer", "pubmed", "nell"] {
        let data = preset(name).generate();
        let clustering = average_clustering(&data.graph);
        let assort = degree_assortativity(&data.graph);
        let core = k_core(&data.graph);
        let max_core = core.iter().copied().max().unwrap_or(0);
        let dist = distance_to_set(&data.graph, &data.train_idx);
        let hist = distance_histogram(&dist);
        println!(
            "{:<14} {:>10.3} {:>13.3} {:>9} {:>30}",
            data.name,
            clustering,
            assort,
            max_core,
            format!("{hist:?}")
        );
    }
    println!();
    println!("histogram buckets: [0 hops (labeled), 1, 2, 3, 4+, unreachable]");
    rdd_obs::flush();
}
