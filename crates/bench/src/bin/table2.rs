//! Table 2 — overview of the four datasets.
//!
//! Prints the paper's reported statistics next to the generated synthetic
//! equivalents (the generator matches N/#features/#classes exactly and
//! targets the edge count; label rate follows the Planetoid protocol).

use rdd_bench::preset;
use rdd_graph::DatasetStats;

fn main() {
    let paper_rows = [
        ("Cora", 2708usize, 1433usize, 5429usize, 7usize),
        ("Citeseer", 3327, 3703, 4732, 6),
        ("Pubmed", 19717, 500, 44338, 3),
        ("NELL", 65755, 61278, 266144, 210),
    ];
    println!("paper Table 2:");
    println!(
        "{:<10} {:>7} {:>9} {:>8} {:>8}",
        "dataset", "nodes", "features", "edges", "classes"
    );
    for (name, n, f, e, k) in paper_rows {
        println!("{name:<10} {n:>7} {f:>9} {e:>8} {k:>8}");
    }
    println!();
    println!("generated synthetic equivalents (nell-sim is the scaled variant; see DESIGN.md):");
    println!("{}", DatasetStats::header());
    for name in ["cora", "citeseer", "pubmed", "nell"] {
        let data = preset(name).generate();
        println!("{}", DatasetStats::of(&data).row());
    }
    rdd_obs::flush();
}
