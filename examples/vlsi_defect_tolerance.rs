//! VLSI defect tolerance (§1 of the paper): find the largest defect-free
//! `k × k` sub-crossbar of a partially defective nanoscale crossbar.
//!
//! A reconfigurable crossbar connects `n` horizontal wires to `n` vertical
//! wires through programmable crosspoints; manufacturing defects knock out
//! 5–30 % of the crosspoints. Mapping a `k × k` logic array onto the
//! fabric requires `k` row wires and `k` column wires whose crosspoints all
//! work — exactly a maximum balanced biclique of the "working crosspoint"
//! bipartite graph (Al-Yamani et al. [1], Tahoori [25]).
//!
//! ```text
//! cargo run -p mbb-examples --release --example vlsi_defect_tolerance
//! ```

use mbb_bigraph::generators::dense_uniform;
use mbb_core::dense_mbb_graph;
use mbb_core::engine::MbbEngine;

fn main() {
    println!("defect-tolerant crossbar mapping via denseMBB");
    println!("fabric: 40x40 crossbar, defect rates 10%..35%\n");
    println!(
        "{:<12} {:>10} {:>16} {:>12}",
        "defect rate", "usable k", "fabric util.", "time"
    );

    for defect_percent in [10u32, 15, 20, 25, 30, 35] {
        let working_rate = 1.0 - defect_percent as f64 / 100.0;
        // Edge (r, c) present ⇔ crosspoint between row r and column c works.
        let fabric = dense_uniform(40, 40, working_rate, 96 + defect_percent as u64);

        let start = std::time::Instant::now();
        let (array, _) = dense_mbb_graph(&fabric);
        let elapsed = start.elapsed();

        let k = array.half_size();
        assert!(array.is_valid(&fabric));
        println!(
            "{:<12} {:>10} {:>15.1}% {:>11.2?}",
            format!("{defect_percent}%"),
            k,
            100.0 * (k * k) as f64 / (40.0 * 40.0),
            elapsed
        );
    }

    println!("\nEach row is the largest logic array mappable onto the defective fabric.");
    println!("The search is exact: no larger defect-free sub-crossbar exists.");

    // Follow-up engineering question, served by an engine session on the
    // worst fabric: "if we *must* route through crosspoint (0, 0), how
    // large an array survives?" — an edge-anchored query.
    let fabric = dense_uniform(40, 40, 0.65, 96 + 35);
    let engine = MbbEngine::new(fabric);
    let (r, c) = engine
        .graph()
        .edges()
        .next()
        .expect("some crosspoint works");
    let pinned = engine.anchored_edge(r, c);
    match &pinned.value {
        Some(array) => println!(
            "\npinning crosspoint ({r}, {c}): best array is {}x{}",
            array.half_size(),
            array.half_size()
        ),
        None => println!("\ncrosspoint ({r}, {c}) is defective"),
    }
    assert!(pinned.termination.is_complete());
}
