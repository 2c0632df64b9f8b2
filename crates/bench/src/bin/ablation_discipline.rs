//! Ablation: VC allocation disciplines on a torus.
//!
//! Dimension-ordered routing on a torus has cyclic channel dependencies
//! (Dally & Seitz), so the paper's implicit unrestricted VC allocation
//! admits deadlock deep past saturation. This ablation quantifies what
//! the provably deadlock-free alternatives cost: Dally's dateline
//! classes halve the VCs visible to a packet; Duato-style escape VCs
//! restrict only two of them.
//!
//! The grid lives in `examples/specs/ablation_discipline.toml` and
//! runs through the `orion-exp` engine; this binary only renders the
//! records.

use orion_bench::{fmt_record_latency, print_table, rate_rows, record_columns, run_embedded};
use orion_exp::CellRecord;

const SPEC: &str = include_str!("../../../../examples/specs/ablation_discipline.toml");

fn main() {
    let (spec, records) = run_embedded(SPEC);
    let disciplines = ["unrestricted", "dateline", "escape"];
    for (preset, vcs) in [("vc16", 2), ("vc4x8", 4), ("vc64", 8)] {
        let mine: Vec<CellRecord> = records
            .iter()
            .filter(|r| r.preset == preset)
            .cloned()
            .collect();
        let columns = record_columns(&mine, &disciplines, |r| &r.vc_discipline);
        print_table(
            &format!("{vcs} VCs x 8 flits: latency (cycles; * saturated, ! deadlocked)"),
            &["rate", "unrestricted", "dateline", "escape"],
            &rate_rows(&spec.rates, &columns, |r| fmt_record_latency(r)),
        );
    }
    println!("\n(unrestricted matches the paper's behaviour but deadlocks past the");
    println!(" knee; dateline never deadlocks but halves VC parallelism; escape");
    println!(" recovers most of the loss once more than 2 VCs exist)");
}
