//! Ablation: flow-control granularity on the paper's wormhole router.
//!
//! The paper's WH64 runs flit-level wormhole flow control, which on a
//! dimension-ordered torus is not deadlock-free; deep past saturation
//! the network wedges (marked `!` in fig5). This ablation compares the
//! same router under virtual cut-through and under bubble flow control
//! (Puente/Carrion, as in the BlueGene/L torus) — the latter is
//! provably deadlock-free and shows the post-saturation power plateau
//! the paper reports, at the cost of slightly earlier saturation.
//!
//! The grid lives in `examples/specs/ablation_flow_control.toml` and
//! runs through the `orion-exp` engine; this binary only renders the
//! records.

use orion_bench::{
    fmt_record_latency, fmt_record_power, print_table, rate_rows, record_columns, run_embedded,
};

const SPEC: &str = include_str!("../../../../examples/specs/ablation_flow_control.toml");

fn main() {
    let (spec, records) = run_embedded(SPEC);

    let flows = ["flit-level", "cut-through", "bubble"];
    let cols = record_columns(&records, &flows, |r| &r.flow_control);
    let header = ["rate", "flit-level", "cut-through", "bubble"];
    print_table(
        "WH64 latency under three flow controls (cycles; * saturated, ! deadlocked)",
        &header,
        &rate_rows(&spec.rates, &cols, |r| fmt_record_latency(r)),
    );
    print_table(
        "WH64 total network power (W)",
        &header,
        &rate_rows(&spec.rates, &cols, |r| fmt_record_power(r)),
    );
    println!("\n(bubble never deadlocks: its power column shows the full");
    println!(" post-saturation plateau the paper draws for every configuration)");
}
