//! Figure 5: power-performance of on-chip 4×4 torus networks under
//! wormhole vs. virtual-channel flow control at varying packet
//! injection rates (§4.2).
//!
//! Regenerates:
//! * **5(a)** — average packet latency vs. injection rate for WH64,
//!   VC16, VC64 and VC128,
//! * **5(b)** — total network power vs. injection rate,
//! * **5(c)** — VC64 average power breakdown (input buffers, crossbar,
//!   arbiter, link).
//!
//! Expected shapes (paper): VC16 saturates at ≈0.15 pkt/cycle/node,
//! above WH64; VC16 consumes less power than WH64 below ≈0.11 and more
//! above; VC64 ≈ WH64 power before saturation; VC128 is the most
//! power-hungry with no throughput gain over VC64; power levels off
//! past saturation; buffers + crossbar exceed 85% of node power with
//! arbiters < 1%.
//!
//! The grid itself lives in `examples/specs/fig5.toml` and runs
//! through the `orion-exp` engine — this binary only renders the
//! resulting records as the paper's tables. The same spec is runnable
//! (with caching and resume) via
//! `orion-power-cli experiment run examples/specs/fig5.toml`.

use orion_bench::{
    fmt_record_latency, fmt_record_power, print_saturation_summary, print_table, rate_rows,
    record_columns, record_saturation_rate, run_embedded,
};

const SPEC: &str = include_str!("../../../../examples/specs/fig5.toml");

fn main() {
    let (spec, records) = run_embedded(SPEC);

    let presets = ["wh64", "vc16", "vc64", "vc128"];
    let cols = record_columns(&records, &presets, |r| &r.preset);
    let header = ["rate (pkt/cyc/node)", "WH64", "VC16", "VC64", "VC128"];
    print_table(
        "Figure 5(a): average packet latency (cycles; * = saturated)",
        &header,
        &rate_rows(&spec.rates, &cols, |r| fmt_record_latency(r)),
    );
    print_table(
        "Figure 5(b): total network power (W; ! = deadlocked, power over live window)",
        &header,
        &rate_rows(&spec.rates, &cols, |r| fmt_record_power(r)),
    );
    let saturation: Vec<(&str, Option<f64>)> = header[1..]
        .iter()
        .zip(&cols)
        .map(|(name, col)| (*name, record_saturation_rate(col)))
        .collect();
    print_saturation_summary(&saturation);

    // 5(c): VC64 breakdown at a representative pre-saturation rate.
    let rate = 0.10;
    let vc64 = cols[2]
        .iter()
        .find(|r| (r.rate - rate).abs() < 1e-9)
        .expect("0.10 is a grid rate");
    let parts = [
        ("buffer", vc64.buffer_w),
        ("crossbar", vc64.crossbar_w),
        ("arbiter", vc64.arbiter_w),
        ("link", vc64.link_w),
    ];
    let rows: Vec<Vec<String>> = parts
        .iter()
        .map(|(name, w)| {
            vec![
                name.to_string(),
                format!("{w:.4}"),
                format!("{:.2}%", 100.0 * w / vc64.total_power_w),
            ]
        })
        .collect();
    print_table(
        &format!("Figure 5(c): VC64 average power breakdown at rate {rate}"),
        &["component", "power (W)", "share"],
        &rows,
    );
    println!(
        "  buffers + crossbar = {:.1}% of node power (paper: > 85%)",
        100.0 * (vc64.buffer_w + vc64.crossbar_w) / vc64.total_power_w
    );
}
