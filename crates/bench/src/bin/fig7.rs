//! Figure 7: power-performance of chip-to-chip 4×4 torus networks
//! composed of central-buffered (CB) and input-buffered crossbar (XB)
//! routers at varying packet injection rates (§4.4).
//!
//! Regenerates:
//! * **7(a)/(b)** — latency and total network power under uniform
//!   random traffic,
//! * **7(d)/(e)** — latency and total network power under broadcast
//!   traffic from node (1,2),
//! * **7(c)/(f)** — XB and CB node power breakdowns under random
//!   traffic.
//!
//! Expected shapes (paper): CB saturates below XB under uniform random
//! traffic (2 fabric ports vs 5); CB performs better under broadcast
//! (no head-of-line blocking); CB consumes more power (the central
//! buffer dominates); links exceed 70% of XB node power (3 W
//! traffic-insensitive chip-to-chip links).
//!
//! The grids live in `examples/specs/fig7.toml` and
//! `examples/specs/fig7_broadcast.toml` and run through the `orion-exp`
//! engine; this binary only renders the records. Both specs are
//! runnable (with caching and resume) via `orion-power-cli experiment
//! run`.

use orion_bench::{
    fmt_record_latency, fmt_record_power, print_saturation_summary, print_table, rate_rows,
    record_columns, record_saturation_rate, run_embedded,
};
use orion_core::presets;

const UNIFORM: &str = include_str!("../../../../examples/specs/fig7.toml");
const BROADCAST: &str = include_str!("../../../../examples/specs/fig7_broadcast.toml");

fn main() {
    // Matched-area check (the paper's §4.4 methodology).
    let a_xb = presets::xb_chip_to_chip()
        .router_area()
        .expect("valid config")
        .total();
    let a_cb = presets::cb_chip_to_chip()
        .router_area()
        .expect("valid config")
        .total();
    println!(
        "router area estimate: XB {:.3} mm^2, CB {:.3} mm^2 (ratio {:.2})",
        a_xb.as_mm2(),
        a_cb.as_mm2(),
        a_xb.0 / a_cb.0
    );

    // --- 7(a)/(b): uniform random traffic. ---
    let (spec, records) = run_embedded(UNIFORM);
    let cols = record_columns(&records, &["xb", "cb"], |r| &r.preset);
    let header = ["rate (pkt/cyc/node)", "XB", "CB"];
    print_table(
        "Figure 7(a): average packet latency, uniform random (cycles; * = saturated)",
        &header,
        &rate_rows(&spec.rates, &cols, |r| fmt_record_latency(r)),
    );
    print_table(
        "Figure 7(b): total network power, uniform random (W)",
        &header,
        &rate_rows(&spec.rates, &cols, |r| fmt_record_power(r)),
    );
    print_saturation_summary(&[
        ("XB", record_saturation_rate(&cols[0])),
        ("CB", record_saturation_rate(&cols[1])),
    ]);

    // --- 7(d)/(e): broadcast traffic from (1,2). ---
    let (bc_spec, bc_records) = run_embedded(BROADCAST);
    let bc_cols = record_columns(&bc_records, &["xb", "cb"], |r| &r.preset);
    let header = ["source rate (pkt/cyc)", "XB", "CB"];
    print_table(
        "Figure 7(d): average packet latency, broadcast from (1,2) (cycles; * = saturated)",
        &header,
        &rate_rows(&bc_spec.rates, &bc_cols, |r| fmt_record_latency(r)),
    );
    print_table(
        "Figure 7(e): total network power, broadcast from (1,2) (W)",
        &header,
        &rate_rows(&bc_spec.rates, &bc_cols, |r| fmt_record_power(r)),
    );

    // --- 7(c)/(f): node power breakdowns under random traffic. ---
    let breakdown_rate = 0.09;
    for (name, col, fig) in [("XB", &cols[0], "7(c)"), ("CB", &cols[1], "7(f)")] {
        let r = col
            .iter()
            .find(|r| (r.rate - breakdown_rate).abs() < 1e-9)
            .expect("0.09 is a grid rate");
        let parts = [
            ("buffer", r.buffer_w),
            ("central-buffer", r.central_w),
            ("crossbar", r.crossbar_w),
            ("arbiter", r.arbiter_w),
            ("link", r.link_w),
        ];
        let rows: Vec<Vec<String>> = parts
            .iter()
            .map(|(component, w)| {
                vec![
                    component.to_string(),
                    format!("{w:.3}"),
                    format!("{:.2}%", 100.0 * w / r.total_power_w),
                ]
            })
            .collect();
        print_table(
            &format!("Figure {fig}: {name} average power breakdown at rate {breakdown_rate} (random traffic)"),
            &["component", "power (W)", "share"],
            &rows,
        );
        if name == "XB" {
            println!(
                "  links = {:.1}% of node power (paper: > 70%)",
                100.0 * r.link_w / r.total_power_w
            );
        }
    }
}
