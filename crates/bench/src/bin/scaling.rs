//! Network-size scaling study (beyond the paper's 4×4).
//!
//! The paper positions Orion as a tool for *emerging* interconnected
//! microprocessors; this study checks that the library scales past the
//! case-study configuration: k×k tori from 2×2 to 8×8 under the
//! on-chip VC-router platform at a fixed per-node injection rate, plus
//! wall-clock simulation throughput (the §4.1 "cycles per second"
//! metric) at each size.

use std::time::Instant;

use orion_bench::{print_table, Effort};
use orion_core::{Experiment, LinkConfig, NetworkConfig, RouterConfig};
use orion_net::Topology;
use orion_tech::{Hertz, Microns};

fn config(k: u32) -> NetworkConfig {
    // Constant tile size: links stay 3 mm regardless of k (a bigger
    // die), so per-hop energy is size-independent and power scales with
    // node count and hop count only.
    NetworkConfig::new(
        Topology::torus(&[k, k]).expect("valid"),
        RouterConfig::VirtualChannel { vcs: 2, depth: 8 },
        256,
    )
    .clock(Hertz::from_ghz(2.0))
    .link(LinkConfig::OnChip {
        length: Microns::from_mm(3.0),
    })
}

fn main() {
    let effort = Effort::from_args();
    let options = effort.options();
    let rate = 0.05;

    let mut rows = Vec::new();
    for k in [2u32, 3, 4, 6, 8] {
        eprintln!("running {k}x{k} ...");
        let cfg = config(k);
        let zero_load = cfg.zero_load_latency();
        let started = Instant::now();
        let report = Experiment::new(cfg)
            .injection_rate(rate)
            .seed(1)
            .warmup(options.warmup)
            .sample_packets(options.sample_packets)
            .max_cycles(options.max_cycles)
            .run()
            .expect("valid config");
        let elapsed = started.elapsed().as_secs_f64();
        let sim_cycles = report.measured_cycles() + options.warmup;
        rows.push(vec![
            format!("{k}x{k}"),
            format!("{:.2}", zero_load),
            format!("{:.1}", report.avg_latency()),
            format!("{:.2}", report.total_power().0),
            format!("{:.4}", report.total_power().0 / (k * k) as f64),
            format!("{:.0}k", sim_cycles as f64 / elapsed / 1000.0),
        ]);
    }
    print_table(
        &format!("k x k torus scaling at {rate} pkt/cycle/node (VC 2x8, 256-bit, 2 GHz)"),
        &[
            "size",
            "zero-load (cyc)",
            "latency (cyc)",
            "power (W)",
            "W/node",
            "sim speed (cyc/s)",
        ],
        &rows,
    );
    println!("\n(zero-load latency grows with average hop count ~k/2 per dimension;");
    println!(" per-node power grows with it too — each flit makes more hops;");
    println!(" the paper's Pentium III ran ~1000 cycles/s on the 4x4 VC network)");
}
