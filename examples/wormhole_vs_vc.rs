//! Wormhole vs. virtual-channel routers (the §4.2 case study, reduced).
//!
//! Sweeps injection rate for WH64 and VC16 on the paper's on-chip
//! 4×4 torus and prints latency, power and the saturation verdict at
//! each point — the paper's first usage category: "trade-off two
//! configurations of a microarchitecture".
//!
//! Run with `cargo run --release --example wormhole_vs_vc`.

use orion::core::{presets, Experiment, NetworkConfig, Report};

/// One report per rate, every point under the same seed.
fn sweep(config: &NetworkConfig, rates: &[f64]) -> Vec<Report> {
    rates
        .iter()
        .map(|&rate| {
            Experiment::new(config.clone())
                .injection_rate(rate)
                .seed(7)
                .warmup(500)
                .sample_packets(2_000)
                .max_cycles(100_000)
                .run()
                .expect("preset configurations are valid")
        })
        .collect()
}

/// The highest swept rate whose latency stays within twice zero-load
/// (§4.1), i.e. the last non-saturated point.
fn saturation_rate(rates: &[f64], reports: &[Report]) -> Option<f64> {
    rates
        .iter()
        .zip(reports)
        .filter(|(_, r)| !r.is_saturated())
        .map(|(&rate, _)| rate)
        .reduce(f64::max)
}

fn main() {
    let rates = [0.02, 0.05, 0.08, 0.11, 0.14];

    println!("on-chip 4x4 torus, 256-bit flits, 2 GHz, 0.1 um (paper section 4.2)\n");
    println!(
        "{:>6} | {:>12} {:>10} | {:>12} {:>10}",
        "rate", "WH64 lat", "WH64 W", "VC16 lat", "VC16 W"
    );

    let wh = sweep(&presets::wh64_onchip(), &rates);
    let vc = sweep(&presets::vc16_onchip(), &rates);

    for ((rate, w), v) in rates.iter().zip(&wh).zip(&vc) {
        let mark = |saturated: bool| if saturated { "*" } else { " " };
        println!(
            "{:>6.2} | {:>11.1}{} {:>10.3} | {:>11.1}{} {:>10.3}",
            rate,
            w.avg_latency(),
            mark(w.is_saturated()),
            w.total_power().0,
            v.avg_latency(),
            mark(v.is_saturated()),
            v.total_power().0,
        );
    }

    println!(
        "\nsaturation: WH64 ~ {:?}, VC16 ~ {:?} pkt/cycle/node",
        saturation_rate(&rates, &wh),
        saturation_rate(&rates, &vc)
    );
    println!("(paper: VC16 saturates above WH64 despite a quarter of the buffering,");
    println!(" and consumes less power than WH64 at equal pre-saturation rates)");
}
