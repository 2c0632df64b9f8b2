//! Pins the byte-exact output of a one-thread injection-rate sweep with
//! no observers attached. The observability subsystem must be zero-cost when
//! disabled: any change to these bits means instrumentation perturbed
//! the simulation itself, not just measured it.

use orion_core::{presets, Experiment};

/// Canonical formatting of a sweep result: every float as its exact bit
/// pattern, so "byte-identical" really means bit-identical.
fn canonical_sweep() -> String {
    let mut out = String::new();
    for rate in [0.02, 0.05, 0.08] {
        let report = Experiment::new(presets::vc16_onchip())
            .injection_rate(rate)
            .seed(2)
            .warmup(200)
            .sample_packets(200)
            .max_cycles(50_000)
            .run()
            .expect("valid preset at a valid rate");
        out.push_str(&format!(
            "{:016x};{:016x};{:016x};{};{}\n",
            rate.to_bits(),
            report.avg_latency().to_bits(),
            report.total_power().0.to_bits(),
            report.measured_cycles(),
            report.stats().packets_delivered,
        ));
    }
    out
}

/// Captured from the tree immediately before the observability
/// subsystem landed. Instrumentation sites may be added around the
/// engine, but a run with no observer attached must still produce
/// exactly these bits.
const GOLDEN: &str = "\
3f947ae147ae147b;402fdeb851eb851f;3ff7f9b65ba82c24;678;205\n\
3fa999999999999a;4031f70a3d70a3d7;4011f766b150b37a;253;218\n\
3fb47ae147ae147b;4033f47ae147ae14;401a8c73993011e0;190;234\n";

#[test]
fn unobserved_sweep_is_bit_identical_to_pre_observability_golden() {
    assert_eq!(canonical_sweep(), GOLDEN);
}
