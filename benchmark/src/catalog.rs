//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root is generated from this file (`--emit-manifest`) and a
//! unit test keeps the two identical.

use std::fmt::Write as _;

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 20;

pub const COMMAND: [&str; 2] = ["bash", "benchmark/run.sh"];
pub const PATHS: [&str; 1] = ["benchmark"];

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 5] = [
    WorkloadInfo {
        name: "fig5_sweep",
        why: "the paper's Fig. 5 grid through run_spec: busy 4x4 networks where sim stepping, power charging and per-cycle RNG injection are nearly all of the time",
    },
    WorkloadInfo {
        name: "trace16_lowrate",
        why: "bursty seeded trace replayed on a 16x16 torus: mostly idle, so sparse activity sets and idle skips do the work and synthetic RNG does none",
    },
    WorkloadInfo {
        name: "torus32_ckpt",
        why: "one sharded 32x32 cell checkpointed every 200 cycles: the only place shard barriers, multi-MB snapshot writes and a cache-exceeding working set dominate",
    },
    WorkloadInfo {
        name: "explore_evo",
        why: "evolutionary search over many short heterogeneous cells with an on-disk cache: per-design build, Network::new, fingerprint and append costs show, stepping does not",
    },
    WorkloadInfo {
        name: "serve_mixed",
        why: "closed-loop clients against an in-process daemon mixing cold, warm and simultaneous posts: HTTP, admission, cache writes beside reads",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "sim_cycles_per_s",
        unit: "cycles/s",
        better: "higher",
        bound: 0.20,
    },
    EndToEnd {
        name: "flits_per_s",
        unit: "flits/s",
        better: "higher",
        bound: 0.20,
    },
    EndToEnd {
        name: "cells_per_s",
        unit: "cells/s",
        better: "higher",
        bound: 0.20,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "op_p95_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer { name, unit, better }
}

pub const PER_LAYER: [Layer; 97] = [
    // Unit costs of single calls, the same micro-probe in every run.
    layer("tech.node_build_us", "us", "lower"),
    layer("power.build_us", "us", "lower"),
    layer("power.event_energy_ns", "ns", "lower"),
    layer("net.inject_ns", "ns", "lower"),
    layer("net.route_ns", "ns", "lower"),
    layer("net.trace_read_mb_per_s", "MB/s", "higher"),
    layer("sim.new_us.t4", "us", "lower"),
    layer("sim.new_us.t16", "us", "lower"),
    layer("sim.new_us.t32", "us", "lower"),
    layer("sim.fifo_op_ns", "ns", "lower"),
    layer("sim.arb_ns", "ns", "lower"),
    layer("sim.step_ns.torus32", "ns", "lower"),
    layer("sim.step_ns_per_hop.torus32", "ns", "lower"),
    layer("sim.snapshot_us", "us", "lower"),
    layer("sim.restore_us", "us", "lower"),
    layer("sim.snapshot_bytes", "B", "lower"),
    layer("shard.new_us", "us", "lower"),
    layer("shard.step_ns", "ns", "lower"),
    layer("shard.speedup", "ratio", "higher"),
    layer("shard.host_cores", "count", "higher"),
    layer("shard.shards", "count", "higher"),
    layer("ckpt.encode_mb_per_s", "MB/s", "higher"),
    layer("ckpt.decode_mb_per_s", "MB/s", "higher"),
    layer("ckpt.save_ms", "ms", "lower"),
    layer("ckpt.load_ms", "ms", "lower"),
    layer("ckpt.image_bytes", "B", "lower"),
    layer("exp.parse_us", "us", "lower"),
    layer("exp.expand_us", "us", "lower"),
    layer("exp.fingerprint_ns", "ns", "lower"),
    layer("exp.cache_open_ms", "ms", "lower"),
    layer("exp.cache_get_ns", "ns", "lower"),
    layer("exp.cache_append_us", "us", "lower"),
    layer("exp.lock_acquire_us", "us", "lower"),
    layer("exp.lock_shared_us", "us", "lower"),
    layer("exp.lock_wait_ms", "ms", "lower"),
    layer("exp.runner_hit_us", "us", "lower"),
    layer("exp.runner_miss_ms", "ms", "lower"),
    layer("exp.flush_ms", "ms", "lower"),
    layer("exp.artifacts_write_ms", "ms", "lower"),
    layer("explore.frontier_insert_ns", "ns", "lower"),
    layer("serve.admit_ns", "ns", "lower"),
    // The paper's own cell (VC64, 4x4 torus, rate 0.10), decomposed.
    layer("sim.step_ns.fig5", "ns", "lower"),
    layer("sim.step_ns_per_hop.fig5", "ns", "lower"),
    layer("sim.enqueue_ns", "ns", "lower"),
    layer("core.cell_run_ms", "ms", "lower"),
    layer("core.loop_overhead_frac", "ratio", "lower"),
    layer("obs.enabled_over_disabled", "ratio", "lower"),
    layer("sim.va_grants", "count", "lower"),
    layer("sim.sa_grants", "count", "lower"),
    layer("sim.link_flits", "count", "lower"),
    layer("sim.credits", "count", "lower"),
    layer("sim.flits_delivered", "count", "higher"),
    layer("fig5c.datapath_share_err", "ratio", "lower"),
    // Trace replay, decomposed (full trace on trace16_lowrate, a short
    // one elsewhere).
    layer("net.trace_event_ns", "ns", "lower"),
    layer("sim.step_ns.trace16", "ns", "lower"),
    layer("sim.step_ns_per_hop.trace16", "ns", "lower"),
    layer("sim.skip_frac", "ratio", "higher"),
    layer("sim.skip_calls", "count", "lower"),
    layer("sim.cycles_skipped", "count", "higher"),
    // A checkpointed 32x32 run (full size on torus32_ckpt).
    layer("ckpt.hook_frac", "ratio", "lower"),
    layer("ckpt.run_overhead_frac", "ratio", "lower"),
    layer("ckpt.writes", "count", "lower"),
    layer("ckpt.write_errors", "count", "lower"),
    // An evolutionary search (full budget on explore_evo).
    layer("explore.evals", "count", "lower"),
    layer("explore.rounds", "count", "lower"),
    layer("explore.frontier_size", "count", "higher"),
    layer("explore.search_overhead_frac", "ratio", "lower"),
    layer("explore.artifacts_write_ms", "ms", "lower"),
    layer("exp.cache_hits", "count", "higher"),
    layer("exp.executed", "count", "lower"),
    layer("exp.deduped", "count", "higher"),
    layer("exp.append_failures", "count", "lower"),
    // A serve session (the full mix on serve_mixed).
    layer("serve.health_rtt_us", "us", "lower"),
    layer("serve.cold_p50_ms", "ms", "lower"),
    layer("serve.warm_p50_ms", "ms", "lower"),
    layer("serve.dedup_p50_ms", "ms", "lower"),
    layer("serve.cold_ttfr_ms", "ms", "lower"),
    layer("serve.warm_ttfr_ms", "ms", "lower"),
    layer("serve.ttfr_p50_ms", "ms", "lower"),
    layer("serve.head_ms", "ms", "lower"),
    layer("serve.requests", "count", "higher"),
    layer("serve.rejected", "count", "lower"),
    layer("serve.dedup_hits", "count", "higher"),
    // This workload's own traced pass.
    layer("trace.overhead_frac", "ratio", "lower"),
    layer("trace.coverage_frac", "ratio", "higher"),
    layer("share.power", "ratio", "lower"),
    layer("share.net", "ratio", "lower"),
    layer("share.sim", "ratio", "lower"),
    layer("share.core", "ratio", "lower"),
    layer("share.ckpt", "ratio", "lower"),
    layer("share.exp", "ratio", "lower"),
    layer("share.explore", "ratio", "lower"),
    layer("share.serve", "ratio", "lower"),
    layer("share.bench", "ratio", "lower"),
    layer("trace.spans", "count", "lower"),
    // Memory of this workload's set-up and passes, read before the
    // probes run: live heap bytes requested, and resident set.
    layer("mem.peak_heap_mb", "MiB", "lower"),
    layer("mem.peak_rss_mb", "MiB", "lower"),
];

/// The layers a `share.*` metric exists for, with that metric's name.
pub const SHARES: [(&str, &str); 9] = [
    ("power", "share.power"),
    ("net", "share.net"),
    ("sim", "share.sim"),
    ("core", "share.core"),
    ("ckpt", "share.ckpt"),
    ("exp", "share.exp"),
    ("explore", "share.explore"),
    ("serve", "share.serve"),
    ("bench", "share.bench"),
];

pub fn workload_names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|w| w.name)
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Timing samples (or operations counted) behind the value.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, samples: usize) -> Metric {
        debug_assert!(!unit_of(name).is_empty());
        Metric {
            name,
            value,
            samples,
        }
    }
}

/// The exact text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"command\": [{}],", quoted(&COMMAND));
    let _ = writeln!(s, "  \"paths\": [{}],", quoted(&PATHS));
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name, m.unit, m.better, m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name, m.unit, m.better
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(unit.len() <= 16 && !unit.is_empty(), "{unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(manifest_json().len() <= 64 * 1024);
    }

    #[test]
    fn every_share_has_a_metric() {
        for (layer, name) in SHARES {
            assert_eq!(name, format!("share.{layer}"));
            assert!(PER_LAYER.iter().any(|m| m.name == name));
        }
    }

    #[test]
    fn workload_names_match_the_implementations() {
        use crate::workloads::*;
        let listed: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        let implemented = [
            fig5_sweep::Fig5Sweep::NAME,
            trace16_lowrate::Trace16LowRate::NAME,
            torus32_ckpt::Torus32Ckpt::NAME,
            explore_evo::ExploreEvo::NAME,
            serve_mixed::ServeMixed::NAME,
        ];
        assert_eq!(listed, implemented);
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = crate::host::bench_dir().join("../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json exists");
        assert_eq!(
            on_disk,
            manifest_json(),
            "regenerate with `benchmark/run.sh --emit-manifest > BENCHMARK.json`"
        );
    }
}
