//! Figure 6: power spatial distribution for a 4×4 on-chip network
//! under diverse communication traffic (§4.3).
//!
//! Regenerates:
//! * **6(a)** — per-node power under uniform random traffic, each node
//!   injecting 0.2/16 packets/cycle,
//! * **6(b)** — per-node power under broadcast traffic from node (1,2)
//!   at 0.2 packets/cycle (equal aggregate injection).
//!
//! Expected shapes (paper): uniform traffic yields a flat map;
//! broadcast concentrates power at the source, decaying with Manhattan
//! distance; with y-first dimension-ordered routing, nodes (1,1) and
//! (1,3) consume more than (0,2) and (2,2), and nodes sharing an x
//! coordinate (other than the source's column) consume identically.

use orion_bench::{print_power_map, Effort};
use orion_core::{presets, Experiment};
use orion_net::TrafficPattern;

fn main() {
    let effort = Effort::from_args();
    let options = effort.options();
    // The paper fixes the router here: VC, 2 VCs × 8 flits per port.
    let cfg = presets::vc16_onchip();
    let topo = cfg.topology.clone();

    let run = |pattern: TrafficPattern| {
        Experiment::new(cfg.clone())
            .workload(pattern)
            .seed(1)
            .warmup(options.warmup)
            .sample_packets(options.sample_packets)
            .max_cycles(options.max_cycles)
            .run()
            .expect("preset configs are valid")
    };

    eprintln!("running uniform random workload ...");
    let uniform = run(TrafficPattern::uniform(&topo, 0.2 / 16.0).expect("valid rate"));
    print_power_map(
        "Figure 6(a): uniform random traffic, 0.2/16 pkt/cycle/node",
        &uniform.power_map(),
        4,
        4,
    );
    let map = uniform.power_map();
    let min = map.iter().map(|w| w.0).fold(f64::INFINITY, f64::min);
    let max = map.iter().map(|w| w.0).fold(0.0, f64::max);
    println!(
        "  spread max/min = {:.3} (paper: 'almost identical power consumption')",
        max / min
    );

    eprintln!("running broadcast workload ...");
    let src = topo.node_at(&[1, 2]);
    let broadcast = run(TrafficPattern::broadcast(&topo, src, 0.2).expect("valid rate"));
    print_power_map(
        "Figure 6(b): broadcast traffic from node (1,2) at 0.2 pkt/cycle",
        &broadcast.power_map(),
        4,
        4,
    );

    let bmap = broadcast.power_map();
    let at = |x: usize, y: usize| bmap[topo.node_at(&[x as u32, y as u32]).0].0;
    println!(
        "  source (1,2) power: {:.4} W (must be the maximum)",
        at(1, 2)
    );
    println!(
        "  y-first routing asymmetry: (1,1)={:.4} (1,3)={:.4} vs (0,2)={:.4} (2,2)={:.4}",
        at(1, 1),
        at(1, 3),
        at(0, 2),
        at(2, 2)
    );
    println!(
        "  same-x symmetry (x=3 column): (3,0)={:.4} (3,1)={:.4} (3,2)={:.4} (3,3)={:.4}",
        at(3, 0),
        at(3, 1),
        at(3, 2),
        at(3, 3)
    );
}
