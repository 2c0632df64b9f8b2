//! Input generators. Everything a workload feeds the program is made
//! here from `--seed`; the program under test sees only the result.

use orion_net::{NodeId, TraceEvent, TraceTraffic};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of a bursty trace: `bursts` on-phases of `burst_cycles` cycles
/// of uniform traffic at `rate` packets/cycle/node, each preceded by a
/// silence. Silences are drawn uniformly from `silence` and then scaled
/// so that the trace spans `span_cycles` whatever the seed: packets,
/// bursts and simulated span are the same for every seed, only their
/// placement differs.
#[derive(Debug, Clone, Copy)]
pub struct BurstShape {
    pub nodes: usize,
    pub rate: f64,
    pub bursts: usize,
    pub burst_cycles: u64,
    pub silence: (u64, u64),
    pub span_cycles: u64,
}

/// A bursty communication trace: mostly idle, so replay cost is
/// activity tracking and idle skipping rather than dense stepping.
pub fn bursty_trace(seed: u64, shape: &BurstShape) -> TraceTraffic {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0074_7261_6365_3136);
    let per_burst = (shape.rate * shape.nodes as f64 * shape.burst_cycles as f64).round() as usize;
    let drawn: Vec<u64> = (0..shape.bursts)
        .map(|_| rng.gen_range(shape.silence.0..shape.silence.1 + 1))
        .collect();
    let silent = shape.span_cycles - shape.bursts as u64 * shape.burst_cycles;
    let scale = silent as f64 / drawn.iter().sum::<u64>() as f64;
    let mut events = Vec::with_capacity(shape.bursts * per_burst);
    let mut start = 0;
    for silence in drawn {
        start += (silence as f64 * scale) as u64;
        for _ in 0..per_burst {
            let src = rng.gen_range(0..shape.nodes);
            let dst = (src + rng.gen_range(1..shape.nodes)) % shape.nodes;
            events.push(TraceEvent {
                cycle: start + rng.gen_range(0..shape.burst_cycles),
                src: NodeId(src),
                dst: NodeId(dst),
            });
        }
        start += shape.burst_cycles;
    }
    TraceTraffic::new(events)
}

/// What one client does in one iteration of the serve mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// POST a grid whose cell seed the server has never seen.
    Cold(u64),
    /// POST the same grid again: every cell is a cache hit.
    Warm(u64),
    /// All clients POST this grid at the same moment.
    Dedup(u64),
}

/// Every `DEDUP_EVERY`-th iteration ends with a dedup step.
pub const DEDUP_EVERY: usize = 8;
/// Warm re-reads per cold POST: results are read more often than made.
pub const WARM_PER_COLD: usize = 2;

/// The request schedule of `clients` closed-loop clients over
/// `iterations` iterations. Cold seeds are distinct across clients and
/// iterations; dedup seeds are shared by all clients of one iteration.
pub fn serve_schedule(seed: u64, clients: usize, iterations: usize) -> Vec<Vec<Step>> {
    let base = orion_ckpt::splitmix64(seed) % 1_000_000_000;
    (0..clients)
        .map(|c| {
            let mut steps = Vec::new();
            for i in 0..iterations {
                let cold = base + 1 + (i * clients + c) as u64;
                steps.push(Step::Cold(cold));
                steps.extend(std::iter::repeat_n(Step::Warm(cold), WARM_PER_COLD));
                if (i + 1) % DEDUP_EVERY == 0 {
                    steps.push(Step::Dedup(base + 1_000_000_000 + i as u64));
                }
            }
            steps
        })
        .collect()
}

/// The grid every serve request posts: four short cells.
pub fn serve_spec(cell_seed: u64) -> String {
    format!(
        "[experiment]\nname = \"serve-mixed\"\n\n[measure]\nsample_packets = 1000\n\n\
         [grid]\npresets = [\"vc16\", \"wh64\"]\nrates = [0.02, 0.08]\nseeds = [{cell_seed}]\n"
    )
}

/// Cells in one [`serve_spec`] grid.
pub const SERVE_CELLS: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const SHAPE: BurstShape = BurstShape {
        nodes: 64,
        rate: 0.002,
        bursts: 12,
        burst_cycles: 2_000,
        silence: (5_000, 20_000),
        span_cycles: 200_000,
    };

    #[test]
    fn the_same_seed_gives_the_same_trace() {
        let a = bursty_trace(7, &SHAPE);
        assert_eq!(a, bursty_trace(7, &SHAPE));
        assert_ne!(a, bursty_trace(8, &SHAPE));
        assert!(a.events().iter().all(|e| e.src != e.dst && e.dst.0 < 64));
        assert!(a.events().windows(2).all(|w| w[0].cycle <= w[1].cycle));
    }

    #[test]
    fn every_seed_gives_the_same_amount_of_work() {
        for seed in 1..20 {
            let t = bursty_trace(seed, &SHAPE);
            assert_eq!(t.events().len(), 12 * 256, "seed {seed}");
            let last = t.events().last().expect("non-empty").cycle;
            assert!(
                (190_000..200_000).contains(&last),
                "seed {seed} ends at {last}"
            );
        }
    }

    #[test]
    fn traces_are_mostly_silent() {
        let t = bursty_trace(1, &SHAPE);
        let busy: BTreeSet<u64> = t.events().iter().map(|e| e.cycle / 1_000).collect();
        let span = t.events().last().expect("non-empty").cycle / 1_000 + 1;
        assert!(
            (busy.len() as u64) * 3 < span,
            "{} of {span} kilocycles carry traffic",
            busy.len()
        );
    }

    #[test]
    fn the_same_seed_gives_the_same_schedule_and_cold_seeds_never_repeat() {
        let a = serve_schedule(3, 2, 20);
        assert_eq!(a, serve_schedule(3, 2, 20));
        assert_ne!(a, serve_schedule(4, 2, 20));
        let cold: Vec<u64> = a
            .iter()
            .flatten()
            .filter_map(|s| match s {
                Step::Cold(seed) => Some(*seed),
                _ => None,
            })
            .collect();
        assert_eq!(cold.len(), 40);
        assert_eq!(cold.iter().collect::<BTreeSet<_>>().len(), 40);
        let dedup = |c: usize| -> Vec<&Step> {
            a[c].iter()
                .filter(|s| matches!(s, Step::Dedup(_)))
                .collect()
        };
        assert_eq!(dedup(0), dedup(1), "dedup steps are shared by all clients");
        assert_eq!(dedup(0).len(), 2);
    }

    #[test]
    fn serve_specs_parse_into_four_cells() {
        let spec = orion_exp::ExperimentSpec::parse(&serve_spec(42)).expect("valid spec");
        let cells = spec.expand();
        assert_eq!(cells.len(), SERVE_CELLS);
        assert!(cells.iter().all(|c| c.seed == 42));
    }
}
