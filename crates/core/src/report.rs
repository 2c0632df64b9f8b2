//! Simulation reports: the power and performance numbers the paper
//! plots.
//!
//! Power follows §4.1 exactly: *"Average power is then computed by
//! multiplying the total energy by frequency and then dividing by total
//! simulation cycles"* — applied per node and per component, over the
//! post-warm-up measurement window. Chip-to-chip links additionally
//! contribute their constant datasheet power (§4.4), which no switching
//! event ever charges.

use orion_sim::{AuditViolation, Component, SimStats, StallDiagnostics, StallKind};
use orion_tech::{average_power, Hertz, Joules, Watts};

/// How a simulation run ended.
///
/// The paper's measurement discipline (§4.1) distinguishes only
/// "finished" from "ran out of budget"; this enum separates the ways a
/// run can fail to finish so sweeps can report *graceful degradation*
/// instead of a single boolean:
///
/// * [`Completed`](RunOutcome::Completed) — every tagged packet was
///   delivered within the cycle budget,
/// * [`Saturated`](RunOutcome::Saturated) — the runner observed the
///   source backlog diverging (offered load above capacity) and
///   terminated early rather than burning the budget,
/// * [`Deadlocked`](RunOutcome::Deadlocked) — the watchdog detected a
///   no-progress window; the [`StallDiagnostics`] says whether it was a
///   true deadlock or a livelock and which VCs were blocked,
/// * [`BudgetExhausted`](RunOutcome::BudgetExhausted) — the cycle
///   budget ran out with tagged packets still outstanding and no
///   sharper classification available,
/// * [`Corrupted`](RunOutcome::Corrupted) — the opt-in invariant
///   auditor ([`Experiment::audit_every`]) caught the simulator
///   violating its own conservation laws; the run's numbers are
///   untrustworthy and must not be published.
///
/// [`Experiment::audit_every`]: crate::run::Experiment::audit_every
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RunOutcome {
    /// Every tagged packet was delivered within the cycle budget.
    Completed,
    /// The source backlog diverged: offered load exceeds capacity, so
    /// the runner stopped early instead of waiting out the budget.
    Saturated,
    /// The watchdog fired on a no-progress window; the diagnostics
    /// carry the classification ([`StallKind`]) and the blocked VCs.
    Deadlocked(StallDiagnostics),
    /// The cycle budget ran out with tagged packets still in flight.
    BudgetExhausted,
    /// The invariant auditor found the simulator's accounting broken —
    /// the numbers of this run cannot be trusted.
    Corrupted {
        /// The violations found, in detection order (first audit that
        /// fired; the run stops immediately).
        violations: Vec<AuditViolation>,
        /// The cycle at which the failing audit ran.
        cycle: u64,
    },
}

impl RunOutcome {
    /// Whether the run delivered its full tagged sample.
    pub fn is_completed(&self) -> bool {
        matches!(self, RunOutcome::Completed)
    }

    /// The stall diagnostics, when the watchdog fired.
    pub fn diagnostics(&self) -> Option<&StallDiagnostics> {
        match self {
            RunOutcome::Deadlocked(diag) => Some(diag),
            _ => None,
        }
    }

    /// A stable machine-readable label (used by the CLI's JSON output).
    pub fn label(&self) -> &'static str {
        match self {
            RunOutcome::Completed => "completed",
            RunOutcome::Saturated => "saturated",
            RunOutcome::Deadlocked(diag) => match diag.kind {
                StallKind::Livelock => "livelocked",
                _ => "deadlocked",
            },
            RunOutcome::BudgetExhausted => "budget-exhausted",
            RunOutcome::Corrupted { .. } => "corrupted",
        }
    }

    /// The auditor's violations, when the run was classified
    /// [`Corrupted`](RunOutcome::Corrupted).
    pub fn audit_violations(&self) -> Option<&[AuditViolation]> {
        match self {
            RunOutcome::Corrupted { violations, .. } => Some(violations),
            _ => None,
        }
    }
}

impl std::fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunOutcome::Completed => write!(f, "completed"),
            RunOutcome::Saturated => write!(f, "saturated (source backlog diverging)"),
            RunOutcome::Deadlocked(diag) => {
                write!(f, "{} at cycle {}", diag.kind, diag.cycle)
            }
            RunOutcome::BudgetExhausted => write!(f, "budget exhausted"),
            RunOutcome::Corrupted { violations, cycle } => {
                write!(
                    f,
                    "corrupted at cycle {cycle}: {} invariant violation(s)",
                    violations.len()
                )?;
                if let Some(first) = violations.first() {
                    write!(f, " — {first}")?;
                }
                Ok(())
            }
        }
    }
}

/// Results of one simulation run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Performance statistics over the measured sample.
    stats: SimStats,
    /// Per-node, per-component switching energy over the measurement
    /// window (indexed by [`Component::ALL`] order).
    energy: Vec<[Joules; 5]>,
    /// Cycles in the measurement window.
    measured_cycles: u64,
    /// Clock frequency.
    f_clk: Hertz,
    /// Constant link power per node (chip-to-chip links; zero for
    /// on-chip).
    link_static_per_node: Watts,
    /// Analytic zero-load latency of the configuration.
    zero_load_latency: f64,
    /// How the run ended.
    outcome: RunOutcome,
    /// Per-node injection rate of the offered workload
    /// (packets/cycle/node, averaged over nodes).
    offered_rate: f64,
    /// Flits carried per (node, out_port) over the measurement window.
    link_flits: Vec<Vec<u64>>,
    /// Estimated router leakage per node (post-paper extension; not
    /// part of [`total_power`](Report::total_power)).
    router_leakage_per_node: Watts,
    /// What the run's observer collected, when one was attached
    /// ([`Experiment::observe`](crate::run::Experiment::observe)).
    observations: Option<orion_obs::Observations>,
}

impl Report {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        stats: SimStats,
        energy: Vec<[Joules; 5]>,
        measured_cycles: u64,
        f_clk: Hertz,
        link_static_per_node: Watts,
        zero_load_latency: f64,
        outcome: RunOutcome,
        offered_rate: f64,
    ) -> Report {
        Report {
            stats,
            energy,
            measured_cycles,
            f_clk,
            link_static_per_node,
            zero_load_latency,
            outcome,
            offered_rate,
            link_flits: Vec::new(),
            router_leakage_per_node: Watts::ZERO,
            observations: None,
        }
    }

    pub(crate) fn with_link_flits(mut self, link_flits: Vec<Vec<u64>>) -> Report {
        self.link_flits = link_flits;
        self
    }

    pub(crate) fn with_router_leakage(mut self, per_node: Watts) -> Report {
        self.router_leakage_per_node = per_node;
        self
    }

    pub(crate) fn with_observations(mut self, observations: orion_obs::Observations) -> Report {
        self.observations = Some(observations);
        self
    }

    /// Metrics, probe time series and flit spans collected by the
    /// run's observer; `None` unless
    /// [`Experiment::observe`](crate::run::Experiment::observe) was
    /// set. Observation never changes the simulated numbers (pinned by
    /// the `sweep_identity` bit-identity test).
    pub fn observations(&self) -> Option<&orion_obs::Observations> {
        self.observations.as_ref()
    }

    /// Estimated router leakage per node — a post-paper extension (the
    /// MICRO 2002 models are dynamic-only), reported separately from
    /// the switching power in [`total_power`](Report::total_power).
    pub fn router_leakage_per_node(&self) -> Watts {
        self.router_leakage_per_node
    }

    /// Total network power including the leakage estimate.
    pub fn total_power_with_leakage(&self) -> Watts {
        self.total_power() + self.router_leakage_per_node * self.num_nodes() as f64
    }

    /// Load of the directional channel leaving `node` through
    /// `out_port`, in flits per cycle over the measurement window
    /// (0 when channel statistics were not collected).
    pub fn channel_load(&self, node: usize, out_port: usize) -> f64 {
        if self.measured_cycles == 0 {
            return 0.0;
        }
        self.link_flits
            .get(node)
            .and_then(|ports| ports.get(out_port))
            .map(|&f| f as f64 / self.measured_cycles as f64)
            .unwrap_or(0.0)
    }

    /// The most heavily loaded channel:
    /// `(node, out_port, flits_per_cycle)`. Identifies the bottleneck
    /// under a given workload.
    pub fn max_channel_load(&self) -> Option<(usize, usize, f64)> {
        let mut best: Option<(usize, usize, f64)> = None;
        for (node, ports) in self.link_flits.iter().enumerate() {
            for (port, &f) in ports.iter().enumerate() {
                let load = if self.measured_cycles == 0 {
                    0.0
                } else {
                    f as f64 / self.measured_cycles as f64
                };
                if best.map(|(_, _, b)| load > b).unwrap_or(true) {
                    best = Some((node, port, load));
                }
            }
        }
        best
    }

    /// How the run ended: completed, saturated, deadlocked (with
    /// diagnostics), corrupted or out of budget.
    pub fn outcome(&self) -> &RunOutcome {
        &self.outcome
    }

    /// Whether the run was cut short because progress stopped —
    /// dimension-ordered wormhole routing on a torus admits deadlock
    /// deep past saturation (Dally & Seitz; see DESIGN.md). Includes
    /// livelock; inspect [`outcome`](Report::outcome) to distinguish.
    pub fn deadlocked(&self) -> bool {
        matches!(self.outcome, RunOutcome::Deadlocked(_))
    }

    /// The watchdog's stall diagnostics, when the run deadlocked or
    /// livelocked.
    pub fn stall_diagnostics(&self) -> Option<&StallDiagnostics> {
        self.outcome.diagnostics()
    }

    /// Performance statistics of the tagged sample.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Average packet latency in cycles (creation to tail ejection,
    /// source queueing included — §4.1).
    pub fn avg_latency(&self) -> f64 {
        self.stats.avg_latency()
    }

    /// The analytic zero-load latency of the configuration.
    pub fn zero_load_latency(&self) -> f64 {
        self.zero_load_latency
    }

    /// §4.1 saturation criterion: average latency above twice the
    /// zero-load latency (a run cut short by the watchdog, backlog
    /// divergence or the cycle budget is saturated by definition).
    pub fn is_saturated(&self) -> bool {
        match &self.outcome {
            RunOutcome::Completed => self.avg_latency() > 2.0 * self.zero_load_latency,
            _ => true,
        }
    }

    /// Cycles in the measurement window.
    pub fn measured_cycles(&self) -> u64 {
        self.measured_cycles
    }

    /// The offered per-node injection rate (packets/cycle/node).
    pub fn offered_rate(&self) -> f64 {
        self.offered_rate
    }

    /// Delivered throughput in flits per cycle (network-wide) over the
    /// measurement window.
    pub fn throughput_flits_per_cycle(&self) -> f64 {
        if self.measured_cycles == 0 {
            return 0.0;
        }
        self.stats.flits_delivered as f64 / self.measured_cycles as f64
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.energy.len()
    }

    fn component_index(component: Component) -> usize {
        Component::ALL
            .iter()
            .position(|&c| c == component)
            .expect("component in ALL")
    }

    /// Switching energy of `component` at `node` over the window.
    pub fn node_component_energy(&self, node: usize, component: Component) -> Joules {
        self.energy[node][Report::component_index(component)]
    }

    /// Average power of `component` at `node`, including the static
    /// share for links.
    pub fn node_component_power(&self, node: usize, component: Component) -> Watts {
        if self.measured_cycles == 0 {
            return Watts::ZERO;
        }
        let dynamic = average_power(
            self.node_component_energy(node, component),
            self.f_clk,
            self.measured_cycles,
        );
        if component == Component::Link {
            dynamic + self.link_static_per_node
        } else {
            dynamic
        }
    }

    /// Total average power of `node` (all components + static link
    /// power).
    pub fn node_power(&self, node: usize) -> Watts {
        Component::ALL
            .iter()
            .map(|&c| self.node_component_power(node, c))
            .sum()
    }

    /// Network-wide average power of `component`.
    pub fn component_power(&self, component: Component) -> Watts {
        (0..self.num_nodes())
            .map(|n| self.node_component_power(n, component))
            .sum()
    }

    /// Total network power (the quantity of Figures 5b, 7b, 7e).
    pub fn total_power(&self) -> Watts {
        (0..self.num_nodes()).map(|n| self.node_power(n)).sum()
    }

    /// Per-node power map (the quantity of Figure 6).
    pub fn power_map(&self) -> Vec<Watts> {
        (0..self.num_nodes()).map(|n| self.node_power(n)).collect()
    }

    /// Power breakdown by component (the quantity of Figures 5c, 7c,
    /// 7f), as `(component, power, fraction_of_total)`.
    pub fn breakdown(&self) -> Vec<(Component, Watts, f64)> {
        let total = self.total_power();
        Component::ALL
            .iter()
            .map(|&c| {
                let p = self.component_power(c);
                let frac = if total.0 > 0.0 { p.0 / total.0 } else { 0.0 };
                (c, p, frac)
            })
            .collect()
    }
}

impl std::fmt::Display for Report {
    /// One-paragraph human-readable summary: latency, saturation,
    /// throughput and the component power breakdown.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let suffix = match &self.outcome {
            RunOutcome::Completed | RunOutcome::Saturated => String::new(),
            RunOutcome::Deadlocked(diag) => format!(", {}", diag.kind),
            RunOutcome::BudgetExhausted => ", budget exhausted".to_string(),
            RunOutcome::Corrupted { violations, .. } => {
                format!(", CORRUPTED ({} violations)", violations.len())
            }
        };
        writeln!(
            f,
            "latency {:.1} cycles (zero-load {:.1}){}{}",
            self.avg_latency(),
            self.zero_load_latency,
            if self.is_saturated() {
                ", saturated"
            } else {
                ""
            },
            suffix,
        )?;
        writeln!(
            f,
            "throughput {:.3} flits/cycle over {} cycles",
            self.throughput_flits_per_cycle(),
            self.measured_cycles
        )?;
        write!(f, "total power {:.3} W:", self.total_power().0)?;
        for (c, p, frac) in self.breakdown() {
            if p.0 > 0.0 {
                write!(f, " {c} {:.3} W ({:.1}%)", p.0, 100.0 * frac)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(energy_pj: f64, cycles: u64, static_w: f64) -> Report {
        let mut stats = SimStats::new();
        stats.tagged_injected = 1;
        stats.record_delivery(20, true);
        stats.flits_delivered = 5;
        let mut node = [Joules::ZERO; 5];
        node[0] = Joules::from_pj(energy_pj); // Buffer
        Report::new(
            stats,
            vec![node, [Joules::ZERO; 5]],
            cycles,
            Hertz::from_ghz(1.0),
            Watts(static_w),
            15.0,
            RunOutcome::Completed,
            0.1,
        )
    }

    #[test]
    fn power_formula_matches_paper() {
        // P = E · f / cycles: 1000 pJ at 1 GHz over 1000 cycles = 1 mW.
        let r = report_with(1000.0, 1000, 0.0);
        let p = r.node_component_power(0, Component::Buffer);
        assert!((p.0 - 1.0e-3).abs() < 1e-12);
    }

    #[test]
    fn static_link_power_added_per_node() {
        let r = report_with(0.0, 1000, 3.0);
        assert_eq!(r.node_component_power(0, Component::Link), Watts(3.0));
        assert_eq!(r.node_component_power(1, Component::Link), Watts(3.0));
        assert_eq!(r.total_power(), Watts(6.0));
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let r = report_with(500.0, 100, 1.0);
        let total: f64 = r.breakdown().iter().map(|(_, _, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn saturation_criterion() {
        let r = report_with(0.0, 100, 0.0);
        // avg latency 20, zero-load 15: not saturated (20 < 30).
        assert!(!r.is_saturated());
        let mut stats = SimStats::new();
        stats.tagged_injected = 1;
        stats.record_delivery(40, true);
        let r = Report::new(
            stats,
            vec![[Joules::ZERO; 5]],
            100,
            Hertz::from_ghz(1.0),
            Watts::ZERO,
            15.0,
            RunOutcome::Completed,
            0.2,
        );
        assert!(r.is_saturated());
    }

    #[test]
    fn zero_delivered_tagged_packets_not_classified_saturated() {
        // A completed run whose tagged sample is empty has NaN average
        // latency; the §4.1 criterion (latency > 2·t0) must evaluate
        // false rather than panic or spuriously flag saturation.
        let r = Report::new(
            SimStats::new(),
            vec![[Joules::ZERO; 5]],
            100,
            Hertz::from_ghz(1.0),
            Watts::ZERO,
            15.0,
            RunOutcome::Completed,
            0.0,
        );
        assert!(r.avg_latency().is_nan());
        assert!(!r.is_saturated());
        assert_eq!(r.stats().latency_percentile(99.0), None);
    }

    fn outcome_report(outcome: RunOutcome) -> Report {
        let mut stats = SimStats::new();
        stats.tagged_injected = 10;
        stats.record_delivery(20, true);
        Report::new(
            stats,
            vec![[Joules::ZERO; 5]],
            100,
            Hertz::from_ghz(1.0),
            Watts::ZERO,
            15.0,
            outcome,
            0.3,
        )
    }

    #[test]
    fn incomplete_run_is_saturated() {
        let r = outcome_report(RunOutcome::BudgetExhausted);
        assert!(r.is_saturated());
        assert!(!r.outcome().is_completed(), "unfinished is not completed");
        assert!(!r.deadlocked());
        assert_eq!(r.outcome(), &RunOutcome::BudgetExhausted);
    }

    #[test]
    fn outcome_taxonomy_drives_predicates() {
        use orion_sim::{StallDiagnostics, StallKind};
        let sat = outcome_report(RunOutcome::Saturated);
        assert!(sat.is_saturated() && !sat.outcome().is_completed() && !sat.deadlocked());

        let diag = StallDiagnostics {
            kind: StallKind::Deadlock,
            cycle: 1234,
            window: 500,
            cycles_since_flit_movement: 600,
            cycles_since_delivery: 700,
            cycles_since_credit: 650,
            flits_in_network: 12,
            source_backlog: 30,
            packets_delivered: 4,
            stalled_vcs: Vec::new(),
        };
        let dead = outcome_report(RunOutcome::Deadlocked(diag.clone()));
        assert!(dead.deadlocked() && dead.is_saturated() && !dead.outcome().is_completed());
        assert_eq!(dead.stall_diagnostics(), Some(&diag));
        assert_eq!(dead.outcome().label(), "deadlocked");
        assert!(dead.to_string().contains("deadlock"));

        let done = outcome_report(RunOutcome::Completed);
        assert!(done.outcome().is_completed());
        assert_eq!(done.stall_diagnostics(), None);
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(RunOutcome::Completed.label(), "completed");
        assert_eq!(RunOutcome::Saturated.label(), "saturated");
        assert_eq!(RunOutcome::BudgetExhausted.label(), "budget-exhausted");
        assert_eq!(
            RunOutcome::Corrupted {
                violations: Vec::new(),
                cycle: 0
            }
            .label(),
            "corrupted"
        );
    }

    #[test]
    fn corrupted_outcome_exposes_violations() {
        let violation = AuditViolation::EnergyNonMonotonic {
            previous: 2.0,
            current: 1.0,
        };
        let outcome = RunOutcome::Corrupted {
            violations: vec![violation.clone()],
            cycle: 777,
        };
        assert_eq!(outcome.audit_violations(), Some(&[violation][..]));
        assert!(outcome.to_string().contains("cycle 777"), "{outcome}");
        assert!(outcome.to_string().contains("decreased"), "{outcome}");
        assert_eq!(RunOutcome::Completed.audit_violations(), None);

        let r = outcome_report(outcome);
        assert!(r.is_saturated(), "corrupted numbers are never publishable");
        assert!(r.to_string().contains("CORRUPTED"), "{r}");
    }

    #[test]
    fn throughput_counts_flits() {
        let r = report_with(0.0, 100, 0.0);
        assert!((r.throughput_flits_per_cycle() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn display_summarises_the_run() {
        let r = report_with(1000.0, 1000, 0.5);
        let text = r.to_string();
        assert!(text.contains("latency 20.0 cycles"));
        assert!(text.contains("total power"));
        assert!(text.contains("buffer"));
        assert!(!text.contains("deadlocked"));
    }

    #[test]
    fn power_map_has_one_entry_per_node() {
        let r = report_with(100.0, 100, 0.0);
        assert_eq!(r.power_map().len(), 2);
        assert!(r.power_map()[0].0 > r.power_map()[1].0);
    }
}
