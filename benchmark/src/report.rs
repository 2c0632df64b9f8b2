//! What a run prints, and the modes that run every workload.
//!
//! One run prints a line per metric for people, then — as the last line
//! of standard output — the JSON object the driver reads. The
//! all-workload modes start one child process per workload (this same
//! binary with `--workload`), so peak memory and allocator state are
//! per workload, and read those lines back.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

use crate::catalog::{self, unit_of, Metric};
use crate::host;

/// One reported metric with the spread behind it.
#[derive(Debug, Clone)]
pub struct Row {
    pub metric: Metric,
    pub q1: f64,
    pub q3: f64,
    pub note: String,
}

impl Row {
    pub fn single(metric: Metric) -> Row {
        Row {
            q1: metric.value,
            q3: metric.value,
            metric,
            note: String::new(),
        }
    }
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub rows: Vec<Row>,
    pub log: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &'static str, seed: u64, trace: bool) -> Outcome {
        Outcome {
            workload,
            seed,
            trace,
            attempted: 0,
            failed: 0,
            rows: Vec::new(),
            log: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// A value JSON cannot carry is a failed measurement, not a crash
    /// of whoever reads the line.
    pub fn sanitize(&mut self) {
        for row in &mut self.rows {
            if !row.metric.value.is_finite() {
                self.failed += 1;
                self.log
                    .push(format!("{} is not a finite number", row.metric.name));
                row.metric.value = 0.0;
                (row.q1, row.q3) = (0.0, 0.0);
            }
        }
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, row) in self.rows.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                row.metric.name,
                row.metric.value,
                unit_of(row.metric.name)
            );
        }
        s.push_str("}}");
        s
    }

    pub fn print(&self) {
        println!(
            "run {} seed {} trace {} nproc {}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            host::nproc()
        );
        // A run that fails everywhere says so once per failure; the
        // first few dozen lines tell the story.
        for line in self.log.iter().take(40) {
            println!("note {line}");
        }
        for row in &self.rows {
            println!(
                "metric {} {} {} n={} q1={} q3={} {}",
                row.metric.name,
                row.metric.value,
                unit_of(row.metric.name),
                row.metric.samples,
                row.q1,
                row.q3,
                row.note
            );
        }
        println!(
            "failed_frac {} ({} of {})",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted.max(1)
        );
        println!("{}", self.json_line());
    }
}

/// What the all-workload modes pass down to each child.
#[derive(Debug, Clone, Copy)]
pub struct ChildArgs {
    pub seed: u64,
    pub seconds: u64,
    pub record_golden: bool,
}

/// A child run as read back from its output.
#[derive(Debug, Clone, Default)]
struct ChildRun {
    ok: bool,
    /// `metric` lines: name -> (value, unit, rest of the line).
    metrics: BTreeMap<String, (f64, String, String)>,
    notes: Vec<String>,
    failed_frac: String,
}

fn parse_child(stdout: &str, exit_ok: bool) -> ChildRun {
    let mut run = ChildRun {
        ok: exit_ok,
        ..ChildRun::default()
    };
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("metric ") {
            let mut parts = rest.splitn(4, ' ');
            if let (Some(name), Some(value), Some(unit)) =
                (parts.next(), parts.next(), parts.next())
            {
                if let Ok(value) = value.parse::<f64>() {
                    let detail = parts.next().unwrap_or("").trim().to_string();
                    run.metrics
                        .insert(name.to_string(), (value, unit.to_string(), detail));
                }
            }
        } else if let Some(rest) = line.strip_prefix("note ") {
            run.notes.push(rest.to_string());
        } else if let Some(rest) = line.strip_prefix("failed_frac ") {
            run.failed_frac = rest.to_string();
        }
    }
    run.ok &= stdout
        .lines()
        .last()
        .is_some_and(|l| l.starts_with("{\"correct\": true"));
    run
}

fn run_child(workload: &str, trace: bool, args: &ChildArgs) -> ChildRun {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.record_golden {
        command.arg("--record-golden");
    }
    let output = command.output().expect("the benchmark binary starts");
    parse_child(
        &String::from_utf8_lossy(&output.stdout),
        output.status.success(),
    )
}

fn print_run(workload: &str, trace: bool, run: &ChildRun) {
    println!(
        "\n== {workload} ({}) {}",
        if trace { "traced" } else { "untraced" },
        if run.ok { "ok" } else { "FAILED" }
    );
    for note in &run.notes {
        println!("   {note}");
    }
    let names: Vec<&str> = if trace {
        catalog::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        catalog::END_TO_END.iter().map(|m| m.name).collect()
    };
    for name in names {
        match run.metrics.get(name) {
            Some((value, unit, detail)) => {
                println!("   {name:<32} {value:>16.4} {unit:<9} {detail}")
            }
            None => println!("   {name:<32} {:>16} {:<9}", "n/a", unit_of(name)),
        }
    }
    println!("   {:<32} {}", "failed_frac", run.failed_frac);
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn results_json(args: &ChildArgs, runs: &[(String, bool, ChildRun)]) -> String {
    let mut s = String::from("{\n");
    let drift = host::profile_drift();
    let _ = writeln!(s, "  \"date\": \"{}\",", host::today());
    let _ = writeln!(s, "  \"commit\": \"{}\",", json_escape(&host::git_commit()));
    let _ = writeln!(
        s,
        "  \"rustc\": \"{}\",",
        json_escape(&host::rustc_version())
    );
    let _ = writeln!(s, "  \"cpu\": \"{}\",", json_escape(&host::cpu_model()));
    let _ = writeln!(s, "  \"nproc\": {},", host::nproc());
    let _ = writeln!(s, "  \"seed\": {},", args.seed);
    let _ = writeln!(s, "  \"seconds\": {},", args.seconds);
    let _ = writeln!(
        s,
        "  \"profile_drift\": {},",
        drift.map_or("null".to_string(), |d| format!("\"{}\"", json_escape(&d)))
    );
    s.push_str("  \"runs\": [\n");
    for (i, (workload, trace, run)) in runs.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"workload\": \"{workload}\", \"trace\": {}, \"ok\": {}, \"failed_frac\": \"{}\",",
            u8::from(*trace),
            run.ok,
            json_escape(&run.failed_frac)
        );
        let notes: Vec<String> = run
            .notes
            .iter()
            .map(|n| format!("\"{}\"", json_escape(n)))
            .collect();
        let _ = writeln!(s, "     \"notes\": [{}],", notes.join(", "));
        s.push_str("     \"metrics\": {\n");
        for (j, (name, (value, unit, detail))) in run.metrics.iter().enumerate() {
            let sep = if j + 1 == run.metrics.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "       \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\", \"samples\": \"{}\"}}{sep}",
                json_escape(detail)
            );
        }
        let sep = if i + 1 == runs.len() { "" } else { "," };
        let _ = writeln!(s, "     }}}}{sep}");
    }
    s.push_str("  ]\n}\n");
    s
}

fn print_context(args: &ChildArgs) {
    println!(
        "orion-benchmark: seed {} seconds {} nproc {} cpu \"{}\"",
        args.seed,
        args.seconds,
        host::nproc(),
        host::cpu_model()
    );
    match host::profile_drift() {
        None => println!("profile_drift none (release profile mirrors the repository's)"),
        Some(drift) => println!("profile_drift {drift}"),
    }
}

/// Every workload untraced, then every workload traced; results land
/// in `out/results.json`. Returns the process exit code.
pub fn all_workloads(args: &ChildArgs) -> i32 {
    print_context(args);
    let mut runs = Vec::new();
    for trace in [false, true] {
        for workload in catalog::workload_names() {
            let run = run_child(workload, trace, args);
            print_run(workload, trace, &run);
            runs.push((workload.to_string(), trace, run));
        }
    }
    let path = host::out_dir().join("results.json");
    std::fs::create_dir_all(host::out_dir()).expect("benchmark/out is writable");
    std::fs::write(&path, results_json(args, &runs)).expect("benchmark/out is writable");
    println!("\nresults written to {}", path.display());
    let failed = runs.iter().filter(|(_, _, r)| !r.ok).count();
    if failed > 0 {
        println!("{failed} run(s) FAILED their output checks");
    }
    i32::from(failed > 0)
}

/// The untraced set twice, in alternating workload order; every
/// end-to-end metric of the two sets must agree within its bound.
pub fn all_twice(args: &ChildArgs) -> i32 {
    print_context(args);
    let mut order: Vec<&str> = catalog::workload_names().collect();
    let mut sets: Vec<BTreeMap<&str, ChildRun>> = Vec::new();
    for _ in 0..2 {
        let mut set = BTreeMap::new();
        for workload in &order {
            let run = run_child(workload, false, args);
            println!("ran {workload}: {}", if run.ok { "ok" } else { "FAILED" });
            set.insert(*workload, run);
        }
        sets.push(set);
        order.reverse();
    }
    let mut bad = 0;
    println!(
        "\n{:<16} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for workload in catalog::workload_names() {
        let (a, b) = (&sets[0][workload], &sets[1][workload]);
        if !a.ok || !b.ok {
            bad += 1;
            println!("{workload:<16} output checks FAILED");
        }
        for m in &catalog::END_TO_END {
            let (Some(x), Some(y)) = (a.metrics.get(m.name), b.metrics.get(m.name)) else {
                bad += 1;
                println!("{workload:<16} {:<18} missing", m.name);
                continue;
            };
            let diff = (y.0 - x.0).abs() / x.0.abs().max(f64::MIN_POSITIVE);
            let verdict = if diff > m.bound {
                bad += 1;
                "EXCEEDS"
            } else {
                ""
            };
            println!(
                "{workload:<16} {:<18} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}% {verdict}",
                m.name,
                x.0,
                y.0,
                diff * 100.0,
                m.bound * 100.0
            );
        }
    }
    if bad > 0 {
        println!("\n{bad} comparison(s) outside their bound");
    }
    i32::from(bad > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        let mut o = Outcome::new("fig5_sweep", 1, false);
        o.attempted = 41;
        o.rows = vec![
            Row::single(Metric::new("wall_s", 2.5, 4)),
            Row::single(Metric::new("setup_s", 0.031_25, 7)),
        ];
        o
    }

    #[test]
    fn the_driver_line_has_exactly_the_contract_keys() {
        assert_eq!(
            outcome().json_line(),
            "{\"correct\": true, \"attempted\": 41, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 2.5, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.03125, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn non_finite_values_become_failures() {
        let mut o = outcome();
        o.rows[0].metric.value = f64::NAN;
        o.sanitize();
        assert_eq!(o.failed, 1);
        assert!(o.json_line().starts_with("{\"correct\": false"));
        assert!(!o.json_line().contains("NaN"));
    }

    #[test]
    fn child_output_round_trips() {
        let o = outcome();
        let mut text = String::from("run fig5_sweep seed 1 trace 0 nproc 2\nnote 4 passes\n");
        text.push_str("metric wall_s 2.5 s n=4 q1=2.4 q3=2.6 \n");
        text.push_str("failed_frac 0 (0 of 41)\n");
        text.push_str(&o.json_line());
        text.push('\n');
        let run = parse_child(&text, true);
        assert!(run.ok);
        assert_eq!(run.metrics["wall_s"].0, 2.5);
        assert_eq!(run.metrics["wall_s"].2, "n=4 q1=2.4 q3=2.6");
        assert_eq!(run.notes, ["4 passes"]);
        assert!(
            !parse_child(&text, false).ok,
            "a non-zero exit is a failure"
        );
        assert!(
            !parse_child("metric wall_s 2.5 s\n", true).ok,
            "no result line"
        );
    }
}
