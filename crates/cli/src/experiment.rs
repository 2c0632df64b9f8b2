//! The `experiment` subcommand: run a declarative TOML experiment spec
//! through the orchestration engine (`orion-exp`), or explore a design
//! space through the search engine (`orion-explore`).
//!
//! ```text
//! orion-power-cli experiment run examples/specs/fig5.toml \
//!     --cache-dir .exp-cache --out-dir experiments
//! orion-power-cli experiment explore examples/specs/explore_smoke.toml \
//!     --cache-dir .exp-cache --out-dir experiments
//! ```
//!
//! Unlike the component subcommands, `experiment run`/`explore` declare
//! a positional spec path in their [`Grammar`] and report failures on
//! stdout. Exit codes follow the scheme
//! in [`crate::run`]: 2 for bad input (spec errors, a cache directory
//! locked by another live run), 1 for I/O failures, 3 when the run
//! degraded (failed, crashed or corrupted cells, or a cache sink that
//! broke mid-run), 0 otherwise.
//!
//! Each cell runs once, under its derived seed; a panicking cell is
//! quarantined as one `crashed` record. `--threads` (default: every
//! core) is the run's core budget, `--checkpoint-every` sets how cells
//! run, and `--audit-every` overrides the spec's audit cadence.
//!
//! `experiment explore` adds `--seed` / `--budget` overrides (the
//! determinism contract keys on both — see `docs/EXPLORATION.md`) and
//! `--observe-dir` to dump the `explore_*` metrics snapshot.

use std::path::{Path, PathBuf};

use orion_core::exec::host_cores;
use orion_exp::{run_spec, write_artifacts, EngineOptions, ExperimentSpec, SpecError, Supervision};
use orion_explore::{run_explore, write_explore_artifacts, ExploreOptions, ExploreSpec};
use orion_obs::json::Json;

use crate::args::{ArgError, Args, Grammar};
use crate::run::{CmdOutput, EXIT_BAD_INPUT, EXIT_DEGRADED, EXIT_RUNTIME, JSON_SCHEMA_VERSION};

pub(crate) const RUN: Grammar = Grammar(
    "<spec.toml> --threads N --cache-dir DIR --out-dir DIR --audit-every N \
     --checkpoint-every CYCLES --json --quiet",
);
pub(crate) const EXPLORE: Grammar = Grammar(
    "<spec.toml> --threads N --cache-dir DIR --out-dir DIR --seed N --budget N \
     --checkpoint-every CYCLES --observe-dir DIR --json --quiet",
);

/// Reads and validates the spec file named by the positional argument
/// (unreadable or malformed: bad input).
fn load_spec<S>(args: &Args, parse: fn(&str) -> Result<S, SpecError>) -> Result<S, CmdOutput> {
    let path = args.positional().unwrap_or_default();
    let text = std::fs::read_to_string(path)
        .map_err(|e| CmdOutput::failure(EXIT_BAD_INPUT, format!("cannot read `{path}`: {e}")))?;
    parse(&text).map_err(|e| CmdOutput::failure(EXIT_BAD_INPUT, format!("{path}: {e}")))
}

/// A failure to open or run over a cache directory, for every
/// subcommand that takes one: a directory locked by another live run is
/// the caller's conflict (bad input), anything else is I/O, reported
/// after `context`.
pub(crate) fn engine_failure(context: &str, e: std::io::Error) -> CmdOutput {
    if e.kind() == std::io::ErrorKind::AlreadyExists {
        CmdOutput::failure(EXIT_BAD_INPUT, e)
    } else {
        CmdOutput::failure(EXIT_RUNTIME, format!("{context}: {e}"))
    }
}

fn write_failure(what: &str, dir: &Path, e: std::io::Error) -> CmdOutput {
    let dir = dir.display();
    CmdOutput::failure(
        EXIT_RUNTIME,
        format!("cannot write {what} under `{dir}`: {e}"),
    )
}

/// The supervision line both human summaries share.
fn supervision_note(out: &mut String, crashed: u64) {
    if crashed > 0 {
        out.push_str(&format!("supervision: {crashed} crashed\n"));
    }
}

fn append_note(out: &mut String, error: &Option<String>, failures: impl std::fmt::Display) {
    if let Some(e) = error {
        out.push_str(&format!(
            "warning: cache append broke mid-run ({failures} record(s) not cached): {e}\n"
        ));
    }
}

fn degraded_code(degraded: bool) -> u8 {
    if degraded {
        EXIT_DEGRADED
    } else {
        0
    }
}

/// The supervision knobs `run`, `explore` and `serve` share.
pub(crate) fn supervision(args: &Args) -> Result<Supervision, ArgError> {
    Ok(Supervision {
        checkpoint_every: args.u64_or("checkpoint-every", 0)?,
    })
}

fn run_grid(args: &Args) -> Result<CmdOutput, CmdOutput> {
    let opts = EngineOptions {
        threads: args.u64_or("threads", host_cores() as u64)? as usize,
        cache_dir: args.path("cache-dir"),
        progress: !args.flag("quiet") && !args.flag("json"),
        supervision: supervision(args)?,
    };
    let audit_every = args.u64_opt("audit-every")?;
    let out_dir = args
        .path("out-dir")
        .unwrap_or_else(|| PathBuf::from("experiments"));
    let mut spec = load_spec(args, ExperimentSpec::parse)?;
    if let Some(n) = audit_every {
        spec.measure.audit_every = n;
    }

    let (records, summary) =
        run_spec(&spec, &opts).map_err(|e| engine_failure("engine I/O failure", e))?;
    let artifacts = write_artifacts(&out_dir, &spec.name, &records)
        .map_err(|e| write_failure("artifacts", &out_dir, e))?;

    let elapsed = summary.elapsed.as_secs_f64();
    let mut out = String::new();
    if args.flag("json") {
        let mut o = Json::pretty(&mut out);
        o.key("schema_version").num(JSON_SCHEMA_VERSION);
        o.key("experiment").str(&spec.name);
        o.key("cells").num(summary.total);
        o.key("simulated").num(summary.simulated);
        o.key("cache_hits").num(summary.cache_hits);
        o.key("failed").num(summary.failed);
        o.key("crashed").num(summary.crashed);
        o.key("corrupted").num(summary.corrupted);
        o.key("corrupt_cache_lines")
            .num(summary.corrupt_cache_lines);
        o.key("append_failures").num(summary.append_failures);
        o.key("elapsed_s").fixed(elapsed, 3);
        let mut files = o.key("artifacts").object();
        files
            .key("jsonl")
            .str(&artifacts.jsonl.display().to_string());
        files.key("csv").str(&artifacts.csv.display().to_string());
        files.end();
        o.end();
        out.push('\n');
    } else {
        out = format!(
            "experiment {}: {} cells, {} simulated, {} cached, {} failed in {:.1}s\n",
            spec.name,
            summary.total,
            summary.simulated,
            summary.cache_hits,
            summary.failed,
            elapsed,
        );
        supervision_note(&mut out, summary.crashed as u64);
        if summary.corrupted > 0 {
            out.push_str(&format!(
                "warning: {} cell(s) failed the runtime invariant audit (outcome `corrupted`)\n",
                summary.corrupted
            ));
        }
        if summary.corrupt_cache_lines > 0 {
            out.push_str(&format!(
                "warning: skipped {} corrupt cache line(s); affected cells re-simulated\n",
                summary.corrupt_cache_lines
            ));
        }
        append_note(&mut out, &summary.append_error, summary.append_failures);
        out.push_str(&format!(
            "artifacts: {}, {}\n",
            artifacts.jsonl.display(),
            artifacts.csv.display()
        ));
    }
    Ok(CmdOutput {
        text: out,
        code: degraded_code(summary.is_degraded()),
    })
}

fn run_search(args: &Args) -> Result<CmdOutput, CmdOutput> {
    let opts = ExploreOptions {
        threads: args.u64_or("threads", host_cores() as u64)? as usize,
        cache_dir: args.path("cache-dir"),
        progress: !args.flag("quiet") && !args.flag("json"),
        supervision: supervision(args)?,
        seed: args.u64_opt("seed")?,
        budget: args.positive("budget")?.map(|n| n as usize),
    };
    let out_dir = args
        .path("out-dir")
        .unwrap_or_else(|| PathBuf::from("experiments"));
    let spec = load_spec(args, ExploreSpec::parse)?;

    let report = run_explore(&spec, &opts).map_err(|e| engine_failure("explore I/O failure", e))?;
    let artifacts = write_explore_artifacts(&out_dir, &spec.name, &report.points)
        .map_err(|e| write_failure("artifacts", &out_dir, e))?;
    if let Some(dir) = args.path("observe-dir") {
        std::fs::create_dir_all(&dir)
            .and_then(|()| {
                std::fs::write(dir.join("metrics.json"), report.metrics.to_json())?;
                std::fs::write(dir.join("metrics.csv"), report.metrics.to_csv())
            })
            .map_err(|e| write_failure("metrics", &dir, e))?;
    }

    let summary = &report.summary;
    let stats = &summary.stats;
    let elapsed = summary.elapsed.as_secs_f64();
    let mut out = String::new();
    if args.flag("json") {
        let mut o = Json::pretty(&mut out);
        o.key("schema_version").num(JSON_SCHEMA_VERSION);
        o.key("experiment").str(&spec.name);
        o.key("strategy").str(summary.strategy);
        o.key("budget").num(summary.budget);
        o.key("seed").num(summary.seed);
        o.key("evaluations").num(summary.evaluations);
        o.key("cells").num(summary.cells);
        o.key("rounds").num(summary.rounds);
        o.key("frontier").num(summary.frontier_total());
        o.key("dominated").num(summary.dominated);
        o.key("cache_hits").num(stats.cache_hits);
        o.key("executed").num(stats.executed);
        o.key("crashed").num(stats.crashed);
        o.key("failed").num(stats.failed);
        o.key("append_failures").num(stats.append_failures);
        o.key("elapsed_s").fixed(elapsed, 3);
        let mut files = o.key("artifacts").object();
        for (key, path) in [
            ("frontier_jsonl", &artifacts.frontier_jsonl),
            ("frontier_csv", &artifacts.frontier_csv),
            ("dominated_jsonl", &artifacts.dominated_jsonl),
            ("dominated_csv", &artifacts.dominated_csv),
        ] {
            files.key(key).str(&path.display().to_string());
        }
        files.end();
        o.end();
        out.push('\n');
    } else {
        out = format!(
            "explore {}: {} {} evaluations ({} budget, seed {}), {} rounds in {:.1}s\n",
            spec.name,
            summary.strategy,
            summary.evaluations,
            summary.budget,
            summary.seed,
            summary.rounds,
            elapsed,
        );
        for (traffic, n) in &summary.frontier_sizes {
            out.push_str(&format!("frontier[{traffic}]: {n} points\n"));
        }
        out.push_str(&format!(
            "cells: {} cached, {} simulated, {} dominated points\n",
            stats.cache_hits, stats.executed, summary.dominated,
        ));
        supervision_note(&mut out, stats.crashed);
        append_note(&mut out, &summary.append_error, stats.append_failures);
        out.push_str(&format!(
            "artifacts: {}, {}\n",
            artifacts.frontier_jsonl.display(),
            artifacts.dominated_jsonl.display(),
        ));
    }
    Ok(CmdOutput {
        text: out,
        code: degraded_code(summary.is_degraded()),
    })
}

/// Executes `experiment <tokens...>`, returning rendered output and
/// the exit code (never panics; every failure maps to a coded result).
pub fn execute(tokens: &[String]) -> CmdOutput {
    type Run = fn(&Args) -> Result<CmdOutput, CmdOutput>;
    let (command, grammar, run): (_, _, Run) = match tokens.first().map(String::as_str) {
        Some("run") => ("experiment run", &RUN, run_grid),
        Some("explore") => ("experiment explore", &EXPLORE, run_search),
        _ => {
            let expected = "expected `experiment run|explore <spec.toml> [options]`";
            return CmdOutput::failure(EXIT_BAD_INPUT, expected);
        }
    };
    match Args::parse(command, &tokens[1..], grammar) {
        Ok(args) => run(&args).unwrap_or_else(|failed| failed),
        Err(e) => e.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::toks;
    use std::fs;
    use std::path::Path;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("orion-cli-exp-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_spec(dir: &Path) -> PathBuf {
        let path = dir.join("spec.toml");
        fs::write(
            &path,
            r#"
[experiment]
name = "cli-smoke"

[measure]
warmup = 100
sample_packets = 100
max_cycles = 20000

[grid]
presets = ["vc16"]
rates = [0.02, 0.04]
"#,
        )
        .unwrap();
        path
    }

    #[test]
    fn bad_input_exits_2() {
        for line in [
            "",                                // missing subcommand
            "walk spec.toml",                  // unknown subcommand
            "run",                             // missing spec path
            "run a.toml b.toml",               // extra positional
            "run a.toml --threads",            // value-less option
            "run a.toml --bogus 1",            // unknown option
            "run /nonexistent.toml",           // unreadable file
            "run a.toml --audit-every",        // value-less option
            "run a.toml --checkpoint-every x", // non-integer cadence
            "run a.toml --json true",          // a switch takes no value
            "run --quiet yes a.toml",          // ... in either position
        ] {
            let out = execute(&toks(line));
            assert_eq!(out.code, EXIT_BAD_INPUT, "{line:?} -> {}", out.text);
            assert!(out.text.starts_with("error:"), "{line:?} -> {}", out.text);
        }
    }

    #[test]
    fn removed_supervision_flags_are_unknown_options() {
        for line in [
            "run a.toml --retries 1",
            "run a.toml --cell-timeout-ms 1",
            "run a.toml --shards 2",
            "explore a.toml --retries 1",
            "explore a.toml --cell-timeout-ms 1",
            "explore a.toml --shards 2",
        ] {
            let out = execute(&toks(line));
            assert_eq!(out.code, EXIT_BAD_INPUT, "{line:?} -> {}", out.text);
            assert!(
                out.text.contains("unknown option"),
                "{line:?} -> {}",
                out.text
            );
        }
    }

    #[test]
    fn malformed_spec_exits_2_with_diagnostic() {
        let dir = temp_dir("badspec");
        let path = dir.join("bad.toml");
        fs::write(
            &path,
            "[experiment]\nname = \"x\"\n[grid]\npresets = [\"warp9\"]\nrates = [0.1]\n",
        )
        .unwrap();
        let out = execute(&toks(&format!("run {}", path.display())));
        assert_eq!(out.code, EXIT_BAD_INPUT);
        assert!(out.text.contains("warp9"), "{}", out.text);
        assert!(out.text.contains("line 4"), "{}", out.text);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unrunnable_designs_exit_2_before_any_cell_runs() {
        let dir = temp_dir("unrunnable");
        for (name, grid) in [
            (
                "bubble",
                "presets = [\"vc16\"]\nflow_control = [\"bubble\"]\n",
            ),
            ("wide", "presets = [\"vc26x2\"]\n"),
        ] {
            let path = dir.join(format!("{name}.toml"));
            let text = format!("[experiment]\nname = \"{name}\"\n[grid]\nrates = [0.02]\n{grid}");
            fs::write(&path, text).unwrap();
            let out = execute(&toks(&format!(
                "run {} --cache-dir {} --out-dir {}",
                path.display(),
                dir.join("cache").display(),
                dir.join("out").display(),
            )));
            assert_eq!(out.code, EXIT_BAD_INPUT, "{name}: {}", out.text);
            assert!(out.text.contains("spec line 5: design"), "{}", out.text);
            assert!(!dir.join("cache").exists(), "{name}: a cache was made");
            assert!(!dir.join("out").exists(), "{name}: a record was written");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_writes_artifacts_then_hits_cache() {
        let dir = temp_dir("run");
        let spec = write_spec(&dir);
        let line = format!(
            "run {} --threads 2 --cache-dir {} --out-dir {} --json --quiet",
            spec.display(),
            dir.join("cache").display(),
            dir.join("out").display(),
        );

        let first = execute(&toks(&line));
        assert_eq!(first.code, 0, "{}", first.text);
        assert!(
            first
                .text
                .contains(&format!("\"schema_version\": {JSON_SCHEMA_VERSION}")),
            "{}",
            first.text
        );
        assert!(first.text.contains("\"crashed\": 0"), "{}", first.text);
        assert!(first.text.contains("\"cache_hits\": 0"), "{}", first.text);
        assert!(first.text.contains("\"simulated\": 2"), "{}", first.text);
        assert!(dir.join("out/cli-smoke.jsonl").exists());
        assert!(dir.join("out/cli-smoke.csv").exists());

        let second = execute(&toks(&line));
        assert_eq!(second.code, 0);
        assert!(second.text.contains("\"simulated\": 0"), "{}", second.text);
        assert!(second.text.contains("\"cache_hits\": 2"), "{}", second.text);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_axis_values_run_one_cell() {
        let dir = temp_dir("dup");
        let spec = dir.join("dup.toml");
        fs::write(
            &spec,
            "[experiment]\nname = \"dup\"\n[measure]\nwarmup = 100\nsample_packets = 100\n\
             max_cycles = 20000\n[grid]\npresets = [\"vc64\", \"vc8x8\"]\n\
             traffic = [\"uniform\", \"uniform\"]\nrates = [0.02, 0.02]\nseeds = [1, 1]\n",
        )
        .unwrap();
        // Switches ahead of the positional: `--json` must not swallow
        // the spec path.
        let out = execute(&toks(&format!(
            "run --quiet --json {} --cache-dir {} --out-dir {}",
            spec.display(),
            dir.join("cache").display(),
            dir.join("out").display(),
        )));
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(out.text.contains("\"cells\": 1"), "{}", out.text);
        assert!(out.text.contains("\"simulated\": 1"), "{}", out.text);
        for file in ["out/dup.jsonl", "cache/orion-exp-cache.jsonl"] {
            let text = fs::read_to_string(dir.join(file)).unwrap();
            assert_eq!(text.lines().count(), 1, "{file}: {text}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn locked_cache_dir_exits_2_with_holder_diagnostic() {
        let dir = temp_dir("locked");
        let spec = write_spec(&dir);
        let cache = dir.join("cache");
        let _lock = orion_exp::CacheLock::acquire(&cache).unwrap();
        let out = execute(&toks(&format!(
            "run {} --cache-dir {} --out-dir {} --quiet",
            spec.display(),
            cache.display(),
            dir.join("out").display(),
        )));
        assert_eq!(out.code, EXIT_BAD_INPUT, "{}", out.text);
        assert!(out.text.contains("lock"), "{}", out.text);
        let _ = fs::remove_dir_all(&dir);
    }

    fn write_explore_spec(dir: &Path) -> PathBuf {
        let path = dir.join("explore.toml");
        fs::write(
            &path,
            r#"
[experiment]
name = "cli-explore"

[measure]
warmup = 100
sample_packets = 100
max_cycles = 20000

[explore]
strategy = "grid-refine"
budget = 4
rate = 0.02

[space]
families = ["vc"]
vcs = [2, 4]
depths = [4, 8]
"#,
        )
        .unwrap();
        path
    }

    #[test]
    fn explore_bad_input_exits_2() {
        for line in [
            "explore",                             // missing spec path
            "explore a.toml b.toml",               // extra positional
            "explore a.toml --budget 0",           // zero budget
            "explore a.toml --budget x",           // non-integer budget
            "explore a.toml --seed",               // value-less option
            "explore a.toml --bogus 1",            // unknown option
            "explore /nonexistent.toml",           // unreadable file
            "explore a.toml --checkpoint-every x", // non-integer cadence
        ] {
            let out = execute(&toks(line));
            assert_eq!(out.code, EXIT_BAD_INPUT, "{line:?} -> {}", out.text);
            assert!(out.text.starts_with("error:"), "{line:?} -> {}", out.text);
        }
    }

    #[test]
    fn explore_malformed_spec_exits_2_with_diagnostic() {
        let dir = temp_dir("badexplore");
        let path = dir.join("bad.toml");
        fs::write(
            &path,
            "[experiment]\nname = \"x\"\n[explore]\nbudget = 4\nstrategy = \"warp\"\n[space]\nfamilies = [\"vc\"]\n",
        )
        .unwrap();
        let out = execute(&toks(&format!("explore {}", path.display())));
        assert_eq!(out.code, EXIT_BAD_INPUT, "{}", out.text);
        assert!(out.text.contains("warp"), "{}", out.text);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn explore_writes_frontier_artifacts_then_hits_cache() {
        let dir = temp_dir("explore");
        let spec = write_explore_spec(&dir);
        let line = format!(
            "explore {} --threads 2 --cache-dir {} --out-dir {} --observe-dir {} --json --quiet",
            spec.display(),
            dir.join("cache").display(),
            dir.join("out").display(),
            dir.join("obs").display(),
        );

        let first = execute(&toks(&line));
        assert_eq!(first.code, 0, "{}", first.text);
        assert!(
            first
                .text
                .contains(&format!("\"schema_version\": {JSON_SCHEMA_VERSION}")),
            "{}",
            first.text
        );
        assert!(first.text.contains("\"evaluations\": 4"), "{}", first.text);
        assert!(first.text.contains("\"executed\": 4"), "{}", first.text);
        assert!(first.text.contains("\"cache_hits\": 0"), "{}", first.text);
        for artifact in [
            "out/cli-explore.frontier.jsonl",
            "out/cli-explore.frontier.csv",
            "out/cli-explore.dominated.jsonl",
            "out/cli-explore.dominated.csv",
        ] {
            assert!(dir.join(artifact).exists(), "missing {artifact}");
        }
        let metrics = fs::read_to_string(dir.join("obs/metrics.json")).unwrap();
        assert!(metrics.contains("explore_evaluations"), "{metrics}");
        assert!(dir.join("obs/metrics.csv").exists());

        // Second run: every cell is a cache hit, frontier unchanged.
        let second = execute(&toks(&line));
        assert_eq!(second.code, 0, "{}", second.text);
        assert!(second.text.contains("\"executed\": 0"), "{}", second.text);
        assert!(second.text.contains("\"cache_hits\": 4"), "{}", second.text);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn explore_human_summary_mentions_frontier() {
        let dir = temp_dir("explore-human");
        let spec = write_explore_spec(&dir);
        let out = execute(&toks(&format!(
            "explore {} --out-dir {} --quiet",
            spec.display(),
            dir.join("out").display(),
        )));
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(out.text.contains("explore cli-explore"), "{}", out.text);
        assert!(out.text.contains("frontier[uniform]"), "{}", out.text);
        assert!(
            out.text.contains("cli-explore.frontier.jsonl"),
            "{}",
            out.text
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_summary_escapes_artifact_paths() {
        let dir = temp_dir("json-escape");
        let spec = write_spec(&dir);
        // An out-dir whose name contains a quote and a backslash must
        // still produce valid JSON (escaped, not interpolated raw).
        let out_dir = dir.join("ou\"t\\dir");
        let out = execute(&toks(&format!(
            "run {} --out-dir {} --json --quiet",
            spec.display(),
            out_dir.display(),
        )));
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(
            out.text.contains(r#"ou\"t\\dir"#),
            "artifact paths must be JSON-escaped: {}",
            out.text
        );
        let explore = execute(&toks(&format!(
            "explore {} --out-dir {} --json --quiet",
            write_explore_spec(&dir).display(),
            out_dir.display(),
        )));
        assert_eq!(explore.code, 0, "{}", explore.text);
        // Exact bytes at `JSON_SCHEMA_VERSION` 6, with the two
        // run-dependent values (wall-clock, temp directory) masked.
        let masked = |text: &str| {
            let elapsed = text.find("\"elapsed_s\": ").expect("elapsed_s") + 13;
            let end = elapsed + text[elapsed..].find(',').expect("comma");
            format!("{}T{}", &text[..elapsed], &text[end..])
                .replace(&dir.display().to_string(), "DIR")
        };
        assert_eq!(masked(&out.text), GOLDEN_RUN_SUMMARY);
        assert_eq!(masked(&explore.text), GOLDEN_EXPLORE_SUMMARY);
        let _ = fs::remove_dir_all(&dir);
    }

    const GOLDEN_RUN_SUMMARY: &str = r#"{
  "schema_version": 6,
  "experiment": "cli-smoke",
  "cells": 2,
  "simulated": 2,
  "cache_hits": 0,
  "failed": 0,
  "crashed": 0,
  "corrupted": 0,
  "corrupt_cache_lines": 0,
  "append_failures": 0,
  "elapsed_s": T,
  "artifacts": {"jsonl": "DIR/ou\"t\\dir/cli-smoke.jsonl", "csv": "DIR/ou\"t\\dir/cli-smoke.csv"}
}
"#;
    const GOLDEN_EXPLORE_SUMMARY: &str = r#"{
  "schema_version": 6,
  "experiment": "cli-explore",
  "strategy": "grid-refine",
  "budget": 4,
  "seed": 1,
  "evaluations": 4,
  "cells": 4,
  "rounds": 1,
  "frontier": 1,
  "dominated": 3,
  "cache_hits": 0,
  "executed": 4,
  "crashed": 0,
  "failed": 0,
  "append_failures": 0,
  "elapsed_s": T,
  "artifacts": {"frontier_jsonl": "DIR/ou\"t\\dir/cli-explore.frontier.jsonl", "frontier_csv": "DIR/ou\"t\\dir/cli-explore.frontier.csv", "dominated_jsonl": "DIR/ou\"t\\dir/cli-explore.dominated.jsonl", "dominated_csv": "DIR/ou\"t\\dir/cli-explore.dominated.csv"}
}
"#;

    #[test]
    fn human_summary_mentions_artifacts() {
        let dir = temp_dir("human");
        let spec = write_spec(&dir);
        let out = execute(&toks(&format!(
            "run {} --out-dir {} --quiet",
            spec.display(),
            dir.join("out").display(),
        )));
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(
            out.text.contains("experiment cli-smoke: 2 cells"),
            "{}",
            out.text
        );
        assert!(out.text.contains("cli-smoke.csv"), "{}", out.text);
        let _ = fs::remove_dir_all(&dir);
    }
}
