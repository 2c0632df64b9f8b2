//! The `serve` subcommand: run the long-lived experiment-serving
//! daemon (`orion-serve`) from the CLI.
//!
//! ```text
//! orion-power-cli serve --addr 127.0.0.1:7774 --cache-dir .exp-cache \
//!     --workers 4 --queue 8
//! ```
//!
//! Admission depends on capacity alone: `--workers` and `--queue` size
//! the pool and its wait queue, and the daemon holds at most that many
//! connections plus a fixed headroom for probes.
//!
//! Like `experiment`, this subcommand reports failures on stdout. Exit
//! codes follow the scheme in [`crate::run`]: 2 for bad arguments or a
//! cache directory locked by another live run (the same mapping as
//! `experiment run|explore`), 1 for bind and other I/O failures, 3 when
//! shutdown could not drain every in-flight request within
//! `--drain-timeout-ms`, 0 for a clean drain.

use std::time::Duration;

use orion_serve::{signal, ServeConfig, Server, SERVE_PROTOCOL_VERSION};

use crate::args::{ArgError, Args, Grammar};
use crate::experiment::{engine_failure, supervision};
use crate::run::{CmdOutput, EXIT_DEGRADED, EXIT_RUNTIME};

/// `serve`: the supervision option is `experiment run`'s, read by the
/// same function; every other option maps onto a [`ServeConfig`] field.
pub(crate) const GRAMMAR: Grammar = Grammar(
    "--addr HOST:PORT --cache-dir DIR --workers N --queue N --queue-patience-ms N \
     --drain-timeout-ms N --max-body-bytes N --checkpoint-every CYCLES",
);

fn parse_args(tokens: &[String]) -> Result<ServeConfig, ArgError> {
    let args = Args::parse("serve", tokens, &GRAMMAR)?;
    let d = ServeConfig::default();
    Ok(ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7774").to_string(),
        cache_dir: args.path("cache-dir"),
        workers: args.positive("workers")?.map_or(d.workers, |n| n as usize),
        queue_depth: args.u64_or("queue", d.queue_depth as u64)? as usize,
        queue_patience: args
            .u64_opt("queue-patience-ms")?
            .map_or(d.queue_patience, Duration::from_millis),
        supervision: supervision(&args)?,
        drain_timeout: args
            .u64_opt("drain-timeout-ms")?
            .map_or(d.drain_timeout, Duration::from_millis),
        max_body_bytes: args.u64_or("max-body-bytes", d.max_body_bytes as u64)? as usize,
    })
}

/// Executes `serve <tokens...>`: binds, installs signal handlers,
/// serves until SIGTERM/SIGINT, drains, and maps the outcome onto the
/// structured exit codes (never panics).
pub fn execute(tokens: &[String]) -> CmdOutput {
    let config = match parse_args(tokens) {
        Ok(c) => c,
        Err(e) => return e.into(),
    };
    let addr = config.addr.clone();
    let server = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => return engine_failure(&format!("cannot start daemon on `{addr}`"), e),
    };
    let addr = server.local_addr().map_or(addr, |a| a.to_string());
    signal::install(&server);
    eprintln!(
        "orion serve: listening on {addr}, protocol {SERVE_PROTOCOL_VERSION} \
         (SIGTERM/SIGINT to drain)"
    );
    match server.run() {
        Ok(outcome) if outcome.drained => CmdOutput::ok(format!(
            "orion serve: drained cleanly after {} requests\n",
            outcome.requests
        )),
        Ok(outcome) => CmdOutput {
            text: format!(
                "orion serve: drain deadline expired with {} request(s) still in flight \
                 after {} total\n",
                outcome.abandoned, outcome.requests
            ),
            code: EXIT_DEGRADED,
        },
        Err(e) => CmdOutput::failure(EXIT_RUNTIME, format!("daemon failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::toks as tokens;
    use crate::run::EXIT_BAD_INPUT;
    use std::path::PathBuf;

    #[test]
    fn parses_full_flag_set() {
        let config = parse_args(&tokens(
            "--addr 0.0.0.0:9000 --cache-dir cache --workers 8 --queue 16 \
             --queue-patience-ms 500 \
             --drain-timeout-ms 5000 --max-body-bytes 4096 \
             --checkpoint-every 4096",
        ))
        .unwrap();
        assert_eq!(config.addr, "0.0.0.0:9000");
        assert_eq!(config.cache_dir, Some(PathBuf::from("cache")));
        assert_eq!(config.workers, 8);
        assert_eq!(config.queue_depth, 16);
        assert_eq!(config.queue_patience, Duration::from_millis(500));
        assert_eq!(config.drain_timeout, Duration::from_millis(5000));
        assert_eq!(config.max_body_bytes, 4096);
        assert_eq!(config.supervision.checkpoint_every, 4096);
    }

    #[test]
    fn defaults_are_sane() {
        let config = parse_args(&[]).unwrap();
        assert_eq!(config.addr, "127.0.0.1:7774");
        assert_eq!(config.cache_dir, None);
    }

    #[test]
    fn bad_flags_are_typed_errors() {
        assert!(parse_args(&tokens("--workers 0")).is_err());
        assert!(parse_args(&tokens("--workers many")).is_err());
        assert!(parse_args(&tokens("--nope")).is_err());
        assert!(parse_args(&tokens("--addr")).is_err());
    }

    #[test]
    fn execute_maps_bad_args_to_exit_2() {
        let out = execute(&tokens("--bogus"));
        assert_eq!(out.code, EXIT_BAD_INPUT);
        assert!(out.text.contains("unknown option"));
    }

    #[test]
    fn removed_flags_are_unknown_options() {
        // Parsed, not executed: an accepted flag would start the daemon.
        for line in [
            "--retries 1",
            "--cell-timeout-ms 1",
            "--client-budget 1",
            "--shards 2",
        ] {
            let out: CmdOutput = parse_args(&tokens(line)).unwrap_err().into();
            assert_eq!(out.code, EXIT_BAD_INPUT, "{line:?} -> {}", out.text);
            assert!(
                out.text.contains("unknown option"),
                "{line:?} -> {}",
                out.text
            );
        }
    }

    #[test]
    fn execute_maps_bind_failure_to_exit_1() {
        // An address with no port can never bind (and can never start
        // the blocking serve loop by accident).
        let out = execute(&tokens("--addr no-port-here"));
        assert_eq!(out.code, EXIT_RUNTIME);
        assert!(out.text.contains("cannot start daemon"));
    }

    #[test]
    fn execute_maps_a_held_cache_dir_to_exit_2_naming_the_holder() {
        // Kernel file locks conflict across open file descriptions, so
        // a lock held by this process refuses the daemon's own attempt.
        let dir = std::env::temp_dir().join(format!("orion-cli-serve-{}-held", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let lock = orion_exp::CacheLock::acquire(&dir).unwrap();
        let out = execute(&tokens(&format!(
            "--addr 127.0.0.1:0 --cache-dir {}",
            dir.display()
        )));
        assert_eq!(out.code, EXIT_BAD_INPUT, "{}", out.text);
        let pid = format!("(pid {})", std::process::id());
        assert!(out.text.contains(&pid), "{}", out.text);
        drop(lock);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
