//! Shared scaffolding for tests that drive the built binary the way CI
//! shell steps used to: a scratch directory, one call that runs
//! `orion-power-cli` and captures everything, a same-bytes assert, and
//! JSON readers that are not the writer.

#![allow(dead_code)] // each test file uses its own subset

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_orion-power-cli");

/// A scratch directory under the system temp dir, removed on drop.
pub struct Sandbox(PathBuf);

impl Sandbox {
    pub fn new(tag: &str) -> Sandbox {
        let dir = std::env::temp_dir().join(format!("orion-cli-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        Sandbox(dir)
    }

    /// `rel` under the sandbox, as the string a command line takes.
    pub fn path(&self, rel: &str) -> String {
        self.0.join(rel).to_str().unwrap().to_string()
    }

    pub fn write(&self, rel: &str, text: &str) -> String {
        fs::write(self.0.join(rel), text).unwrap();
        self.path(rel)
    }

    pub fn read(&self, rel: &str) -> String {
        fs::read_to_string(self.0.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
    }
}

impl Drop for Sandbox {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// What one invocation of the binary did.
#[derive(Debug)]
pub struct Run {
    /// The exit code; `-1` when a signal ended the process.
    pub code: i32,
    pub stdout: String,
    pub stderr: String,
}

/// `orion-power-cli <args>` with `ORION_FAILPOINTS` set to `failpoints`
/// (unset for `None`, whatever the parent environment), not yet run.
pub fn command(args: &[&str], failpoints: Option<&str>) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.args(args).env_remove("ORION_FAILPOINTS");
    if let Some(spec) = failpoints {
        cmd.env("ORION_FAILPOINTS", spec);
    }
    cmd
}

/// Runs [`command`] to its exit and captures everything.
pub fn cli(args: &[&str], failpoints: Option<&str>) -> Run {
    let out = command(args, failpoints)
        .output()
        .expect("spawn orion-power-cli");
    Run {
        code: out.status.code().unwrap_or(-1),
        stdout: String::from_utf8(out.stdout).unwrap(),
        stderr: String::from_utf8(out.stderr).unwrap(),
    }
}

/// `experiment <sub> <spec> --threads <threads> --cache-dir <cache>
/// --out-dir <out> <mode>` with `cache` / `out` relative to `sandbox`;
/// `mode` is `--json` or `--quiet`.
pub fn experiment(
    sandbox: &Sandbox,
    [sub, spec, threads, cache, out, mode]: [&str; 6],
    failpoints: Option<&str>,
) -> Run {
    let (cache, out) = (sandbox.path(cache), sandbox.path(out));
    let args = [
        "experiment",
        sub,
        spec,
        "--threads",
        threads,
        "--cache-dir",
        &cache,
        "--out-dir",
        &out,
        mode,
    ];
    cli(&args, failpoints)
}

/// `cmp a b`.
pub fn assert_same_bytes(a: &str, b: &str) {
    let read = |p: &str| fs::read(Path::new(p)).unwrap_or_else(|e| panic!("{p}: {e}"));
    assert!(read(a) == read(b), "`{a}` and `{b}` differ");
}

/// The integer after `"key": ` in a pretty-printed `--json` summary.
pub fn summary_u64(summary: &str, key: &str) -> u64 {
    let at = summary
        .find(&format!("\"{key}\": "))
        .unwrap_or_else(|| panic!("no `{key}` in {summary}"));
    let digits: String = summary[at + key.len() + 4..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap()
}

/// Every non-empty line is one flat JSON object by the cache's own
/// line reader (`record::parse_flat_object`); returns the line count.
pub fn assert_flat_json_lines(text: &str) -> usize {
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    for line in &lines {
        assert!(
            orion_exp::record::parse_flat_object(line).is_some(),
            "not a flat JSON object: {line}"
        );
    }
    lines.len()
}

/// `text` is exactly one JSON value (RFC 8259), by a reader that shares
/// no code with `orion_obs::json` — what `python3 -c json.loads` pinned.
pub fn assert_json(text: &str) {
    let bytes = text.trim().as_bytes();
    match json_value(bytes, 0) {
        Ok(end) if end == bytes.len() => {}
        Ok(end) | Err(end) => panic!("invalid JSON at byte {end}: {text}"),
    }
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while b.get(i).is_some_and(u8::is_ascii_whitespace) {
        i += 1;
    }
    i
}

/// Parses one value starting at `i`; `Ok(end)` or `Err(offending byte)`.
fn json_value(b: &[u8], i: usize) -> Result<usize, usize> {
    let i = skip_ws(b, i);
    match b.get(i) {
        Some(b'{') | Some(b'[') => {
            let (close, keyed) = if b[i] == b'{' {
                (b'}', true)
            } else {
                (b']', false)
            };
            let mut at = skip_ws(b, i + 1);
            if b.get(at) == Some(&close) {
                return Ok(at + 1);
            }
            loop {
                if keyed {
                    at = json_string(b, skip_ws(b, at))?;
                    at = skip_ws(b, at);
                    if b.get(at) != Some(&b':') {
                        return Err(at);
                    }
                    at += 1;
                }
                at = skip_ws(b, json_value(b, at)?);
                match b.get(at) {
                    Some(b',') => at += 1,
                    Some(c) if *c == close => return Ok(at + 1),
                    _ => return Err(at),
                }
            }
        }
        Some(b'"') => json_string(b, i),
        Some(c) if *c == b'-' || c.is_ascii_digit() => {
            let end = i + b[i..]
                .iter()
                .take_while(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                .count();
            let number = std::str::from_utf8(&b[i..end]).map_err(|_| i)?;
            number.parse::<f64>().map(|_| end).map_err(|_| i)
        }
        _ => ["true", "false", "null"]
            .iter()
            .find(|word| b[i.min(b.len())..].starts_with(word.as_bytes()))
            .map(|word| i + word.len())
            .ok_or(i),
    }
}

fn json_string(b: &[u8], i: usize) -> Result<usize, usize> {
    if b.get(i) != Some(&b'"') {
        return Err(i);
    }
    let mut at = i + 1;
    loop {
        match b.get(at) {
            Some(b'"') => return Ok(at + 1),
            Some(b'\\') => at += 2,
            Some(c) if *c >= 0x20 => at += 1,
            _ => return Err(at),
        }
    }
}
