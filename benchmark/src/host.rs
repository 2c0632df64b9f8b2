//! The context a number needs to be read: host, toolchain, commit,
//! date, and whether the build profile still mirrors the repository's.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// The `benchmark/` directory of the checkout this binary was built in.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where runs leave their span files, results and scratch data.
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str], cwd: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn rustc_version() -> String {
    command_line("rustc", &["-V"], bench_dir())
}

pub fn git_commit() -> String {
    command_line("git", &["rev-parse", "HEAD"], bench_dir())
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days, Gregorian).
pub fn today() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    civil_date((secs / 86_400) as i64)
}

fn civil_date(days_since_epoch: i64) -> String {
    let z = days_since_epoch + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// The `key = value` lines of one TOML table, whitespace-normalised.
fn table_lines(manifest: &str, table: &str) -> Vec<String> {
    let mut inside = false;
    let mut lines = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line == table;
        } else if inside && !line.is_empty() && !line.starts_with('#') {
            lines.push(line.split_whitespace().collect::<Vec<_>>().join(" "));
        }
    }
    lines.sort();
    lines
}

/// Describes how this package's release profile differs from the
/// repository root's, or `None` when they match.
pub fn profile_drift() -> Option<String> {
    let own = std::fs::read_to_string(bench_dir().join("Cargo.toml")).ok()?;
    let root = std::fs::read_to_string(bench_dir().join("../Cargo.toml")).ok()?;
    let (own, root) = (
        table_lines(&own, "[profile.release]"),
        table_lines(&root, "[profile.release]"),
    );
    (own != root).then(|| format!("benchmark {own:?} vs repository {root:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates() {
        assert_eq!(civil_date(0), "1970-01-01");
        assert_eq!(civil_date(19_782), "2024-02-29");
        assert_eq!(civil_date(20_723), "2026-09-27");
    }

    #[test]
    fn profile_tables_compare_by_content() {
        let a = "[package]\nname = \"x\"\n[profile.release]\n# why\nlto   = \"thin\"\ncodegen-units = 1\n[profile.bench]\nlto = \"fat\"\n";
        let b = "[profile.release]\ncodegen-units = 1\nlto = \"thin\"\n";
        assert_eq!(
            table_lines(a, "[profile.release]"),
            table_lines(b, "[profile.release]")
        );
        assert_ne!(
            table_lines(a, "[profile.bench]"),
            table_lines(b, "[profile.release]")
        );
    }

    #[test]
    fn mirrored_profile_has_not_drifted() {
        assert_eq!(profile_drift(), None);
    }
}
