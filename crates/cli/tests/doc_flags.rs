//! The docs name no flag the CLI lacks: every `--flag` token in
//! README.md, DESIGN.md, EXPERIMENTS.md and `docs/*.md` is printed by
//! `orion-power-cli help` or is one of the few cargo, benchmark and
//! curl flags the docs quote. A removed option therefore cannot
//! survive in a how-to.

mod common;

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use common::cli;

/// Flags of other tools that the docs quote: cargo (`--release`,
/// `--workspace`, `--test`, `--ignored`, `--example`), the benchmark
/// (`--seconds`, `--workload`, `--trace`) and curl (`--data-binary`).
const OTHER_TOOLS: [&str; 9] = [
    "release",
    "workspace",
    "test",
    "ignored",
    "example",
    "seconds",
    "workload",
    "trace",
    "data-binary",
];

fn repo(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// The `--flag` names in `text`. A `--` glued to a word or a `#`, as in
/// the anchor `#supervision--auditing`, or followed by no letter, as in
/// a table rule or `<!--`, is no flag.
fn flags(text: &str) -> BTreeSet<String> {
    let is_word = |c: char| c.is_ascii_alphanumeric() || "_-#".contains(c);
    let mut found = BTreeSet::new();
    for (at, _) in text.match_indices("--") {
        if text[..at].chars().next_back().is_some_and(is_word) {
            continue;
        }
        let rest = &text[at + 2..];
        if !rest.starts_with(|c: char| c.is_ascii_lowercase()) {
            continue;
        }
        let end = rest
            .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'))
            .unwrap_or(rest.len());
        found.insert(rest[..end].to_string());
    }
    found
}

#[test]
fn flag_scanner_skips_anchors_rules_and_comments() {
    let text = "see [x](ROBUSTNESS.md#supervision--auditing); |---|---|\n\
                <!-- results:fig5 --> run `serve --addr H:P --drain-timeout-ms N`";
    let expected: BTreeSet<String> = ["addr", "drain-timeout-ms"].map(String::from).into();
    assert_eq!(flags(text), expected);
}

#[test]
fn every_documented_flag_exists() {
    let help = cli(&["help"], None);
    assert_eq!(help.code, 0, "{help:?}");
    let known = flags(&help.stdout);
    assert!(known.contains("cache-dir"), "help lists no flags: {help:?}");

    let mut docs: Vec<String> = fs::read_dir(repo("docs"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".md"))
        .map(|name| format!("docs/{name}"))
        .collect();
    docs.sort();
    docs.extend(["README.md", "DESIGN.md", "EXPERIMENTS.md"].map(String::from));
    let mut stale = vec![];
    for doc in &docs {
        let text = fs::read_to_string(repo(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for flag in flags(&text) {
            if !known.contains(&flag) && !OTHER_TOOLS.contains(&flag.as_str()) {
                stale.push(format!("{doc}: --{flag}"));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "flags the CLI does not take:\n{}",
        stale.join("\n")
    );
}
