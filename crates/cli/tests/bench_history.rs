//! `BENCH_e2e.json` is the benchmark's history, appended one row per
//! change by `scripts/bench-history.sh`. A hand edit that breaks the
//! file, a commit recorded twice, or a workload or end-to-end metric
//! that `BENCHMARK.json` names but the newest row lacks fails here.

mod common;

use std::collections::{BTreeMap, BTreeSet};

use common::assert_json;
use orion_exp::record::{parse_flat_object, JsonVal};

const HISTORY: &str = include_str!("../../../BENCH_e2e.json");
const MANIFEST: &str = include_str!("../../../BENCHMARK.json");

/// Every row of the history, oldest first, each one flat object read
/// by the cache's own line reader.
fn rows() -> Vec<BTreeMap<String, JsonVal>> {
    let body = HISTORY
        .trim()
        .strip_prefix('[')
        .and_then(|b| b.strip_suffix(']'));
    let body = body.expect("the history is a JSON array");
    body.split_inclusive('}')
        .map(|row| row.trim().trim_start_matches(',').trim())
        .filter(|row| !row.is_empty())
        .map(|row| parse_flat_object(row).unwrap_or_else(|| panic!("not a flat row: {row}")))
        .collect()
}

/// The `"name"` values of one array of `BENCHMARK.json`.
fn names(section: &str) -> Vec<&'static str> {
    let start = MANIFEST
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("no `{section}` in BENCHMARK.json"));
    let body = &MANIFEST[start..];
    let body = &body[..body.find(']').unwrap()];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| &s[..s.find('"').unwrap()])
        .collect()
}

#[test]
fn the_history_is_a_json_array_of_rows() {
    assert_json(HISTORY);
    let rows = rows();
    assert!(!rows.is_empty(), "the history has no row");
    for row in &rows {
        for key in ["date", "commit", "rustc"] {
            assert!(
                row.get(key).and_then(JsonVal::as_str).is_some(),
                "{key}: {row:?}"
            );
        }
        for key in ["nproc", "seconds"] {
            assert!(
                row.get(key).and_then(JsonVal::as_u64).is_some(),
                "{key}: {row:?}"
            );
        }
    }
}

#[test]
fn no_commit_has_two_rows() {
    let mut seen = BTreeSet::new();
    for row in rows() {
        let commit = row["commit"].as_str().unwrap().to_string();
        assert!(seen.insert(commit.clone()), "{commit} has two rows");
    }
}

#[test]
fn the_newest_row_has_every_workload_and_end_to_end_metric() {
    let rows = rows();
    let newest = rows.last().unwrap();
    let (workloads, metrics) = (names("workloads"), names("end_to_end"));
    assert!(!workloads.is_empty() && !metrics.is_empty());
    for workload in &workloads {
        for metric in &metrics {
            let key = format!("{workload}/{metric}");
            let value = newest.get(&key).and_then(JsonVal::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "no `{key}` in {newest:?}"
            );
        }
    }
}
