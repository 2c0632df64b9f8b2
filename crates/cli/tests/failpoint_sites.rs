//! Every failpoint site the product hits is documented: each
//! `hit("…")` / `hit_with("…", …)` literal in `crates/*/src` outside a
//! test module has a row in docs/ROBUSTNESS.md § Failpoints, and each
//! row names a site that exists. No simulation runs.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

const ROBUSTNESS: &str = include_str!("../../../docs/ROBUSTNESS.md");

/// The `.rs` files under `dir`, recursively.
fn sources(dir: &Path, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(fs::read_to_string(&path).unwrap());
        }
    }
}

/// The site literals hit by non-test code.
fn sites_in_code() -> BTreeSet<String> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut texts = Vec::new();
    for krate in fs::read_dir(&crates).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            sources(&src, &mut texts);
        }
    }
    let mut sites = BTreeSet::new();
    for text in &texts {
        let product = text.split("#[cfg(test)]\nmod tests").next().unwrap();
        for call in ["hit(\"", "hit_with(\""] {
            for (at, _) in product.match_indices(call) {
                let rest = &product[at + call.len()..];
                sites.insert(rest[..rest.find('"').unwrap()].to_string());
            }
        }
    }
    sites
}

/// The first column of the site table.
fn sites_in_docs() -> BTreeSet<String> {
    let section = ROBUSTNESS
        .split("### Failpoints")
        .nth(1)
        .expect("a Failpoints section");
    section
        .split("\n#")
        .next()
        .unwrap()
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .map(|l| l[..l.find('`').unwrap()].to_string())
        .collect()
}

#[test]
fn every_failpoint_site_has_a_row_in_robustness_md() {
    let code = sites_in_code();
    for known in [
        "cache.append",
        "ckpt.write",
        "ckpt.restore",
        "cell.run",
        "serve.handle",
    ] {
        assert!(code.contains(known), "the scan missed `{known}`: {code:?}");
    }
    assert_eq!(code, sites_in_docs(), "code sites vs the docs table");
}
