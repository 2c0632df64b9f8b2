//! Every spec shipped under `examples/specs/` parses, as a grid
//! experiment or a design-space search, and names at least one cell
//! whose configuration and workload build. No cell is simulated, so a
//! figure spec still fails here, in milliseconds, the moment the
//! grammar stops accepting it.

use std::path::Path;

use orion_exp::ExperimentSpec;
use orion_explore::ExploreSpec;

#[test]
fn every_shipped_spec_parses_and_expands() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("toml") {
            continue;
        }
        let bytes = std::fs::read(&path).unwrap();
        let file = path.display();
        match (
            ExperimentSpec::parse_bytes(&bytes),
            ExploreSpec::parse_bytes(&bytes),
        ) {
            (Ok(spec), _) => {
                let cells = spec.expand();
                assert!(!cells.is_empty(), "{file}: empty grid");
                for cell in &cells {
                    let config = cell.config();
                    config.validate().unwrap_or_else(|e| panic!("{file}: {e}"));
                    cell.traffic
                        .pattern(&config.topology, cell.rate)
                        .unwrap_or_else(|e| panic!("{file}: {}: {e}", cell.key()));
                }
            }
            (_, Ok(spec)) => {
                let candidates = spec.budget.min(spec.space.size());
                assert!(candidates * spec.traffic.len() > 0, "{file}: no cells");
            }
            (Err(grid), Err(explore)) => {
                panic!("{file} is neither spec kind:\n  grid: {grid}\n  explore: {explore}")
            }
        }
        checked += 1;
    }
    assert!(checked >= 8, "only {checked} specs under {}", dir.display());
}
