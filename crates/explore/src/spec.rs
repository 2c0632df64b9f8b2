//! Exploration specs: the `[explore]` and `[space]` TOML sections that
//! describe a budgeted search over the design space.
//!
//! ```toml
//! [experiment]
//! name = "pareto-sweep"
//!
//! [measure]
//! warmup = 1000
//! sample_packets = 10000
//!
//! [explore]
//! strategy = "grid-refine"       # or "evolutionary"
//! budget = 48                    # max distinct candidates evaluated
//! seed = 1                       # search seed (strategy RNG)
//! rate = 0.05                    # operating injection rate
//! traffic = ["uniform"]
//!
//! [space]
//! families = ["wh", "vc"]        # wh|vc|xb|cb
//! vcs = [2, 4, 8]
//! depths = [4, 8, 16]
//! radix = [4]
//! topology = ["torus"]           # torus|mesh
//! nodes = ["0.1um"]              # 0.8um|0.35um|0.25um|0.18um|0.13um|0.1um|70nm
//! ```
//!
//! Validation reuses the typed [`SpecError`] diagnostics of
//! `orion-exp`; everything is line-numbered and nothing panics on
//! malformed input (including non-UTF-8 bytes).

use orion_exp::design::{DesignPoint, RouterFamily};
use orion_exp::spec::{
    axis, get_u64, missing, read_preamble, scalar, traffic_axis, MeasureSpec, SpecError,
    TrafficKind, INTEGERS, NUMBERS, STRINGS,
};
use orion_exp::toml::{self, Document};
use orion_net::TopologyKind;
use orion_tech::ProcessNode;

/// The search strategies the explorer implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Exhaustive adaptive grid refinement: start from the corners and
    /// midpoints of every axis, then subdivide index intervals around
    /// the current frontier members until the budget is spent or the
    /// neighbourhood is exhausted.
    GridRefine,
    /// Seedable (μ+λ) evolutionary search with a splitmix64-derived
    /// RNG stream per generation.
    Evolutionary,
}

impl Strategy {
    /// Stable spec name of the strategy.
    pub fn as_str(self) -> &'static str {
        match self {
            Strategy::GridRefine => "grid-refine",
            Strategy::Evolutionary => "evolutionary",
        }
    }

    /// Parses a strategy name; `None` for unknown names.
    pub fn parse(name: &str) -> Option<Strategy> {
        match name {
            "grid-refine" => Some(Strategy::GridRefine),
            "evolutionary" => Some(Strategy::Evolutionary),
            _ => None,
        }
    }
}

/// The design space: one sorted, deduplicated value list per dimension.
///
/// Numeric axes are ascending so that "subdivide the index interval"
/// has its geometric meaning; process nodes are ordered oldest (largest
/// feature) first.
#[derive(Debug, Clone, PartialEq)]
pub struct Space {
    /// Router families (declaration order, deduplicated).
    pub families: Vec<RouterFamily>,
    /// Virtual channels per port.
    pub vcs: Vec<u32>,
    /// Flit depth per VC.
    pub depths: Vec<u32>,
    /// Per-dimension radix of the k×k network.
    pub radices: Vec<u32>,
    /// Topology kinds (declaration order, deduplicated).
    pub topologies: Vec<TopologyKind>,
    /// Process nodes.
    pub nodes: Vec<ProcessNode>,
}

/// The number of searchable dimensions of a [`Space`].
pub const DIMS: usize = 6;

impl Space {
    /// Length of dimension `d` (0 = family, 1 = vcs, 2 = depth,
    /// 3 = radix, 4 = topology, 5 = node).
    pub fn axis_len(&self, d: usize) -> usize {
        match d {
            0 => self.families.len(),
            1 => self.vcs.len(),
            2 => self.depths.len(),
            3 => self.radices.len(),
            4 => self.topologies.len(),
            5 => self.nodes.len(),
            _ => 0,
        }
    }

    /// Upper bound on distinct candidates (before canonical-name
    /// collapse of equivalent `wh`/`cb` buffer factorisations).
    pub fn size(&self) -> usize {
        (0..DIMS).map(|d| self.axis_len(d).max(1)).product()
    }
}

/// One candidate: an index into each dimension of the [`Space`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Candidate {
    /// Per-dimension indices (see [`Space::axis_len`] for the order).
    pub ix: [usize; DIMS],
}

impl Candidate {
    /// Lowers the candidate to a concrete design point.
    pub fn design(&self, space: &Space) -> DesignPoint {
        DesignPoint {
            family: space.families[self.ix[0]],
            vcs: space.vcs[self.ix[1]],
            depth: space.depths[self.ix[2]],
            radix: space.radices[self.ix[3]],
            dims: 2,
            mesh: space.topologies[self.ix[4]] == TopologyKind::Mesh,
            node: space.nodes[self.ix[5]],
        }
    }

    /// The candidate's canonical design-point name: its identity for
    /// deduplication, frontier membership and artifacts. Distinct index
    /// vectors can share a name (`wh` at 2 VCs × 8 flits and 4 VCs × 4
    /// flits are both `wh16`), and then count as one evaluation.
    pub fn name(&self, space: &Space) -> String {
        self.design(space).name()
    }
}

/// A validated exploration spec.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreSpec {
    /// Experiment name: the artifact file stem.
    pub name: String,
    /// Free-form description.
    pub description: String,
    /// Measurement discipline applied to every evaluated cell.
    pub measure: MeasureSpec,
    /// Search strategy.
    pub strategy: Strategy,
    /// Maximum number of distinct candidates to evaluate.
    pub budget: usize,
    /// Search seed: drives strategy RNG, not cell workloads.
    pub seed: u64,
    /// Workload seed given to every evaluated cell (the grid `seeds`
    /// axis value), so explore cells dedup against grid cells.
    pub workload_seed: u64,
    /// Operating injection rate in packets/cycle/node.
    pub rate: f64,
    /// Traffic patterns: one Pareto frontier is kept per entry.
    pub traffic: Vec<TrafficKind>,
    /// μ: parents kept per evolutionary generation.
    pub population: usize,
    /// λ: offspring proposed per evolutionary generation.
    pub offspring: usize,
    /// The design space searched.
    pub space: Space,
}

const EXPLORE_KEYS: [&str; 8] = [
    "strategy",
    "budget",
    "seed",
    "workload_seed",
    "rate",
    "traffic",
    "population",
    "offspring",
];
const SPACE_KEYS: [&str; 6] = ["families", "vcs", "depths", "radix", "topology", "nodes"];

fn get_pos_usize(
    doc: &Document,
    section: &str,
    key: &str,
    default: usize,
) -> Result<usize, SpecError> {
    let positive = |v: &_| (INTEGERS.read)(v).filter(|i| *i > 0);
    let found = scalar(doc, section, key, "a positive integer", positive)?;
    Ok(found.map_or(default, |(v, _)| v as usize))
}

/// The diagnostic for a `[space]` value outside its dimension's domain.
fn bad_dimension(
    key: &str,
    value: impl ToString,
    expected: &'static str,
    line: usize,
) -> SpecError {
    SpecError::BadDimension {
        key: key.to_string(),
        value: value.to_string(),
        expected,
        line,
    }
}

/// A sorted, deduplicated positive-integer axis with a range check.
fn sized_axis(
    doc: &Document,
    key: &'static str,
    default: &[u32],
    range: std::ops::RangeInclusive<i64>,
    expected: &'static str,
) -> Result<Vec<u32>, SpecError> {
    let in_range = |v: i64, line| match range.contains(&v) {
        true => Ok(v as u32),
        false => Err(bad_dimension(key, v, expected, line)),
    };
    let mut out = axis(doc, "space", key, INTEGERS, in_range)?.unwrap_or_else(|| default.to_vec());
    out.sort_unstable();
    Ok(out)
}

fn parse_node(name: &str) -> Option<ProcessNode> {
    match name {
        "0.8um" => Some(ProcessNode::Um800),
        "0.35um" => Some(ProcessNode::Um350),
        "0.25um" => Some(ProcessNode::Um250),
        "0.18um" => Some(ProcessNode::Um180),
        "0.13um" => Some(ProcessNode::Um130),
        "0.1um" | "100nm" => Some(ProcessNode::Nm100),
        "70nm" => Some(ProcessNode::Nm70),
        _ => None,
    }
}

impl ExploreSpec {
    /// Parses and validates a spec from TOML text.
    ///
    /// # Errors
    ///
    /// Returns the first [`SpecError`]: syntax errors with line
    /// numbers, schema violations (unknown sections/keys, wrong types)
    /// and semantic rejections (unknown strategies, non-positive
    /// budgets, out-of-domain dimension values, empty axes).
    pub fn parse(text: &str) -> Result<ExploreSpec, SpecError> {
        let doc = toml::parse(text)?;
        Self::from_document(doc)
    }

    /// Parses and validates a spec from raw bytes; invalid UTF-8 is a
    /// line-numbered [`SpecError::Syntax`], never a panic.
    ///
    /// # Errors
    ///
    /// Everything [`ExploreSpec::parse`] returns, plus a syntax error
    /// for non-UTF-8 input.
    pub fn parse_bytes(bytes: &[u8]) -> Result<ExploreSpec, SpecError> {
        let doc = toml::parse_bytes(bytes)?;
        Self::from_document(doc)
    }

    fn from_document(doc: Document) -> Result<ExploreSpec, SpecError> {
        let (name, description, measure) =
            read_preamble(&doc, &[("explore", &EXPLORE_KEYS), ("space", &SPACE_KEYS)])?;

        let strategy = match scalar(&doc, "explore", "strategy", "a string", STRINGS.read)? {
            None => Strategy::GridRefine,
            Some((name, line)) => {
                Strategy::parse(&name).ok_or(SpecError::UnknownStrategy { name, line })?
            }
        };

        let budget = match scalar(&doc, "explore", "budget", "an integer", INTEGERS.read)? {
            None => return Err(missing("explore", "budget")),
            Some((value, _)) if value > 0 => value as usize,
            Some((value, line)) => return Err(SpecError::InvalidBudget { value, line }),
        };

        let seed = get_u64(&doc, "explore", "seed", 1)?;
        let workload_seed = get_u64(&doc, "explore", "workload_seed", 1)?;

        let rate = match scalar(&doc, "explore", "rate", "a number", NUMBERS.read)? {
            None => 0.05,
            Some((rate, _)) if (0.0..=1.0).contains(&rate) => rate,
            Some((rate, line)) => return Err(SpecError::InvalidRate { rate, line }),
        };

        let traffic = traffic_axis(&doc, "explore")?;

        let population = get_pos_usize(&doc, "explore", "population", 4)?;
        let offspring = get_pos_usize(&doc, "explore", "offspring", 8)?;

        let families = axis(&doc, "space", "families", STRINGS, |name, line| {
            RouterFamily::parse(&name)
                .ok_or_else(|| bad_dimension("families", name, "wh|vc|xb|cb", line))
        })?
        .ok_or_else(|| missing("space", "families"))?;

        let vcs = sized_axis(&doc, "vcs", &[2, 4, 8], 1..=1024, "an integer in [1, 1024]")?;
        let depths = sized_axis(
            &doc,
            "depths",
            &[4, 8, 16],
            1..=65_536,
            "an integer in [1, 65536]",
        )?;
        let radices = sized_axis(&doc, "radix", &[4], 2..=64, "an integer in [2, 64]")?;

        let topologies = axis(&doc, "space", "topology", STRINGS, |name, line| {
            Ok(match name.as_str() {
                "torus" => TopologyKind::Torus,
                "mesh" => TopologyKind::Mesh,
                _ => return Err(bad_dimension("topology", name, "torus|mesh", line)),
            })
        })?
        .unwrap_or_else(|| vec![TopologyKind::Torus]);

        let mut nodes = axis(&doc, "space", "nodes", STRINGS, |name, line| {
            parse_node(&name).ok_or_else(|| {
                let expected = "0.8um|0.35um|0.25um|0.18um|0.13um|0.1um|70nm";
                bad_dimension("nodes", name, expected, line)
            })
        })?
        .unwrap_or_else(|| vec![ProcessNode::Nm100]);
        // Oldest technology first: ascending index = shrinking
        // feature size, so index midpoints interpolate nodes.
        nodes.sort_by(|a, b| b.feature_size().0.total_cmp(&a.feature_size().0));

        Ok(ExploreSpec {
            name,
            description,
            measure,
            strategy,
            budget,
            seed,
            workload_seed,
            rate,
            traffic,
            population,
            offspring,
            space: Space {
                families,
                vcs,
                depths,
                radices,
                topologies,
                nodes,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
[experiment]
name = "t"

[explore]
budget = 8

[space]
families = ["vc"]
"#;

    #[test]
    fn minimal_spec_defaults() {
        let spec = ExploreSpec::parse(MINIMAL).unwrap();
        assert_eq!(spec.strategy, Strategy::GridRefine);
        assert_eq!(spec.budget, 8);
        assert_eq!(spec.seed, 1);
        assert_eq!(spec.workload_seed, 1);
        assert_eq!(spec.rate, 0.05);
        assert_eq!(spec.traffic, vec![TrafficKind::Uniform]);
        assert_eq!(spec.space.vcs, vec![2, 4, 8]);
        assert_eq!(spec.space.depths, vec![4, 8, 16]);
        assert_eq!(spec.space.radices, vec![4]);
        assert_eq!(spec.space.topologies, vec![TopologyKind::Torus]);
        assert_eq!(spec.space.nodes, vec![ProcessNode::Nm100]);
        assert_eq!(spec.space.size(), 9);
    }

    #[test]
    fn axes_sort_and_dedup() {
        let spec = ExploreSpec::parse(
            r#"
[experiment]
name = "t"
[explore]
budget = 4
[space]
families = ["vc", "wh", "vc"]
vcs = [8, 2, 8, 4]
nodes = ["70nm", "0.8um", "0.1um"]
"#,
        )
        .unwrap();
        assert_eq!(
            spec.space.families,
            vec![RouterFamily::VirtualChannel, RouterFamily::Wormhole]
        );
        assert_eq!(spec.space.vcs, vec![2, 4, 8]);
        assert_eq!(
            spec.space.nodes,
            vec![ProcessNode::Um800, ProcessNode::Nm100, ProcessNode::Nm70]
        );
    }

    #[test]
    fn candidate_lowers_to_design_point() {
        let spec = ExploreSpec::parse(MINIMAL).unwrap();
        let c = Candidate {
            ix: [0, 2, 1, 0, 0, 0],
        };
        assert_eq!(
            c.name(&spec.space),
            "vc64",
            "8 VCs x 8 flits is the paper's VC64"
        );
    }

    #[test]
    fn typed_diagnostics() {
        let no_budget = "[experiment]\nname = \"x\"\n[space]\nfamilies = [\"vc\"]\n";
        assert!(matches!(
            ExploreSpec::parse(no_budget),
            Err(SpecError::MissingKey { ref key, .. }) if key == "budget"
        ));

        let zero =
            "[experiment]\nname = \"x\"\n[explore]\nbudget = 0\n[space]\nfamilies = [\"vc\"]\n";
        assert!(matches!(
            ExploreSpec::parse(zero),
            Err(SpecError::InvalidBudget { value: 0, line: 4 })
        ));

        let neg =
            "[experiment]\nname = \"x\"\n[explore]\nbudget = -3\n[space]\nfamilies = [\"vc\"]\n";
        assert!(matches!(
            ExploreSpec::parse(neg),
            Err(SpecError::InvalidBudget { value: -3, .. })
        ));

        let strat = "[experiment]\nname = \"x\"\n[explore]\nbudget = 1\nstrategy = \"annealing\"\n[space]\nfamilies = [\"vc\"]\n";
        assert!(matches!(
            ExploreSpec::parse(strat),
            Err(SpecError::UnknownStrategy { ref name, line: 5 }) if name == "annealing"
        ));

        let fam = "[experiment]\nname = \"x\"\n[explore]\nbudget = 1\n[space]\nfamilies = [\"optical\"]\n";
        assert!(matches!(
            ExploreSpec::parse(fam),
            Err(SpecError::BadDimension { ref key, ref value, .. })
                if key == "families" && value == "optical"
        ));

        let empty = "[experiment]\nname = \"x\"\n[explore]\nbudget = 1\n[space]\nfamilies = [\"vc\"]\nvcs = []\n";
        assert!(matches!(
            ExploreSpec::parse(empty),
            Err(SpecError::EmptyAxis { key: "vcs" })
        ));

        let radix = "[experiment]\nname = \"x\"\n[explore]\nbudget = 1\n[space]\nfamilies = [\"vc\"]\nradix = [1]\n";
        assert!(matches!(
            ExploreSpec::parse(radix),
            Err(SpecError::BadDimension { ref key, .. }) if key == "radix"
        ));

        let node = "[experiment]\nname = \"x\"\n[explore]\nbudget = 1\n[space]\nfamilies = [\"vc\"]\nnodes = [\"45nm\"]\n";
        assert!(matches!(
            ExploreSpec::parse(node),
            Err(SpecError::BadDimension { ref key, ref value, .. })
                if key == "nodes" && value == "45nm"
        ));

        let section = "[experiment]\nname = \"x\"\n[explode]\nbudget = 1\n";
        assert!(matches!(
            ExploreSpec::parse(section),
            Err(SpecError::UnknownSection { ref section, .. }) if section == "explode"
        ));

        let key = "[experiment]\nname = \"x\"\n[explore]\nbudget = 1\nbuget = 2\n[space]\nfamilies = [\"vc\"]\n";
        assert!(matches!(
            ExploreSpec::parse(key),
            Err(SpecError::UnknownKey { ref key, .. }) if key == "buget"
        ));
    }

    #[test]
    fn errors_render() {
        let e = ExploreSpec::parse(
            "[experiment]\nname = \"x\"\n[explore]\nbudget = 0\n[space]\nfamilies = [\"vc\"]\n",
        )
        .unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("line 4") && msg.contains("budget"), "{msg}");
        let e = ExploreSpec::parse(
            "[experiment]\nname = \"x\"\n[explore]\nbudget = 1\nstrategy = \"zen\"\n[space]\nfamilies = [\"vc\"]\n",
        )
        .unwrap_err();
        assert!(e.to_string().contains("grid-refine|evolutionary"));
    }
}
