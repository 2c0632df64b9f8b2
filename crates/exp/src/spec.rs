//! Declarative experiment specs: a TOML file describing a cartesian
//! grid of configurations × traffic patterns × injection rates × seeds,
//! validated into typed diagnostics and expanded into [`Cell`]s.
//!
//! ```toml
//! [experiment]
//! name = "fig5"
//!
//! [measure]
//! warmup = 1000
//! sample_packets = 10000
//! max_cycles = 300000
//!
//! [grid]
//! presets = ["wh64", "vc16", "vc64", "vc128"]
//! rates = [0.02, 0.04, 0.06, 0.08, 0.10]
//! seeds = [1]
//! ```
//!
//! Optional override axes (`traffic`, `flow_control`, `vc_discipline`,
//! `packet_len`) multiply into the grid; when absent, each cell keeps
//! the preset's defaults. Every cell is identified by a stable,
//! sortable *cell key* from which its cache fingerprint and RNG seed
//! are derived (see [`crate::fingerprint`]).

use std::fmt;

use orion_core::NetworkConfig;
use orion_net::traffic::TrafficError;
use orion_net::{Topology, TrafficPattern};
use orion_sim::{FlowControl, VcDiscipline};

use crate::fingerprint::{fnv1a64, splitmix64, MODEL_VERSION};
use crate::toml::{self, Document, Value};

/// A spec the engine refuses to run, as a typed diagnostic.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SpecError {
    /// TOML syntax error (line-numbered).
    Syntax(toml::ParseError),
    /// A required key is absent.
    MissingKey {
        /// Section the key belongs in.
        section: String,
        /// The missing key.
        key: String,
    },
    /// A key holds a value of the wrong type.
    WrongType {
        /// Section of the key.
        section: String,
        /// The key.
        key: String,
        /// What the spec schema expects there.
        expected: &'static str,
        /// What the file actually contains.
        found: &'static str,
        /// 1-based line of the value.
        line: usize,
    },
    /// A key the spec schema does not know (typo guard).
    UnknownKey {
        /// Section of the key.
        section: String,
        /// The unknown key.
        key: String,
        /// 1-based line of the key.
        line: usize,
    },
    /// A section the spec schema does not know.
    UnknownSection {
        /// The unknown section name.
        section: String,
        /// 1-based line of the header.
        line: usize,
    },
    /// A preset name outside the paper's six configurations.
    UnknownPreset {
        /// The rejected name.
        name: String,
        /// 1-based line of the axis.
        line: usize,
    },
    /// A traffic pattern name the grid does not support.
    UnknownTraffic {
        /// The rejected name.
        name: String,
        /// 1-based line of the axis.
        line: usize,
    },
    /// A flow-control name outside `flit-level|cut-through|bubble`.
    UnknownFlowControl {
        /// The rejected name.
        name: String,
        /// 1-based line of the axis.
        line: usize,
    },
    /// A VC-discipline name outside `unrestricted|dateline|escape`.
    UnknownVcDiscipline {
        /// The rejected name.
        name: String,
        /// 1-based line of the axis.
        line: usize,
    },
    /// An injection rate outside `[0, 1]` packets/cycle/node.
    InvalidRate {
        /// The rejected rate.
        rate: f64,
        /// 1-based line of the axis.
        line: usize,
    },
    /// A grid axis that would make the grid empty.
    EmptyAxis {
        /// The empty axis key.
        key: &'static str,
    },
    /// An experiment name unusable as an artifact file stem.
    BadName {
        /// The rejected name.
        name: String,
    },
    /// A search-strategy name the explorer does not implement.
    UnknownStrategy {
        /// The rejected name.
        name: String,
        /// 1-based line of the key.
        line: usize,
    },
    /// An evaluation budget that is zero, negative or not an integer.
    InvalidBudget {
        /// The rejected value.
        value: i64,
        /// 1-based line of the key.
        line: usize,
    },
    /// A design-space dimension holds a value outside its domain
    /// (unknown family/topology/node name, out-of-range size).
    BadDimension {
        /// The `[space]` key.
        key: String,
        /// The rejected value, rendered.
        value: String,
        /// What the dimension accepts.
        expected: &'static str,
        /// 1-based line of the axis.
        line: usize,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Syntax(e) => write!(f, "spec syntax: {e}"),
            SpecError::MissingKey { section, key } => {
                write!(f, "spec: missing required key `{key}` in [{section}]")
            }
            SpecError::WrongType {
                section,
                key,
                expected,
                found,
                line,
            } => write!(
                f,
                "spec line {line}: `{key}` in [{section}] must be {expected}, found {found}"
            ),
            SpecError::UnknownKey { section, key, line } => {
                write!(f, "spec line {line}: unknown key `{key}` in [{section}]")
            }
            SpecError::UnknownSection { section, line } => {
                write!(f, "spec line {line}: unknown section `[{section}]`")
            }
            SpecError::UnknownPreset { name, line } => write!(
                f,
                "spec line {line}: unknown preset `{name}` (expected \
                 wh64|vc16|vc64|vc128|xb|cb or a parametric design point \
                 like vc4x16-t8 — see docs/EXPLORATION.md)"
            ),
            SpecError::UnknownTraffic { name, line } => write!(
                f,
                "spec line {line}: unknown traffic `{name}` (expected uniform|transpose|\
                 bit-complement|tornado|shuffle|bit-reversal|broadcast@X:Y[:Z])"
            ),
            SpecError::UnknownFlowControl { name, line } => write!(
                f,
                "spec line {line}: unknown flow control `{name}` \
                 (expected flit-level|cut-through|bubble)"
            ),
            SpecError::UnknownVcDiscipline { name, line } => write!(
                f,
                "spec line {line}: unknown VC discipline `{name}` \
                 (expected unrestricted|dateline|escape)"
            ),
            SpecError::InvalidRate { rate, line } => write!(
                f,
                "spec line {line}: injection rate {rate} outside [0, 1] packets/cycle/node"
            ),
            SpecError::EmptyAxis { key } => {
                write!(f, "spec: grid axis `{key}` must not be empty")
            }
            SpecError::BadName { name } => write!(
                f,
                "spec: experiment name `{name}` must be a non-empty \
                 [A-Za-z0-9_-] token (it names the artifact files)"
            ),
            SpecError::UnknownStrategy { name, line } => write!(
                f,
                "spec line {line}: unknown strategy `{name}` \
                 (expected grid-refine|evolutionary)"
            ),
            SpecError::InvalidBudget { value, line } => write!(
                f,
                "spec line {line}: budget {value} must be a positive \
                 integer (max candidate evaluations)"
            ),
            SpecError::BadDimension {
                key,
                value,
                expected,
                line,
            } => write!(
                f,
                "spec line {line}: `{key}` value `{value}` invalid (expected {expected})"
            ),
        }
    }
}

impl std::error::Error for SpecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpecError::Syntax(e) => Some(e),
            _ => None,
        }
    }
}

impl From<toml::ParseError> for SpecError {
    fn from(e: toml::ParseError) -> SpecError {
        SpecError::Syntax(e)
    }
}

/// Measurement discipline shared by every cell of an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasureSpec {
    /// Warm-up cycles (paper §4.1: 1000).
    pub warmup: u64,
    /// Tagged sample size in packets (paper: 10 000).
    pub sample_packets: u64,
    /// Cycle budget per cell.
    pub max_cycles: u64,
    /// Watchdog / backlog-divergence window (0 disables).
    pub watchdog_cycles: u64,
    /// Invariant-audit period in cycles (0 disables). Auditing is
    /// read-only: it never changes a healthy cell's numbers, only how
    /// a corrupted run is classified.
    pub audit_every: u64,
}

impl Default for MeasureSpec {
    fn default() -> MeasureSpec {
        MeasureSpec {
            warmup: 1000,
            sample_packets: 10_000,
            max_cycles: 300_000,
            watchdog_cycles: 1000,
            audit_every: 0,
        }
    }
}

/// A synthetic traffic pattern a grid cell can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TrafficKind {
    /// Uniform random destinations (the figures' workload).
    Uniform,
    /// Matrix transpose permutation.
    Transpose,
    /// Bit-complement permutation.
    BitComplement,
    /// Tornado (half-ring offset).
    Tornado,
    /// Perfect shuffle permutation.
    Shuffle,
    /// Bit-reversal permutation.
    BitReversal,
    /// Broadcast from one source node (§4.3, Fig. 7d/e), named by its
    /// coordinates: `broadcast@1:2`, or `broadcast@1:2:3` in 3-D. The
    /// separator is `:` because records are unquoted CSV rows.
    Broadcast {
        /// Source coordinates; entries past `dims` are zero.
        coords: [u32; 3],
        /// How many of `coords` are given (1..=3).
        dims: u8,
    },
}

/// Prefix of the broadcast spelling.
const BROADCAST: &str = "broadcast@";

impl fmt::Display for TrafficKind {
    /// The stable name used in cell keys, records and spec files.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            TrafficKind::Uniform => "uniform",
            TrafficKind::Transpose => "transpose",
            TrafficKind::BitComplement => "bit-complement",
            TrafficKind::Tornado => "tornado",
            TrafficKind::Shuffle => "shuffle",
            TrafficKind::BitReversal => "bit-reversal",
            TrafficKind::Broadcast { coords, dims } => {
                let coords: Vec<String> = coords[..usize::from(*dims)]
                    .iter()
                    .map(u32::to_string)
                    .collect();
                return write!(f, "{BROADCAST}{}", coords.join(":"));
            }
        };
        f.write_str(name)
    }
}

impl TrafficKind {
    /// Parses a traffic-pattern name; `None` for unknown names and
    /// malformed broadcast sources.
    pub fn parse(name: &str) -> Option<TrafficKind> {
        match name {
            "uniform" => Some(TrafficKind::Uniform),
            "transpose" => Some(TrafficKind::Transpose),
            "bit-complement" => Some(TrafficKind::BitComplement),
            "tornado" => Some(TrafficKind::Tornado),
            "shuffle" => Some(TrafficKind::Shuffle),
            "bit-reversal" => Some(TrafficKind::BitReversal),
            _ => {
                let mut coords = [0; 3];
                let mut dims = 0;
                for part in name.strip_prefix(BROADCAST)?.split(':') {
                    if dims == coords.len() || !part.bytes().all(|b| b.is_ascii_digit()) {
                        return None;
                    }
                    coords[dims] = part.parse().ok()?;
                    dims += 1;
                }
                Some(TrafficKind::Broadcast {
                    coords,
                    dims: dims as u8,
                })
            }
        }
    }

    /// Builds the pattern over `topology` at `rate`. A broadcast source
    /// must have one coordinate per dimension, each below its radix.
    pub fn pattern(self, topology: &Topology, rate: f64) -> Result<TrafficPattern, TrafficError> {
        match self {
            TrafficKind::Uniform => TrafficPattern::uniform(topology, rate),
            TrafficKind::Transpose => TrafficPattern::transpose(topology, rate),
            TrafficKind::BitComplement => TrafficPattern::bit_complement(topology, rate),
            TrafficKind::Tornado => TrafficPattern::tornado(topology, rate),
            TrafficKind::Shuffle => TrafficPattern::shuffle(topology, rate),
            TrafficKind::BitReversal => TrafficPattern::bit_reversal(topology, rate),
            TrafficKind::Broadcast { coords, dims } => {
                let coords = &coords[..usize::from(dims)];
                if coords.len() != topology.dims() {
                    return Err(TrafficError::WrongDimensions {
                        given: coords.len(),
                        dims: topology.dims(),
                    });
                }
                for (dim, &coord) in coords.iter().enumerate() {
                    let radix = topology.radix(dim);
                    if coord >= radix {
                        return Err(TrafficError::CoordinateOutOfRange { dim, coord, radix });
                    }
                }
                TrafficPattern::broadcast(topology, topology.node_at(coords), rate)
            }
        }
    }
}

/// Stable spec/record name of a [`FlowControl`].
pub fn flow_control_name(fc: FlowControl) -> &'static str {
    match fc {
        FlowControl::FlitLevel => "flit-level",
        FlowControl::CutThrough => "cut-through",
        FlowControl::Bubble => "bubble",
    }
}

/// Stable spec/record name of a [`VcDiscipline`].
pub fn vc_discipline_name(vd: VcDiscipline) -> &'static str {
    match vd {
        VcDiscipline::Unrestricted => "unrestricted",
        VcDiscipline::Dateline => "dateline",
        VcDiscipline::Escape => "escape",
    }
}

/// The paper's named preset configurations the grid can reference.
pub const PRESET_NAMES: [&str; 6] = ["wh64", "vc16", "vc64", "vc128", "xb", "cb"];

/// Looks up a configuration by its spec name: one of the paper's six
/// presets, or any parametric design-point name from the
/// [`crate::design`] grammar (`wh32`, `vc4x16-t8`, `cb128-n70`, …).
pub fn preset_config(name: &str) -> Option<NetworkConfig> {
    crate::design::DesignPoint::parse(name).map(|p| p.config())
}

/// A validated experiment specification.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Experiment name: the artifact file stem.
    pub name: String,
    /// Free-form description.
    pub description: String,
    /// Measurement discipline applied to every cell.
    pub measure: MeasureSpec,
    /// Preset axis (paper configuration names).
    pub presets: Vec<String>,
    /// Traffic axis.
    pub traffic: Vec<TrafficKind>,
    /// Injection-rate axis (packets/cycle/node).
    pub rates: Vec<f64>,
    /// Workload seed axis.
    pub seeds: Vec<u64>,
    /// Flow-control override axis; `None` keeps preset defaults.
    pub flow_control: Option<Vec<FlowControl>>,
    /// VC-discipline override axis; `None` keeps preset defaults.
    pub vc_discipline: Option<Vec<VcDiscipline>>,
    /// Packet-length override axis; `None` keeps preset defaults.
    pub packet_len: Option<Vec<u32>>,
}

/// One point of the expanded grid: everything needed to simulate it,
/// plus its identity (key, fingerprint, derived seed).
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Preset name.
    pub preset: String,
    /// Traffic pattern.
    pub traffic: TrafficKind,
    /// Injection rate in packets/cycle/node.
    pub rate: f64,
    /// Spec-level seed (the seed axis value).
    pub seed: u64,
    /// Resolved flow control (after overrides).
    pub flow_control: FlowControl,
    /// Resolved VC discipline (after overrides).
    pub vc_discipline: VcDiscipline,
    /// Resolved packet length in flits (after overrides).
    pub packet_len: u32,
    /// Measurement discipline.
    pub measure: MeasureSpec,
}

impl Cell {
    /// The stable, sortable identity of this parameter point. Rates are
    /// fixed-width so lexicographic order is numeric order per axis.
    pub fn key(&self) -> String {
        format!(
            "{}/{}/r{:.6}/s{:010}/fc-{}/vd-{}/pl{:03}",
            self.preset,
            self.traffic,
            self.rate,
            self.seed,
            flow_control_name(self.flow_control),
            vc_discipline_name(self.vc_discipline),
            self.packet_len,
        )
    }

    /// Content-address of this cell's *result*: a stable hash over the
    /// code-model version, the parameter point and the measurement
    /// discipline. Any change to either yields a different fingerprint
    /// and therefore a cache miss.
    pub fn fingerprint(&self) -> u64 {
        fnv1a64(
            format!(
                "{MODEL_VERSION}|{}|w{}|sp{}|mc{}|wd{}|ae{}",
                self.key(),
                self.measure.warmup,
                self.measure.sample_packets,
                self.measure.max_cycles,
                self.measure.watchdog_cycles,
                self.measure.audit_every,
            )
            .as_bytes(),
        )
    }

    /// The cell's RNG seed, derived from a stable hash of the parameter
    /// point — *not* from queue position or thread id — so an N-thread
    /// run is bit-identical to a 1-thread run.
    pub fn derived_seed(&self) -> u64 {
        splitmix64(fnv1a64(format!("seed|{}", self.key()).as_bytes()))
    }

    /// The resolved network configuration (preset plus overrides).
    pub fn config(&self) -> NetworkConfig {
        let cfg = preset_config(&self.preset).expect("validated preset");
        cfg.flow_control(self.flow_control)
            .vc_discipline(self.vc_discipline)
            .packet_len(self.packet_len)
    }
}

/// Keys of the two sections every spec kind shares; each kind adds its
/// own sections through [`read_preamble`]'s table. Anything else is an
/// [`SpecError::UnknownSection`] / [`SpecError::UnknownKey`].
const EXPERIMENT_KEYS: [&str; 2] = ["name", "description"];
const MEASURE_KEYS: [&str; 5] = [
    "warmup",
    "sample_packets",
    "max_cycles",
    "watchdog_cycles",
    "audit_every",
];
const GRID_KEYS: [&str; 7] = [
    "presets",
    "traffic",
    "rates",
    "seeds",
    "flow_control",
    "vc_discipline",
    "packet_len",
];

/// The diagnostic for a value of the wrong TOML type.
pub fn wrong_type(
    section: &str,
    key: &str,
    expected: &'static str,
    value: &Value,
    line: usize,
) -> SpecError {
    SpecError::WrongType {
        section: section.to_string(),
        key: key.to_string(),
        expected,
        found: value.kind(),
        line,
    }
}

/// The diagnostic for an absent required key.
pub fn missing(section: &str, key: &str) -> SpecError {
    SpecError::MissingKey {
        section: section.into(),
        key: key.into(),
    }
}

/// How a TOML value is read as an `R`: what a type diagnostic calls an
/// array of them, and the extractor (`None` for any other type).
pub struct Items<R> {
    expected: &'static str,
    /// Reads one value.
    pub read: fn(&Value) -> Option<R>,
}

/// Strings.
pub const STRINGS: Items<String> = Items {
    expected: "an array of strings",
    read: |v| match v {
        Value::Str(s) => Some(s.clone()),
        _ => None,
    },
};
/// Numbers (integers widen to `f64`).
pub const NUMBERS: Items<f64> = Items {
    expected: "an array of numbers",
    read: |v| match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    },
};
/// Integers.
pub const INTEGERS: Items<i64> = Items {
    expected: "an array of integers",
    read: |v| match v {
        Value::Int(i) => Some(*i),
        _ => None,
    },
};

/// Reads the scalar `key` of `section` through `read`, with its line:
/// `None` when absent, [`SpecError::WrongType`] (naming `expected`)
/// when `read` declines the value.
pub fn scalar<T>(
    doc: &Document,
    section: &str,
    key: &str,
    expected: &'static str,
    read: impl Fn(&Value) -> Option<T>,
) -> Result<Option<(T, usize)>, SpecError> {
    let Some(e) = doc.get(section, key) else {
        return Ok(None);
    };
    match read(&e.value) {
        Some(v) => Ok(Some((v, e.line))),
        None => Err(wrong_type(section, key, expected, &e.value, e.line)),
    }
}

/// A non-negative integer key, `default` when absent.
pub fn get_u64(doc: &Document, section: &str, key: &str, default: u64) -> Result<u64, SpecError> {
    let natural = |v: &Value| (INTEGERS.read)(v).and_then(|i| u64::try_from(i).ok());
    let found = scalar(doc, section, key, "a non-negative integer", natural)?;
    Ok(found.map_or(default, |(v, _)| v))
}

/// Reads one axis: the array `key` of `section`, type-checked as a
/// whole, rejected when empty, then each item mapped through `parse`
/// (which gets the entry's line for its diagnostic). Repeated values
/// collapse onto their first occurrence — compared *after* parsing, so
/// aliases that canonicalise to one value are one grid point. `None`
/// when the key is absent; [`SpecError::WrongType`],
/// [`SpecError::EmptyAxis`] or `parse`'s own rejection otherwise.
pub fn axis<R, T: PartialEq>(
    doc: &Document,
    section: &str,
    key: &'static str,
    items: Items<R>,
    parse: impl Fn(R, usize) -> Result<T, SpecError>,
) -> Result<Option<Vec<T>>, SpecError> {
    let Some(e) = doc.get(section, key) else {
        return Ok(None);
    };
    let mistyped = |v: &Value| wrong_type(section, key, items.expected, v, e.line);
    let Value::Array(values) = &e.value else {
        return Err(mistyped(&e.value));
    };
    let raw = values
        .iter()
        .map(|v| (items.read)(v).ok_or_else(|| mistyped(v)))
        .collect::<Result<Vec<R>, _>>()?;
    if raw.is_empty() {
        return Err(SpecError::EmptyAxis { key });
    }
    let mut out = Vec::with_capacity(raw.len());
    for item in raw {
        let value = parse(item, e.line)?;
        if !out.contains(&value) {
            out.push(value);
        }
    }
    Ok(Some(out))
}

/// The `traffic` axis of `section` (default: uniform only); unknown
/// names are [`SpecError::UnknownTraffic`].
pub fn traffic_axis(doc: &Document, section: &str) -> Result<Vec<TrafficKind>, SpecError> {
    let parse = |name: String, line| {
        TrafficKind::parse(&name).ok_or(SpecError::UnknownTraffic { name, line })
    };
    Ok(
        axis(doc, section, "traffic", STRINGS, parse)?
            .unwrap_or_else(|| vec![TrafficKind::Uniform]),
    )
}

impl MeasureSpec {
    /// Reads the `[measure]` section, absent keys keeping their
    /// [`Default`]; every key must be a non-negative integer.
    pub fn from_document(doc: &Document) -> Result<MeasureSpec, SpecError> {
        let defaults = MeasureSpec::default();
        Ok(MeasureSpec {
            warmup: get_u64(doc, "measure", "warmup", defaults.warmup)?,
            sample_packets: get_u64(doc, "measure", "sample_packets", defaults.sample_packets)?,
            max_cycles: get_u64(doc, "measure", "max_cycles", defaults.max_cycles)?,
            watchdog_cycles: get_u64(doc, "measure", "watchdog_cycles", defaults.watchdog_cycles)?,
            audit_every: get_u64(doc, "measure", "audit_every", defaults.audit_every)?,
        })
    }
}

/// What every spec kind starts with: the schema guard (every section
/// and key must be known — `sections` lists the kind's own, beside the
/// shared `[experiment]` and `[measure]`), then the experiment name
/// and description, then the measurement discipline.
pub fn read_preamble(
    doc: &Document,
    sections: &[(&str, &[&str])],
) -> Result<(String, String, MeasureSpec), SpecError> {
    let shared: [(&str, &[&str]); 3] = [
        ("", &[]),
        ("experiment", &EXPERIMENT_KEYS),
        ("measure", &MEASURE_KEYS),
    ];
    for (section, entries) in &doc.sections {
        let Some((_, allowed)) = shared.iter().chain(sections).find(|(s, _)| s == section) else {
            return Err(SpecError::UnknownSection {
                section: section.clone(),
                line: doc.section_line(section),
            });
        };
        if let Some((key, entry)) = entries.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
            return Err(SpecError::UnknownKey {
                section: section.clone(),
                key: key.clone(),
                line: entry.line,
            });
        }
    }

    let (name, _) = scalar(doc, "experiment", "name", "a string", STRINGS.read)?
        .ok_or_else(|| missing("experiment", "name"))?;
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Err(SpecError::BadName { name });
    }
    let description = scalar(doc, "experiment", "description", "a string", STRINGS.read)?
        .map(|(s, _)| s)
        .unwrap_or_default();
    Ok((name, description, MeasureSpec::from_document(doc)?))
}

impl ExperimentSpec {
    /// Parses and validates a spec from TOML text.
    ///
    /// # Errors
    ///
    /// Returns the first [`SpecError`]: syntax errors with line
    /// numbers, schema violations (unknown sections/keys, wrong
    /// types), and semantic rejections (unknown presets, rates outside
    /// `[0, 1]`, empty axes).
    pub fn parse(text: &str) -> Result<ExperimentSpec, SpecError> {
        let doc = toml::parse(text)?;
        Self::from_document(doc)
    }

    /// Parses and validates a spec from raw bytes, as read from disk.
    ///
    /// Unlike `parse(std::str::from_utf8(..)?)`, invalid UTF-8 is
    /// reported as a line-numbered [`SpecError::Syntax`] pointing at
    /// the first bad byte, so spec diagnostics stay uniform even for
    /// files that are not text at all.
    ///
    /// # Errors
    ///
    /// Everything [`ExperimentSpec::parse`] returns, plus a syntax
    /// error for non-UTF-8 input.
    pub fn parse_bytes(bytes: &[u8]) -> Result<ExperimentSpec, SpecError> {
        let doc = toml::parse_bytes(bytes)?;
        Self::from_document(doc)
    }

    fn from_document(doc: Document) -> Result<ExperimentSpec, SpecError> {
        let (name, description, measure) = read_preamble(&doc, &[("grid", &GRID_KEYS)])?;

        // Canonicalise every name through the design codec so aliases
        // (`vc8x8`) address the same cells — and cache entries — as the
        // canonical form (`vc64`).
        let presets = axis(&doc, "grid", "presets", STRINGS, |name, line| {
            crate::design::canonical_design_name(&name)
                .ok_or(SpecError::UnknownPreset { name, line })
        })?
        .ok_or_else(|| missing("grid", "presets"))?;

        // Rates are the same grid point only when their bits are:
        // `0.0` and `-0.0` render different cell keys.
        let rates = axis(&doc, "grid", "rates", NUMBERS, |rate, line| {
            match (0.0..=1.0).contains(&rate) {
                true => Ok(rate.to_bits()),
                false => Err(SpecError::InvalidRate { rate, line }),
            }
        })?
        .ok_or_else(|| missing("grid", "rates"))?;
        let rates = rates.into_iter().map(f64::from_bits).collect();

        // Integer axes with a sign constraint report the constraint in
        // the type diagnostic.
        let constrained = |key: &str, expected, line| SpecError::WrongType {
            section: "grid".into(),
            key: key.into(),
            expected,
            found: "integer",
            line,
        };
        let seeds = axis(&doc, "grid", "seeds", INTEGERS, |seed, line| {
            let expected = "an array of non-negative integers";
            u64::try_from(seed).map_err(|_| constrained("seeds", expected, line))
        })?
        .unwrap_or_else(|| vec![1]);

        let traffic = traffic_axis(&doc, "grid")?;

        let flow_control = axis(&doc, "grid", "flow_control", STRINGS, |name, line| {
            Ok(match name.as_str() {
                "flit-level" => FlowControl::FlitLevel,
                "cut-through" => FlowControl::CutThrough,
                "bubble" => FlowControl::Bubble,
                _ => return Err(SpecError::UnknownFlowControl { name, line }),
            })
        })?;

        let vc_discipline = axis(&doc, "grid", "vc_discipline", STRINGS, |name, line| {
            Ok(match name.as_str() {
                "unrestricted" => VcDiscipline::Unrestricted,
                "dateline" => VcDiscipline::Dateline,
                "escape" => VcDiscipline::Escape,
                _ => return Err(SpecError::UnknownVcDiscipline { name, line }),
            })
        })?;

        let packet_len = axis(&doc, "grid", "packet_len", INTEGERS, |len, line| {
            let expected = "an array of positive integers";
            match len > 0 {
                true => Ok(len as u32),
                false => Err(constrained("packet_len", expected, line)),
            }
        })?;

        Ok(ExperimentSpec {
            name,
            description,
            measure,
            presets,
            traffic,
            rates,
            seeds,
            flow_control,
            vc_discipline,
            packet_len,
        })
    }

    /// The number of cells the grid expands to.
    pub fn grid_size(&self) -> usize {
        self.presets.len()
            * self.traffic.len()
            * self.rates.len()
            * self.seeds.len()
            * self.flow_control.as_ref().map_or(1, Vec::len)
            * self.vc_discipline.as_ref().map_or(1, Vec::len)
            * self.packet_len.as_ref().map_or(1, Vec::len)
    }

    /// Expands the cartesian grid into concrete cells, resolving
    /// override axes against each preset's defaults.
    pub fn expand(&self) -> Vec<Cell> {
        let mut cells = Vec::with_capacity(self.grid_size());
        for preset in &self.presets {
            let base = preset_config(preset).expect("validated preset");
            let fcs: Vec<FlowControl> = self
                .flow_control
                .clone()
                .unwrap_or_else(|| vec![base.flow_control]);
            let vds: Vec<VcDiscipline> = self
                .vc_discipline
                .clone()
                .unwrap_or_else(|| vec![base.vc_discipline]);
            let pls: Vec<u32> = self
                .packet_len
                .clone()
                .unwrap_or_else(|| vec![base.packet_len]);
            for &traffic in &self.traffic {
                for &rate in &self.rates {
                    for &seed in &self.seeds {
                        for &flow_control in &fcs {
                            for &vc_discipline in &vds {
                                for &packet_len in &pls {
                                    cells.push(Cell {
                                        preset: preset.clone(),
                                        traffic,
                                        rate,
                                        seed,
                                        flow_control,
                                        vc_discipline,
                                        packet_len,
                                        measure: self.measure,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
[experiment]
name = "t"

[grid]
presets = ["vc16"]
rates = [0.02, 0.05]
"#;

    #[test]
    fn minimal_spec_defaults() {
        let spec = ExperimentSpec::parse(MINIMAL).unwrap();
        assert_eq!(spec.name, "t");
        assert_eq!(spec.measure, MeasureSpec::default());
        let m = spec.measure;
        assert_eq!((m.warmup, m.sample_packets), (1000, 10_000), "§4.1");
        assert_eq!(spec.seeds, vec![1]);
        assert_eq!(spec.traffic, vec![TrafficKind::Uniform]);
        assert_eq!(spec.grid_size(), 2);
        let cells = spec.expand();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].packet_len, 5, "preset default resolved");
        assert_eq!(cells[0].flow_control, FlowControl::FlitLevel);
    }

    #[test]
    fn override_axes_multiply() {
        let spec = ExperimentSpec::parse(
            r#"
[experiment]
name = "fc"
[grid]
presets = ["wh64"]
rates = [0.02]
seeds = [1, 2]
flow_control = ["flit-level", "cut-through", "bubble"]
"#,
        )
        .unwrap();
        assert_eq!(spec.grid_size(), 6);
        let cells = spec.expand();
        assert_eq!(cells.len(), 6);
        assert!(cells.iter().any(|c| c.flow_control == FlowControl::Bubble));
    }

    #[test]
    fn repeated_axis_values_collapse_to_one_grid_point() {
        // `vc8x8` canonicalises to `vc64`: every axis below names one
        // value twice, so the grid is one cell, not sixteen.
        let spec = ExperimentSpec::parse(
            r#"
[experiment]
name = "dup"
[grid]
presets = ["vc64", "vc8x8"]
traffic = ["uniform", "uniform"]
rates = [0.02, 0.02]
seeds = [1, 1]
"#,
        )
        .unwrap();
        assert_eq!(spec.presets, vec!["vc64"]);
        assert_eq!(spec.grid_size(), 1);
        assert_eq!(spec.expand().len(), 1);
        // First occurrences keep their order; `0.0` and `-0.0` are
        // different bit patterns (and different cell keys).
        let spec = ExperimentSpec::parse(
            "[experiment]\nname = \"t\"\n[grid]\npresets = [\"vc16\"]\n\
             rates = [0.05, 0.0, 0.05, -0.0]\npacket_len = [8, 5, 8]\n",
        )
        .unwrap();
        assert_eq!(spec.rates.len(), 3);
        assert_eq!(spec.rates[..2], [0.05, 0.0]);
        assert_eq!(spec.packet_len, Some(vec![8, 5]));
    }

    #[test]
    fn cell_keys_are_stable_and_distinct() {
        let spec = ExperimentSpec::parse(MINIMAL).unwrap();
        let cells = spec.expand();
        assert_eq!(
            cells[0].key(),
            "vc16/uniform/r0.020000/s0000000001/fc-flit-level/vd-unrestricted/pl005"
        );
        assert_ne!(cells[0].key(), cells[1].key());
        assert_ne!(cells[0].fingerprint(), cells[1].fingerprint());
        assert_ne!(cells[0].derived_seed(), cells[1].derived_seed());
        // Identity is a pure function of the parameter point.
        let again = spec.expand();
        assert_eq!(again[0].fingerprint(), cells[0].fingerprint());
        assert_eq!(again[0].derived_seed(), cells[0].derived_seed());
    }

    #[test]
    fn fingerprint_tracks_measure_discipline() {
        let a = ExperimentSpec::parse(MINIMAL).unwrap();
        let mut b = a.clone();
        b.measure.sample_packets = 77;
        assert_ne!(
            a.expand()[0].fingerprint(),
            b.expand()[0].fingerprint(),
            "changing the measurement discipline must invalidate the cache"
        );
        let mut c = a.clone();
        c.measure.audit_every = 100;
        assert_ne!(
            a.expand()[0].fingerprint(),
            c.expand()[0].fingerprint(),
            "the audit period is part of the measurement discipline"
        );
    }

    #[test]
    fn audit_every_parses_from_measure_section() {
        let spec = ExperimentSpec::parse(
            "[experiment]\nname = \"t\"\n[measure]\naudit_every = 50\n\
             [grid]\npresets = [\"vc16\"]\nrates = [0.02]\n",
        )
        .unwrap();
        assert_eq!(spec.measure.audit_every, 50);
        assert_eq!(spec.expand()[0].measure.audit_every, 50);
    }

    #[test]
    fn typed_diagnostics() {
        let bad_preset =
            "\n[experiment]\nname = \"x\"\n[grid]\npresets = [\"hyper\"]\nrates = [0.1]\n";
        assert!(matches!(
            ExperimentSpec::parse(bad_preset),
            Err(SpecError::UnknownPreset { ref name, line: 5 }) if name == "hyper"
        ));

        let bad_rate = "[experiment]\nname = \"x\"\n[grid]\npresets = [\"vc16\"]\nrates = [1.5]\n";
        assert!(matches!(
            ExperimentSpec::parse(bad_rate),
            Err(SpecError::InvalidRate { rate, line: 5 }) if rate == 1.5
        ));

        let empty = "[experiment]\nname = \"x\"\n[grid]\npresets = [\"vc16\"]\nrates = []\n";
        assert!(matches!(
            ExperimentSpec::parse(empty),
            Err(SpecError::EmptyAxis { key: "rates" })
        ));

        let missing = "[grid]\npresets = [\"vc16\"]\nrates = [0.1]\n";
        assert!(matches!(
            ExperimentSpec::parse(missing),
            Err(SpecError::MissingKey { ref key, .. }) if key == "name"
        ));

        let typo = "[experiment]\nname = \"x\"\n[grid]\npresets = [\"vc16\"]\nrates = [0.1]\nraets = [0.2]\n";
        assert!(matches!(
            ExperimentSpec::parse(typo),
            Err(SpecError::UnknownKey { ref key, line: 6, .. }) if key == "raets"
        ));

        let section = "[experiment]\nname = \"x\"\n[gird]\npresets = [\"vc16\"]\n";
        assert!(matches!(
            ExperimentSpec::parse(section),
            Err(SpecError::UnknownSection { ref section, line: 3 }) if section == "gird"
        ));

        let wrong = "[experiment]\nname = \"x\"\n[grid]\npresets = \"vc16\"\nrates = [0.1]\n";
        assert!(matches!(
            ExperimentSpec::parse(wrong),
            Err(SpecError::WrongType { line: 4, .. })
        ));

        let syntax = "[experiment\nname = \"x\"\n";
        assert!(matches!(
            ExperimentSpec::parse(syntax),
            Err(SpecError::Syntax(ref e)) if e.line == 1
        ));

        let bad_name =
            "[experiment]\nname = \"a b\"\n[grid]\npresets = [\"vc16\"]\nrates = [0.1]\n";
        assert!(matches!(
            ExperimentSpec::parse(bad_name),
            Err(SpecError::BadName { .. })
        ));
    }

    #[test]
    fn errors_render_line_numbers() {
        let e = ExperimentSpec::parse("[grid]\npresets = [\"ghost\"]\nrates = [0.1]\n");
        // Missing name is reported before the preset check.
        assert!(e.unwrap_err().to_string().contains("name"));
        let e = ExperimentSpec::parse(
            "[experiment]\nname = \"x\"\n[grid]\npresets = [\"ghost\"]\nrates = [0.1]\n",
        )
        .unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("line 4") && msg.contains("ghost"), "{msg}");
    }

    #[test]
    fn traffic_axis_parses_all_kinds() {
        let spec = ExperimentSpec::parse(
            r#"
[experiment]
name = "t"
[grid]
presets = ["vc16"]
rates = [0.02]
traffic = ["uniform", "transpose", "bit-complement", "tornado", "shuffle", "bit-reversal"]
"#,
        )
        .unwrap();
        assert_eq!(spec.traffic.len(), 6);
        assert_eq!(spec.grid_size(), 6);
    }

    #[test]
    fn broadcast_names_its_source_by_coordinates() {
        for name in ["broadcast@1:2", "broadcast@0:0:3"] {
            assert_eq!(TrafficKind::parse(name).unwrap().to_string(), name);
        }
        let alias = TrafficKind::parse("broadcast@01:2").unwrap();
        assert_eq!(alias.to_string(), "broadcast@1:2");
        for bad in [
            "broadcast",
            "broadcast@",
            "broadcast@1,2",
            "broadcast@1::2",
            "broadcast@+1:2",
            "broadcast@-1:2",
            "broadcast@1:x",
            "broadcast@1:2:3:4",
            "broadcast@99999999999:0",
        ] {
            assert_eq!(TrafficKind::parse(bad), None, "{bad}");
        }

        let spec = |traffic: &str| {
            ExperimentSpec::parse(&format!(
                "[experiment]\nname = \"b\"\n[grid]\npresets = [\"vc64\"]\n\
                 rates = [0.2]\ntraffic = [\"{traffic}\"]\n"
            ))
        };
        assert!(matches!(
            spec("broadcast@1,2"),
            Err(SpecError::UnknownTraffic { ref name, line: 6 }) if name == "broadcast@1,2"
        ));
        let cell = spec("broadcast@1:2").unwrap().expand().remove(0);
        assert_eq!(
            cell.key(),
            "vc64/broadcast@1:2/r0.200000/s0000000001/fc-flit-level/vd-unrestricted/pl005"
        );
        let topology = cell.config().topology;
        assert!(cell.traffic.pattern(&topology, cell.rate).is_ok());

        // A source off the topology parses, then fails as a workload
        // error: the cell's record says so instead of the run failing.
        for (traffic, message) in [
            ("broadcast@4:0", "out of range for dimension 0 (radix 4)"),
            ("broadcast@1:2:3", "3 coordinate(s); the topology has 2"),
        ] {
            let cell = spec(traffic).unwrap().expand().remove(0);
            let record = crate::run_cell(&cell);
            assert_eq!(record.outcome, "error", "{traffic}");
            let error = record.error.unwrap_or_default();
            assert!(error.contains(message), "{traffic}: {error}");
        }
    }
}
