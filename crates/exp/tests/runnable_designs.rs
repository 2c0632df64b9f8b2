//! Accepted means runnable, over the grammar's finite axes: every
//! router family (and the paper's aliases), 2-D and 3-D tori and
//! meshes, flow control, VC discipline and packet length, with VC
//! counts and depths on both sides of each bound the configuration
//! checks (`RouterTooLarge`, `BufferTooShallow`,
//! `DisciplineNeedsTwoVcs`). Each cell either fails
//! [`NetworkConfig::validate`] with a typed error or builds a
//! [`Network`] without a panic, and [`ExperimentSpec::parse`] accepts
//! exactly the cells that validate. Construct only: nothing steps.

use orion_core::{ConfigError, NetworkConfig};
use orion_exp::design::DesignPoint;
use orion_exp::spec::ExperimentSpec;
use orion_exp::SpecError;
use orion_sim::{FlowControl, Network, VcDiscipline};

/// Shape suffixes: 2-D and 3-D, torus and mesh, radix 2 among them.
const SHAPES: [(&str, usize); 4] = [("", 5), ("-t3x3x3", 7), ("-m4", 5), ("-m2x2x2", 7)];

/// Packet lengths, and depths on both sides of every flow-control
/// floor they set (cut-through needs a packet, bubble two).
const PACKET_LENS: [u32; 2] = [1, 5];
const DEPTHS: [u32; 6] = [1, 2, 4, 5, 9, 10];

const FLOW_CONTROLS: [(FlowControl, &str); 3] = [
    (FlowControl::FlitLevel, "flit-level"),
    (FlowControl::CutThrough, "cut-through"),
    (FlowControl::Bubble, "bubble"),
];

const DISCIPLINES: [(VcDiscipline, &str); 3] = [
    (VcDiscipline::Unrestricted, "unrestricted"),
    (VcDiscipline::Dateline, "dateline"),
    (VcDiscipline::Escape, "escape"),
];

/// Every design name of the enumeration.
fn designs() -> Vec<String> {
    let mut out: Vec<String> = ["wh64", "vc16", "vc64", "vc128", "xb", "cb"]
        .map(String::from)
        .to_vec();
    for (shape, ports) in SHAPES {
        // The widest router that fits the 128 input VCs, and one wider.
        let widest = (128 / ports) as u32;
        for depth in DEPTHS {
            out.push(format!("wh{depth}{shape}"));
            out.push(format!("cb{depth}{shape}"));
            for vcs in [1, 2, widest, widest + 1] {
                out.push(format!("vc{vcs}x{depth}{shape}"));
            }
        }
        for vcs in [1, 2, widest + 1] {
            out.push(format!("xb{vcs}x10{shape}"));
        }
        // Past the deepest buffer the state layout holds (the accepted
        // side of this bound is a 65 535-flit buffer per VC, too large
        // to build here).
        out.push(format!("vc2x65536{shape}"));
    }
    out
}

/// `(design, config)` for every cell: design × flow control ×
/// discipline × packet length.
fn cells() -> Vec<(String, usize, usize, u32, NetworkConfig)> {
    let mut out = Vec::new();
    for design in designs() {
        let point = DesignPoint::parse(&design).unwrap_or_else(|| panic!("{design} parses"));
        for (f, &(flow_control, _)) in FLOW_CONTROLS.iter().enumerate() {
            for (d, &(discipline, _)) in DISCIPLINES.iter().enumerate() {
                for len in PACKET_LENS {
                    let config = point
                        .config()
                        .flow_control(flow_control)
                        .vc_discipline(discipline)
                        .packet_len(len);
                    out.push((design.clone(), f, d, len, config));
                }
            }
        }
    }
    out
}

#[test]
fn every_cell_is_rejected_with_a_typed_error_or_builds() {
    let (mut built, mut rejected) = (0, 0);
    let mut seen = [false; 3];
    for (design, _, _, len, config) in cells() {
        match config.validate() {
            Ok(()) => {
                let (spec, models) = config
                    .build()
                    .unwrap_or_else(|e| panic!("{design}: validated but cannot build: {e}"));
                assert_eq!(spec.packet_len, len);
                drop(Network::new(spec, models));
                built += 1;
            }
            Err(e) => {
                let bound = match e {
                    ConfigError::RouterTooLarge { .. } => 0,
                    ConfigError::BufferTooShallow { .. } => 1,
                    ConfigError::DisciplineNeedsTwoVcs(_) => 2,
                    other => panic!("{design}: unexpected rejection {other}"),
                };
                seen[bound] = true;
                rejected += 1;
            }
        }
    }
    assert!(
        built > 0 && rejected > 0,
        "{built} built, {rejected} rejected"
    );
    assert_eq!(seen, [true; 3], "every bound is crossed");
}

#[test]
fn a_spec_is_accepted_exactly_when_its_design_validates() {
    for (design, f, d, len, config) in cells() {
        let toml = format!(
            "[experiment]\nname = \"runnable\"\n\n[grid]\npresets = [\"{design}\"]\n\
             rates = [0.01]\nflow_control = [\"{}\"]\nvc_discipline = [\"{}\"]\n\
             packet_len = [{len}]\n",
            FLOW_CONTROLS[f].1, DISCIPLINES[d].1
        );
        match (config.validate(), ExperimentSpec::parse(&toml)) {
            (Ok(()), Ok(_)) => {}
            (Err(want), Err(SpecError::UnrunnableDesign { error, line, .. })) => {
                assert_eq!(error, want, "{design}");
                assert_eq!(line, 5, "{design}: the presets line");
            }
            (want, got) => panic!("{design}: validate {want:?}, parse {got:?}"),
        }
    }
}
