//! The versioned per-cell result record: one JSON object per line in
//! artifacts and cache files, one row in CSV exports.
//!
//! Records are written with a **fixed field order** and Rust's
//! shortest-roundtrip `{}` float formatting, so a record's byte
//! representation is a pure function of its contents — the property
//! the determinism tests rely on (`--threads 8` artifacts must equal
//! `--threads 1` artifacts byte-for-byte).
//!
//! Numbers are parsed back from their **raw JSON tokens**, not through
//! `f64`: `derived_seed` is a full-range `u64` that an `f64` detour
//! would silently round.

use std::collections::BTreeMap;

use orion_core::Report;
use orion_obs::json::{Json, Value};
use orion_sim::Component;

use crate::fingerprint;
use crate::spec::{flow_control_name, vc_discipline_name, Cell};

/// Version of the record layout (JSONL fields and CSV columns). Bump
/// on any field addition, removal or reordering.
///
/// Version history: 1 = initial layout; 2 = added the supervision
/// fields `cell_outcome` and `attempts`; 3 = added the per-cell
/// metrics fields `flits_delivered`, `latency_p50` and `latency_p99`;
/// 4 = added the checkpoint provenance fields `resumed_from_cycle`
/// and `checkpoints_written` (old caches are invalidated by design —
/// their lines parse as version skew and re-simulate).
pub const SCHEMA_VERSION: u32 = 4;

/// One grid cell's outcome, flattened for artifacts and the cache.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Record-layout version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The cell key (stable identity; artifact sort order).
    pub cell: String,
    /// Content-address of the result (see [`crate::fingerprint`]).
    pub fingerprint: u64,
    /// Preset name.
    pub preset: String,
    /// Traffic pattern name.
    pub traffic: String,
    /// Injection rate in packets/cycle/node.
    pub rate: f64,
    /// Spec-level seed.
    pub seed: u64,
    /// RNG seed derived from the cell key.
    pub derived_seed: u64,
    /// Resolved flow control.
    pub flow_control: String,
    /// Resolved VC discipline.
    pub vc_discipline: String,
    /// Resolved packet length in flits.
    pub packet_len: u32,
    /// How the run ended ([`orion_core::RunOutcome`] label, or
    /// `"error"` when the configuration was rejected).
    pub outcome: String,
    /// Typed-error message for rejected configurations, or the panic
    /// payload for crashed cells.
    pub error: Option<String>,
    /// Supervision verdict for this cell: `"ok"` (first-try success),
    /// `"retried"` (succeeded after one or more panicking attempts),
    /// `"crashed"` (every attempt panicked; quarantined) or
    /// `"timed-out"` (exceeded its wall-clock budget).
    pub cell_outcome: String,
    /// Simulation attempts made (1 for a first-try success).
    pub attempts: u32,
    /// Whether the network was at or beyond saturation.
    pub saturated: bool,
    /// Average tagged-packet latency in cycles (NaN when no packet
    /// completed; serialized as `null`).
    pub avg_latency: f64,
    /// Analytic zero-load latency in cycles.
    pub zero_load_latency: f64,
    /// Measured cycles (after warm-up).
    pub measured_cycles: u64,
    /// Delivered flits per cycle over the measured window.
    pub throughput: f64,
    /// Total network power in watts.
    pub total_power_w: f64,
    /// Buffer component power in watts.
    pub buffer_w: f64,
    /// Crossbar component power in watts.
    pub crossbar_w: f64,
    /// Arbiter component power in watts.
    pub arbiter_w: f64,
    /// Link component power in watts.
    pub link_w: f64,
    /// Central-buffer component power in watts.
    pub central_w: f64,
    /// Packets injected during the run.
    pub packets_injected: u64,
    /// Packets delivered during the run.
    pub packets_delivered: u64,
    /// Packets dropped (fault runs).
    pub packets_dropped: u64,
    /// Packets detoured around faults.
    pub packets_detoured: u64,
    /// Flits ejected during the run.
    pub flits_delivered: u64,
    /// Median tagged-packet latency in cycles (NaN when the latency
    /// sample is empty; serialized as `null`).
    pub latency_p50: f64,
    /// 99th-percentile tagged-packet latency in cycles (NaN when the
    /// latency sample is empty; serialized as `null`).
    pub latency_p99: f64,
    /// The cycle a mid-run checkpoint resumed this cell from, or
    /// `None` (serialized `null`) when the cell ran from cycle 0.
    /// Provenance only: resumed results are bit-identical to
    /// uninterrupted ones.
    pub resumed_from_cycle: Option<u64>,
    /// Checkpoints persisted while this cell ran (0 when
    /// checkpointing was off).
    pub checkpoints_written: u64,
    /// Whether this record came from the cache rather than a fresh
    /// simulation. Runtime bookkeeping only — never serialized, so
    /// cached and fresh runs produce identical artifacts.
    pub cached: bool,
}

impl CellRecord {
    /// Builds the record for a completed (or degraded) simulation: the
    /// cell's identity (as [`CellRecord::from_error`] fills it) plus
    /// everything the report measured.
    pub fn from_report(cell: &Cell, report: &Report) -> CellRecord {
        let zero = |x: f64| if x == 0.0 { 0.0 } else { x };
        CellRecord {
            outcome: report.outcome().label().to_string(),
            error: None,
            saturated: report.is_saturated(),
            avg_latency: report.avg_latency(),
            zero_load_latency: report.zero_load_latency(),
            measured_cycles: report.measured_cycles(),
            throughput: zero(report.throughput_flits_per_cycle()),
            total_power_w: report.total_power().0,
            buffer_w: report.component_power(Component::Buffer).0,
            crossbar_w: report.component_power(Component::Crossbar).0,
            arbiter_w: report.component_power(Component::Arbiter).0,
            link_w: report.component_power(Component::Link).0,
            central_w: report.component_power(Component::CentralBuffer).0,
            packets_injected: report.stats().packets_injected,
            packets_delivered: report.stats().packets_delivered,
            packets_dropped: report.stats().packets_dropped,
            packets_detoured: report.stats().packets_detoured,
            flits_delivered: report.stats().flits_delivered,
            latency_p50: percentile_or_nan(report, 50.0),
            latency_p99: percentile_or_nan(report, 99.0),
            ..CellRecord::from_error(cell, "")
        }
    }

    /// Builds the record for a cell whose configuration was rejected
    /// with a typed error (the cell still occupies its grid point, so
    /// artifacts stay rectangular).
    pub fn from_error(cell: &Cell, message: &str) -> CellRecord {
        CellRecord {
            schema_version: SCHEMA_VERSION,
            cell: cell.key(),
            fingerprint: cell.fingerprint(),
            preset: cell.preset.clone(),
            traffic: cell.traffic.as_str().to_string(),
            rate: cell.rate,
            seed: cell.seed,
            derived_seed: cell.derived_seed(),
            flow_control: flow_control_name(cell.flow_control).to_string(),
            vc_discipline: vc_discipline_name(cell.vc_discipline).to_string(),
            packet_len: cell.packet_len,
            outcome: "error".to_string(),
            error: Some(message.to_string()),
            cell_outcome: "ok".to_string(),
            attempts: 1,
            saturated: false,
            avg_latency: f64::NAN,
            zero_load_latency: 0.0,
            measured_cycles: 0,
            throughput: 0.0,
            total_power_w: 0.0,
            buffer_w: 0.0,
            crossbar_w: 0.0,
            arbiter_w: 0.0,
            link_w: 0.0,
            central_w: 0.0,
            packets_injected: 0,
            packets_delivered: 0,
            packets_dropped: 0,
            packets_detoured: 0,
            flits_delivered: 0,
            latency_p50: f64::NAN,
            latency_p99: f64::NAN,
            resumed_from_cycle: None,
            checkpoints_written: 0,
            cached: false,
        }
    }

    /// Builds the quarantine record for a cell whose every supervised
    /// attempt panicked. The panic payload lands in `error`, so the
    /// grid stays rectangular and the failure is inspectable, while
    /// all other cells keep their results.
    pub fn from_crash(cell: &Cell, panic_msg: &str, attempts: u32) -> CellRecord {
        let mut r = CellRecord::from_error(cell, panic_msg);
        r.outcome = "crashed".to_string();
        r.cell_outcome = "crashed".to_string();
        r.attempts = attempts;
        r
    }

    /// Builds the quarantine record for a cell whose attempt exceeded
    /// its wall-clock budget. Classification is post-hoc (a running
    /// cell cannot be preempted), so the overrun is recorded but its
    /// numbers are discarded as untrustworthy under load.
    pub fn from_timeout(cell: &Cell, budget_ms: u64, elapsed_ms: u64, attempts: u32) -> CellRecord {
        let mut r = CellRecord::from_error(
            cell,
            &format!("cell exceeded its {budget_ms} ms wall-clock budget (took {elapsed_ms} ms)"),
        );
        r.outcome = "timed-out".to_string();
        r.cell_outcome = "timed-out".to_string();
        r.attempts = attempts;
        r
    }

    /// Builds the hand-off record for a cell stopped at a checkpoint
    /// boundary by a graceful drain. The persisted checkpoint, not
    /// this record, carries the state: the record only marks the cell
    /// incomplete (it is never cached), so the next run over the same
    /// cache directory resumes the cell from its checkpoint.
    pub fn from_drain(cell: &Cell, cycle: u64) -> CellRecord {
        let mut r = CellRecord::from_error(
            cell,
            &format!("cell drained at cycle {cycle}; checkpoint persisted for resume"),
        );
        r.outcome = "drained".to_string();
        r.cell_outcome = "drained".to_string();
        r
    }

    /// Whether the cell failed (configuration rejected).
    pub fn is_error(&self) -> bool {
        self.outcome == "error"
    }

    /// Whether this cell was stopped mid-run by a graceful drain
    /// (incomplete by design; resumable from its checkpoint).
    pub fn is_drained(&self) -> bool {
        self.cell_outcome == "drained"
    }

    /// Whether every supervised attempt of this cell panicked.
    pub fn is_crashed(&self) -> bool {
        self.cell_outcome == "crashed"
    }

    /// Whether this cell exceeded its wall-clock budget.
    pub fn is_timed_out(&self) -> bool {
        self.cell_outcome == "timed-out"
    }

    /// Serializes to one JSON line (no trailing newline). Field order
    /// is fixed; `cached` is deliberately omitted.
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(512);
        let mut o = Json::compact(&mut s);
        o.key("schema_version").num(self.schema_version);
        o.key("cell").str(&self.cell);
        o.key("fingerprint")
            .str(&fingerprint::to_hex(self.fingerprint));
        o.key("preset").str(&self.preset);
        o.key("traffic").str(&self.traffic);
        o.key("rate").f64(self.rate);
        o.key("seed").num(self.seed);
        o.key("derived_seed").num(self.derived_seed);
        o.key("flow_control").str(&self.flow_control);
        o.key("vc_discipline").str(&self.vc_discipline);
        o.key("packet_len").num(self.packet_len);
        o.key("outcome").str(&self.outcome);
        o.key("error").opt(self.error.as_deref(), Value::str);
        o.key("cell_outcome").str(&self.cell_outcome);
        o.key("attempts").num(self.attempts);
        o.key("saturated").bool(self.saturated);
        o.key("avg_latency").f64(self.avg_latency);
        o.key("zero_load_latency").f64(self.zero_load_latency);
        o.key("measured_cycles").num(self.measured_cycles);
        o.key("throughput").f64(self.throughput);
        o.key("total_power_w").f64(self.total_power_w);
        o.key("buffer_w").f64(self.buffer_w);
        o.key("crossbar_w").f64(self.crossbar_w);
        o.key("arbiter_w").f64(self.arbiter_w);
        o.key("link_w").f64(self.link_w);
        o.key("central_w").f64(self.central_w);
        o.key("packets_injected").num(self.packets_injected);
        o.key("packets_delivered").num(self.packets_delivered);
        o.key("packets_dropped").num(self.packets_dropped);
        o.key("packets_detoured").num(self.packets_detoured);
        o.key("flits_delivered").num(self.flits_delivered);
        o.key("latency_p50").f64(self.latency_p50);
        o.key("latency_p99").f64(self.latency_p99);
        o.key("resumed_from_cycle")
            .opt(self.resumed_from_cycle, Value::num);
        o.key("checkpoints_written").num(self.checkpoints_written);
        o.end();
        s
    }

    /// Parses a record from one JSON line, rejecting anything
    /// malformed, incomplete or from a different schema version. The
    /// parsed record is marked `cached`.
    pub fn from_json_line(line: &str) -> Option<CellRecord> {
        let obj = parse_flat_object(line)?;
        let schema_version: u32 = obj.get("schema_version")?.as_u64()?.try_into().ok()?;
        if schema_version != SCHEMA_VERSION {
            return None;
        }
        // An empty latency sample is stored as `null` and read back NaN.
        let nullable_f64 = |key| match obj.get(key)? {
            JsonVal::Null => Some(f64::NAN),
            v => v.as_f64(),
        };
        Some(CellRecord {
            schema_version,
            cell: obj.get("cell")?.as_str()?.to_string(),
            fingerprint: fingerprint::from_hex(obj.get("fingerprint")?.as_str()?)?,
            preset: obj.get("preset")?.as_str()?.to_string(),
            traffic: obj.get("traffic")?.as_str()?.to_string(),
            rate: obj.get("rate")?.as_f64()?,
            seed: obj.get("seed")?.as_u64()?,
            derived_seed: obj.get("derived_seed")?.as_u64()?,
            flow_control: obj.get("flow_control")?.as_str()?.to_string(),
            vc_discipline: obj.get("vc_discipline")?.as_str()?.to_string(),
            packet_len: obj.get("packet_len")?.as_u64()?.try_into().ok()?,
            outcome: obj.get("outcome")?.as_str()?.to_string(),
            error: match obj.get("error")? {
                JsonVal::Null => None,
                v => Some(v.as_str()?.to_string()),
            },
            cell_outcome: obj.get("cell_outcome")?.as_str()?.to_string(),
            attempts: obj.get("attempts")?.as_u64()?.try_into().ok()?,
            saturated: obj.get("saturated")?.as_bool()?,
            avg_latency: nullable_f64("avg_latency")?,
            zero_load_latency: obj.get("zero_load_latency")?.as_f64()?,
            measured_cycles: obj.get("measured_cycles")?.as_u64()?,
            throughput: obj.get("throughput")?.as_f64()?,
            total_power_w: obj.get("total_power_w")?.as_f64()?,
            buffer_w: obj.get("buffer_w")?.as_f64()?,
            crossbar_w: obj.get("crossbar_w")?.as_f64()?,
            arbiter_w: obj.get("arbiter_w")?.as_f64()?,
            link_w: obj.get("link_w")?.as_f64()?,
            central_w: obj.get("central_w")?.as_f64()?,
            packets_injected: obj.get("packets_injected")?.as_u64()?,
            packets_delivered: obj.get("packets_delivered")?.as_u64()?,
            packets_dropped: obj.get("packets_dropped")?.as_u64()?,
            packets_detoured: obj.get("packets_detoured")?.as_u64()?,
            flits_delivered: obj.get("flits_delivered")?.as_u64()?,
            latency_p50: nullable_f64("latency_p50")?,
            latency_p99: nullable_f64("latency_p99")?,
            resumed_from_cycle: match obj.get("resumed_from_cycle")? {
                JsonVal::Null => None,
                v => Some(v.as_u64()?),
            },
            checkpoints_written: obj.get("checkpoints_written")?.as_u64()?,
            cached: true,
        })
    }

    /// CSV column header, matching [`CellRecord::to_csv_row`].
    pub fn csv_header() -> &'static str {
        "schema_version,cell,fingerprint,preset,traffic,rate,seed,derived_seed,\
         flow_control,vc_discipline,packet_len,outcome,cell_outcome,attempts,\
         saturated,avg_latency,zero_load_latency,measured_cycles,throughput,\
         total_power_w,buffer_w,crossbar_w,arbiter_w,link_w,central_w,\
         packets_injected,packets_delivered,packets_dropped,packets_detoured,\
         flits_delivered,latency_p50,latency_p99,resumed_from_cycle,\
         checkpoints_written"
    }

    /// One CSV data row (no trailing newline). The free-text `error`
    /// field is JSONL-only; CSV carries the outcome label.
    pub fn to_csv_row(&self) -> String {
        let f = |x: f64| {
            if x.is_nan() {
                String::new()
            } else {
                format!("{x}")
            }
        };
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.schema_version,
            self.cell,
            fingerprint::to_hex(self.fingerprint),
            self.preset,
            self.traffic,
            self.rate,
            self.seed,
            self.derived_seed,
            self.flow_control,
            self.vc_discipline,
            self.packet_len,
            self.outcome,
            self.cell_outcome,
            self.attempts,
            self.saturated,
            f(self.avg_latency),
            f(self.zero_load_latency),
            self.measured_cycles,
            f(self.throughput),
            f(self.total_power_w),
            f(self.buffer_w),
            f(self.crossbar_w),
            f(self.arbiter_w),
            f(self.link_w),
            f(self.central_w),
            self.packets_injected,
            self.packets_delivered,
            self.packets_dropped,
            self.packets_detoured,
            self.flits_delivered,
            f(self.latency_p50),
            f(self.latency_p99),
            self.resumed_from_cycle
                .map(|c| c.to_string())
                .unwrap_or_default(),
            self.checkpoints_written,
        )
    }
}

/// The `p`-th latency percentile of a report's tagged sample as `f64`,
/// NaN when the sample is empty (serialized as `null`, like
/// `avg_latency`).
fn percentile_or_nan(report: &Report, p: f64) -> f64 {
    report
        .stats()
        .latency_percentile(p)
        .map(|v| v as f64)
        .unwrap_or(f64::NAN)
}

/// A value in a flat JSON object. Numbers keep their **raw token**
/// so `u64`s round-trip without an `f64` detour.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonVal {
    /// A string (unescaped).
    Str(String),
    /// A number, as its raw source token.
    Num(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
}

impl JsonVal {
    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonVal::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number parsed as `u64`, exact.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonVal::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonVal::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonVal::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses a single-line flat JSON object (string/number/bool/null
/// values only — no nesting). Returns `None` on any malformation.
pub fn parse_flat_object(line: &str) -> Option<BTreeMap<String, JsonVal>> {
    let mut out = BTreeMap::new();
    let bytes = line.trim().as_bytes();
    let mut i = 0usize;
    let skip_ws = |i: &mut usize| {
        while *i < bytes.len() && (bytes[*i] as char).is_ascii_whitespace() {
            *i += 1;
        }
    };

    let parse_string = |i: &mut usize| -> Option<String> {
        if bytes.get(*i) != Some(&b'"') {
            return None;
        }
        *i += 1;
        let mut s = String::new();
        loop {
            match bytes.get(*i)? {
                b'"' => {
                    *i += 1;
                    return Some(s);
                }
                b'\\' => {
                    *i += 1;
                    match bytes.get(*i)? {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'/' => s.push('/'),
                        b'u' => {
                            let hex = line.trim().get(*i + 1..*i + 5)?;
                            let code = u32::from_str_radix(hex, 16).ok()?;
                            s.push(char::from_u32(code)?);
                            *i += 4;
                        }
                        _ => return None,
                    }
                    *i += 1;
                }
                _ => {
                    // Consume one UTF-8 character.
                    let rest = std::str::from_utf8(&bytes[*i..]).ok()?;
                    let c = rest.chars().next()?;
                    s.push(c);
                    *i += c.len_utf8();
                }
            }
        }
    };

    skip_ws(&mut i);
    if bytes.get(i) != Some(&b'{') {
        return None;
    }
    i += 1;
    skip_ws(&mut i);
    if bytes.get(i) == Some(&b'}') {
        return if i + 1 == bytes.len() {
            Some(out)
        } else {
            None
        };
    }
    loop {
        skip_ws(&mut i);
        let key = parse_string(&mut i)?;
        skip_ws(&mut i);
        if bytes.get(i) != Some(&b':') {
            return None;
        }
        i += 1;
        skip_ws(&mut i);
        let val = match bytes.get(i)? {
            b'"' => JsonVal::Str(parse_string(&mut i)?),
            b't' if line.trim().get(i..i + 4) == Some("true") => {
                i += 4;
                JsonVal::Bool(true)
            }
            b'f' if line.trim().get(i..i + 5) == Some("false") => {
                i += 5;
                JsonVal::Bool(false)
            }
            b'n' if line.trim().get(i..i + 4) == Some("null") => {
                i += 4;
                JsonVal::Null
            }
            b'-' | b'0'..=b'9' => {
                let start = i;
                while i < bytes.len()
                    && matches!(bytes[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    i += 1;
                }
                let raw = std::str::from_utf8(&bytes[start..i]).ok()?;
                // Validate the token parses as a number at all.
                raw.parse::<f64>().ok()?;
                JsonVal::Num(raw.to_string())
            }
            _ => return None,
        };
        if out.insert(key, val).is_some() {
            return None; // duplicate key: corrupt line
        }
        skip_ws(&mut i);
        match bytes.get(i)? {
            b',' => i += 1,
            b'}' => {
                i += 1;
                skip_ws(&mut i);
                return if i == bytes.len() { Some(out) } else { None };
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ExperimentSpec;

    fn sample_cell() -> Cell {
        ExperimentSpec::parse(
            "[experiment]\nname = \"t\"\n[grid]\npresets = [\"vc16\"]\nrates = [0.05]\n",
        )
        .unwrap()
        .expand()
        .remove(0)
    }

    fn sample_record() -> CellRecord {
        let cell = sample_cell();
        let mut r = CellRecord::from_error(&cell, "boom \"quoted\" \\ path");
        r.avg_latency = 33.25;
        r.latency_p50 = 31.0;
        r.latency_p99 = 88.5;
        r.total_power_w = 0.123456789012345;
        r.measured_cycles = 12345;
        r.outcome = "completed".into();
        r.error = None;
        r
    }

    /// One fixed record exercising every serializer branch: an error
    /// string with a quote, backslash, newline, control and non-ASCII
    /// character, a NaN latency (`null`), a set `resumed_from_cycle`.
    fn golden_record() -> CellRecord {
        let mut r = CellRecord::from_error(&sample_cell(), "q\" b\\ n\n c\u{1} \u{e9}");
        r.fingerprint = 0xdead_beef; // fixed: the golden pins the format, not MODEL_VERSION
        r.latency_p50 = 31.0;
        r.total_power_w = 0.123456789012345;
        r.throughput = 1e-7;
        r.measured_cycles = 12345;
        r.saturated = true;
        r.resumed_from_cycle = Some(8192);
        r.checkpoints_written = 7;
        r
    }

    /// Exact bytes of [`golden_record`], generated at `f3a1fbd`.
    const GOLDEN_LINE: &str = r#"{"schema_version":4,"cell":"vc16/uniform/r0.050000/s0000000001/fc-flit-level/vd-unrestricted/pl005","fingerprint":"00000000deadbeef","preset":"vc16","traffic":"uniform","rate":0.05,"seed":1,"derived_seed":17932260630409807447,"flow_control":"flit-level","vc_discipline":"unrestricted","packet_len":5,"outcome":"error","error":"q\" b\\ n\n c\u0001 é","cell_outcome":"ok","attempts":1,"saturated":true,"avg_latency":null,"zero_load_latency":0,"measured_cycles":12345,"throughput":0.0000001,"total_power_w":0.123456789012345,"buffer_w":0,"crossbar_w":0,"arbiter_w":0,"link_w":0,"central_w":0,"packets_injected":0,"packets_delivered":0,"packets_dropped":0,"packets_detoured":0,"flits_delivered":0,"latency_p50":31,"latency_p99":null,"resumed_from_cycle":8192,"checkpoints_written":7}"#;
    const GOLDEN_CSV: &str = r#"4,vc16/uniform/r0.050000/s0000000001/fc-flit-level/vd-unrestricted/pl005,00000000deadbeef,vc16,uniform,0.05,1,17932260630409807447,flit-level,unrestricted,5,error,ok,1,true,,0,12345,0.0000001,0.123456789012345,0,0,0,0,0,0,0,0,0,0,31,,8192,7"#;

    #[test]
    fn json_roundtrip_exact() {
        for rec in [sample_record(), golden_record()] {
            let line = rec.to_json_line();
            let back = CellRecord::from_json_line(&line).expect("parses");
            // `cached` flips on load; everything else must round-trip
            // (NaN fields compare by their serialized form).
            assert!(back.cached);
            // Serialization is canonical: re-serializing gives the same bytes.
            assert_eq!(back.to_json_line(), line);
            if !rec.avg_latency.is_nan() {
                let mut expect = rec.clone();
                expect.cached = true;
                assert_eq!(back, expect);
            }
        }
        assert_eq!(golden_record().to_json_line(), GOLDEN_LINE);
        assert_eq!(golden_record().to_csv_row(), GOLDEN_CSV);
        let mut fresh = golden_record();
        fresh.resumed_from_cycle = None;
        assert_eq!(
            fresh.to_json_line(),
            GOLDEN_LINE.replace("\"resumed_from_cycle\":8192", "\"resumed_from_cycle\":null")
        );
    }

    #[test]
    fn u64_seeds_roundtrip_without_f64_loss() {
        let mut rec = sample_record();
        rec.derived_seed = u64::MAX - 1; // not representable as f64
        let back = CellRecord::from_json_line(&rec.to_json_line()).unwrap();
        assert_eq!(back.derived_seed, u64::MAX - 1);
    }

    #[test]
    fn nan_latency_serializes_as_null() {
        let rec = CellRecord::from_error(&sample_cell(), "bad");
        let line = rec.to_json_line();
        assert!(line.contains("\"avg_latency\":null"));
        let back = CellRecord::from_json_line(&line).unwrap();
        assert!(back.avg_latency.is_nan());
        assert_eq!(back.error.as_deref(), Some("bad"));
        assert!(back.is_error());
    }

    #[test]
    fn corrupt_lines_rejected() {
        let good = sample_record().to_json_line();
        for bad in [
            "",
            "{",
            "not json",
            "{}",                      // missing fields
            &good[..good.len() - 10],  // truncated
            &format!("{good}trailer"), // trailing garbage
            &good.replace("\"schema_version\":4", "\"schema_version\":999"),
            // Version skew: a v3 line (no checkpoint provenance
            // fields) must not load.
            &good
                .replace("\"schema_version\":4", "\"schema_version\":3")
                .replace(",\"resumed_from_cycle\":null", "")
                .replace(",\"checkpoints_written\":0", ""),
        ] {
            assert_eq!(CellRecord::from_json_line(bad), None, "accepted: {bad:?}");
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        let mut rec = sample_record();
        rec.error = Some("line1\nline2\ttab \"q\" back\\slash \u{1}".into());
        rec.outcome = "error".into();
        let back = CellRecord::from_json_line(&rec.to_json_line()).unwrap();
        assert_eq!(back.error, rec.error);
    }

    #[test]
    fn csv_row_matches_header_arity() {
        let header_cols = CellRecord::csv_header().split(',').count();
        let row_cols = sample_record().to_csv_row().split(',').count();
        assert_eq!(header_cols, row_cols);
        assert_eq!(header_cols, 34);
    }

    #[test]
    fn checkpoint_provenance_roundtrips() {
        let mut rec = sample_record();
        rec.resumed_from_cycle = Some(8192);
        rec.checkpoints_written = 7;
        let line = rec.to_json_line();
        assert!(line.contains("\"resumed_from_cycle\":8192"));
        assert!(line.contains("\"checkpoints_written\":7"));
        let back = CellRecord::from_json_line(&line).unwrap();
        assert_eq!(back.resumed_from_cycle, Some(8192));
        assert_eq!(back.checkpoints_written, 7);
        assert!(
            rec.to_csv_row().ends_with(",8192,7"),
            "{}",
            rec.to_csv_row()
        );

        // A fresh cycle-0 cell serializes null / 0 and a blank CSV cell.
        let fresh = sample_record();
        assert!(fresh.to_json_line().contains("\"resumed_from_cycle\":null"));
        assert!(fresh.to_csv_row().ends_with(",,0"));
    }

    #[test]
    fn percentile_fields_roundtrip() {
        let mut rec = sample_record();
        rec.flits_delivered = 605;
        rec.latency_p50 = 31.0;
        rec.latency_p99 = 88.0;
        let line = rec.to_json_line();
        assert!(line.contains("\"latency_p50\":31"));
        let back = CellRecord::from_json_line(&line).unwrap();
        assert_eq!(back.flits_delivered, 605);
        assert_eq!(back.latency_p50, 31.0);
        assert_eq!(back.latency_p99, 88.0);
        let row = rec.to_csv_row();
        assert!(row.ends_with(",605,31,88,,0"), "{row}");

        // Empty latency sample: percentiles serialize as null and CSV
        // leaves the cells blank, like `avg_latency`.
        let empty = CellRecord::from_error(&sample_cell(), "bad");
        assert!(empty.to_json_line().contains("\"latency_p99\":null"));
        assert!(empty.to_csv_row().ends_with(",0,,,,0"));
        let back = CellRecord::from_json_line(&empty.to_json_line()).unwrap();
        assert!(back.latency_p50.is_nan() && back.latency_p99.is_nan());
    }

    #[test]
    fn supervision_records_roundtrip() {
        let cell = sample_cell();
        let crash = CellRecord::from_crash(&cell, "index out of bounds: 9 >= 5", 3);
        assert!(crash.is_crashed() && !crash.is_error() && !crash.is_timed_out());
        assert_eq!(crash.outcome, "crashed");
        assert_eq!(crash.attempts, 3);
        let back = CellRecord::from_json_line(&crash.to_json_line()).unwrap();
        assert_eq!(back.cell_outcome, "crashed");
        assert_eq!(back.attempts, 3);
        assert_eq!(back.error.as_deref(), Some("index out of bounds: 9 >= 5"));

        let timeout = CellRecord::from_timeout(&cell, 50, 1234, 1);
        assert!(timeout.is_timed_out() && !timeout.is_crashed());
        assert!(
            timeout.error.as_deref().unwrap().contains("50 ms"),
            "{:?}",
            timeout.error
        );
        assert!(timeout.to_csv_row().contains(",timed-out,"));
    }
}
