//! The checkpoint file format: versioned, checksummed, owner-stamped.
//!
//! ```text
//! +--------+---------+-------------+---------------------+----------+
//! | "ORCK" | version | fingerprint | payload (len-prefix)| checksum |
//! | 4 B    | u32 LE  | u64 LE      | u64 LE + bytes      | u64 LE   |
//! +--------+---------+-------------+---------------------+----------+
//! ```
//!
//! The footer checksum (FNV-1a over little-endian `u64` words, see
//! [`hash`](crate::hash)) covers every preceding byte, so a torn
//! write, a bit flip or a truncation is detected *before* the payload
//! is even parsed — corruption surfaces as a typed [`CkptError`], never a
//! panic and never silently-wrong simulation state. The fingerprint
//! stamps which experiment owns the snapshot; loading under a
//! different fingerprint is rejected the same way a wrong-shape
//! network image would be, just earlier and cheaper.
//!
//! Files are written with [`write_atomic`], so a crash mid-save leaves
//! either the previous complete checkpoint or the new complete one.
//! The failpoints `ckpt.write` and `ckpt.restore` fire at the
//! respective boundaries for crash testing.

use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};

use orion_core::failpoint;
use orion_core::RunCheckpoint;
use orion_sim::snapshot::{ByteReader, ByteWriter};
use orion_sim::SnapshotError;

use crate::hash::{fnv1a64_words, to_hex};
use crate::io::write_atomic;

/// Leading magic bytes of every checkpoint file.
pub const CKPT_MAGIC: [u8; 4] = *b"ORCK";

/// Version of the checkpoint *file* framing (magic, fingerprint,
/// checksum). The run-state payload is versioned separately by
/// [`orion_core::RUN_CHECKPOINT_VERSION`]. Version 2: the footer is
/// FNV-1a over little-endian words instead of bytes, so a version-1
/// file is a typed [`CkptError::WrongVersion`] (cycle-0 replay).
pub const CKPT_SCHEMA_VERSION: u32 = 2;

/// Why a checkpoint file could not be saved or loaded. Every variant
/// is a typed, recoverable condition — corruption of any kind degrades
/// to "no checkpoint" (cycle-0 replay), never a panic.
#[derive(Debug)]
pub enum CkptError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file is shorter than its declared structure.
    Truncated,
    /// The file does not start with [`CKPT_MAGIC`].
    BadMagic,
    /// The file framing has an unknown version.
    WrongVersion(u32),
    /// The footer checksum does not match the file contents.
    ChecksumMismatch,
    /// The file belongs to a different experiment.
    WrongFingerprint {
        /// The fingerprint the caller expected.
        expected: u64,
        /// The fingerprint stamped in the file.
        found: u64,
    },
    /// The framing is intact but the run-state payload is not.
    Payload(SnapshotError),
    /// An armed failpoint injected this failure (crash testing).
    Injected(failpoint::FailpointError),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            CkptError::Truncated => write!(f, "checkpoint file truncated"),
            CkptError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CkptError::WrongVersion(v) => write!(f, "unknown checkpoint file version {v}"),
            CkptError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CkptError::WrongFingerprint { expected, found } => write!(
                f,
                "checkpoint belongs to a different experiment \
                 (expected fingerprint {}, found {})",
                to_hex(*expected),
                to_hex(*found)
            ),
            CkptError::Payload(e) => write!(f, "checkpoint payload invalid: {e}"),
            CkptError::Injected(e) => write!(f, "{e}"),
        }
    }
}

impl Error for CkptError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CkptError::Io(e) => Some(e),
            CkptError::Payload(e) => Some(e),
            CkptError::Injected(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> CkptError {
        CkptError::Io(e)
    }
}

/// The canonical on-disk location for a cell's checkpoint under a
/// cache directory: `<cache_dir>/ckpt/<fingerprint-hex>.ckpt`.
pub fn checkpoint_path(cache_dir: &Path, fingerprint: u64) -> PathBuf {
    cache_dir
        .join("ckpt")
        .join(format!("{}.ckpt", to_hex(fingerprint)))
}

/// Encodes a checkpoint into the framed byte form (shared by
/// [`save_checkpoint`] and the tests that corrupt files surgically).
pub fn encode_checkpoint(fingerprint: u64, ck: &RunCheckpoint) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_checkpoint_into(&mut buf, fingerprint, ck);
    buf
}

/// Replaces `buf`'s contents with exactly [`encode_checkpoint`]'s
/// bytes, keeping its capacity: the payload is written in place behind
/// a patched length and checksummed in one pass over the slice.
pub fn encode_checkpoint_into(buf: &mut Vec<u8>, fingerprint: u64, ck: &RunCheckpoint) {
    let mut w = ByteWriter::from_vec(std::mem::take(buf));
    w.bytes(&CKPT_MAGIC);
    w.u32(CKPT_SCHEMA_VERSION);
    w.u64(fingerprint);
    let len_at = w.len();
    w.u64(0);
    ck.encode(&mut w);
    w.set_u64(len_at, (w.len() - len_at - 8) as u64);
    let sum = fnv1a64_words(w.as_slice());
    w.u64(sum);
    *buf = w.into_vec();
}

/// Decodes framed checkpoint bytes, validating magic, version,
/// checksum and owner before touching the payload.
///
/// # Errors
///
/// A typed [`CkptError`] for any malformation; no byte sequence
/// panics.
pub fn decode_checkpoint(bytes: &[u8], fingerprint: u64) -> Result<RunCheckpoint, CkptError> {
    if bytes.len() < 8 {
        return Err(CkptError::Truncated);
    }
    let (body, footer) = bytes.split_at(bytes.len() - 8);
    // Magic and version are read first, because the version decides
    // how the footer is computed: an older file is version skew, not
    // corruption. Nothing past them is trusted until the checksum says
    // the bytes are the ones that were written.
    let mut r = ByteReader::new(body);
    let magic = r.take_bytes(4).map_err(|_| CkptError::Truncated)?;
    if magic != CKPT_MAGIC {
        return Err(CkptError::BadMagic);
    }
    let version = r.u32().map_err(|_| CkptError::Truncated)?;
    if version != CKPT_SCHEMA_VERSION {
        return Err(CkptError::WrongVersion(version));
    }
    let mut f = ByteReader::new(footer);
    let declared = f.u64().map_err(|_| CkptError::Truncated)?;
    if fnv1a64_words(body) != declared {
        return Err(CkptError::ChecksumMismatch);
    }
    let found = r.u64().map_err(|_| CkptError::Truncated)?;
    if found != fingerprint {
        return Err(CkptError::WrongFingerprint {
            expected: fingerprint,
            found,
        });
    }
    let len = r.count(1).map_err(|_| CkptError::Truncated)?;
    let payload = r.take_bytes(len).map_err(|_| CkptError::Truncated)?;
    if !r.is_empty() {
        return Err(CkptError::Payload(SnapshotError::Invalid("trailing bytes")));
    }
    RunCheckpoint::from_bytes(payload).map_err(CkptError::Payload)
}

/// Persists a checkpoint atomically at `path`, stamped with its
/// owner's `fingerprint`. Parent directories are created as needed.
/// Failpoint: `ckpt.write`.
///
/// # Errors
///
/// [`CkptError::Io`] from the filesystem; [`CkptError::Injected`] when
/// the `ckpt.write` failpoint is armed with the `error` action.
pub fn save_checkpoint(path: &Path, fingerprint: u64, ck: &RunCheckpoint) -> Result<(), CkptError> {
    failpoint::hit("ckpt.write").map_err(CkptError::Injected)?;
    persist(path, &encode_checkpoint(fingerprint, ck))
}

/// Writes encoded checkpoint `bytes` durably at `path`, creating its
/// parent directories: the persistence half of [`save_checkpoint`],
/// which the hook's writer thread runs off the simulating thread.
pub(crate) fn persist(path: &Path, bytes: &[u8]) -> Result<(), CkptError> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    write_atomic(path, bytes)?;
    Ok(())
}

/// Loads and validates the checkpoint at `path`, rejecting anything
/// torn, corrupted, version-skewed or owned by a different experiment.
/// Failpoint: `ckpt.restore`.
///
/// # Errors
///
/// A typed [`CkptError`]; a missing file surfaces as
/// [`CkptError::Io`] with [`std::io::ErrorKind::NotFound`].
pub fn load_checkpoint(path: &Path, fingerprint: u64) -> Result<RunCheckpoint, CkptError> {
    failpoint::hit("ckpt.restore").map_err(CkptError::Injected)?;
    let bytes = std::fs::read(path)?;
    decode_checkpoint(&bytes, fingerprint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_core::RunPhase;

    fn sample() -> RunCheckpoint {
        RunCheckpoint {
            phase: RunPhase::Measure,
            cycle: 4096,
            measure_start: 1000,
            tagged_budget: 250,
            backlog_samples: vec![1, 2, 3],
            rng: [9, 8, 7, 6],
            traffic_cursors: vec![0, 4],
            trace_cursor: 0,
            auditor_energy: 3.5e-8,
            net: (0..u8::MAX).collect(),
        }
    }

    fn temp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("orion-ckpt-file-{}-{tag}.ckpt", std::process::id()))
    }

    #[test]
    fn save_load_roundtrip() {
        let path = temp("roundtrip");
        let ck = sample();
        save_checkpoint(&path, 0xabcd, &ck).unwrap();
        assert_eq!(load_checkpoint(&path, 0xabcd).unwrap(), ck);
        assert!(!path.with_extension("ckpt.tmp").exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_not_found() {
        let err = load_checkpoint(Path::new("/nonexistent/x.ckpt"), 1).unwrap_err();
        match err {
            CkptError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
            other => panic!("expected Io(NotFound), got {other:?}"),
        }
    }

    #[test]
    fn wrong_owner_rejected() {
        let bytes = encode_checkpoint(7, &sample());
        assert!(matches!(
            decode_checkpoint(&bytes, 8),
            Err(CkptError::WrongFingerprint {
                expected: 8,
                found: 7
            })
        ));
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        // The checksum must catch any one-byte flip anywhere in the
        // file — including in raw payload regions the structural
        // validation cannot vet.
        let good = encode_checkpoint(42, &sample());
        assert!(decode_checkpoint(&good, 42).is_ok());
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x01;
            assert!(
                decode_checkpoint(&bad, 42).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let good = encode_checkpoint(42, &sample());
        for cut in 0..good.len() {
            assert!(
                decode_checkpoint(&good[..cut], 42).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
        // Trailing garbage shifts the footer off the real checksum.
        let mut long = good.clone();
        long.push(0);
        assert!(decode_checkpoint(&long, 42).is_err());
    }

    #[test]
    fn version_skew_rejected() {
        // A well-formed frame under another version word, its footer
        // recomputed: only the version check can reject it.
        let mut bytes = encode_checkpoint(42, &sample());
        let end = bytes.len() - 8;
        bytes[4..8].copy_from_slice(&(CKPT_SCHEMA_VERSION + 1).to_le_bytes());
        let sum = fnv1a64_words(&bytes[..end]);
        bytes[end..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            decode_checkpoint(&bytes, 42),
            Err(CkptError::WrongVersion(v)) if v == CKPT_SCHEMA_VERSION + 1
        ));
    }

    /// `encode_checkpoint(42, &sample())` as the version-1 framing
    /// wrote it (byte-wise FNV-1a footer), recorded from that build.
    const V1_FRAME_HEX: &str = concat!(
        "4f52434b010000002a000000000000008c010000000000000200000001001000",
        "0000000000e803000000000000fa000000000000000300000000000000010000",
        "0000000000020000000000000003000000000000000900000000000000080000",
        "0000000000070000000000000006000000000000000200000000000000000000",
        "000000000004000000000000000000000000000000b37aea055dca623eff0000",
        "0000000000000102030405060708090a0b0c0d0e0f101112131415161718191a",
        "1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a",
        "3b3c3d3e3f404142434445464748494a4b4c4d4e4f505152535455565758595a",
        "5b5c5d5e5f606162636465666768696a6b6c6d6e6f707172737475767778797a",
        "7b7c7d7e7f808182838485868788898a8b8c8d8e8f909192939495969798999a",
        "9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9ba",
        "bbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9da",
        "dbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fa",
        "fbfcfdfe9c69281a6465951e",
    );

    #[test]
    fn frame_differs_from_version_1_only_in_version_and_footer() {
        let v1: Vec<u8> = (0..V1_FRAME_HEX.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&V1_FRAME_HEX[i..i + 2], 16).unwrap())
            .collect();
        let v2 = encode_checkpoint(42, &sample());
        assert_eq!(v2.len(), v1.len(), "same layout, same size");
        let end = v1.len() - 8;
        assert_eq!(v2[..4], v1[..4], "magic");
        assert_eq!(v1[4..8], 1u32.to_le_bytes());
        assert_eq!(v2[4..8], CKPT_SCHEMA_VERSION.to_le_bytes());
        assert_eq!(v2[8..end], v1[8..end], "owner, length and payload");
        assert_eq!(v1[end..], crate::hash::fnv1a64(&v1[..end]).to_le_bytes());
        assert_eq!(v2[end..], fnv1a64_words(&v2[..end]).to_le_bytes());
        // A file an older build left behind is version skew, which
        // every caller turns into a cycle-0 replay.
        assert!(matches!(
            decode_checkpoint(&v1, 42),
            Err(CkptError::WrongVersion(1))
        ));
    }

    #[test]
    fn checkpoint_path_is_content_addressed() {
        let p = checkpoint_path(Path::new("/cache"), 0xdead_beef);
        assert_eq!(
            p,
            Path::new("/cache/ckpt/00000000deadbeef.ckpt"),
            "layout is part of the on-disk contract"
        );
    }
}
