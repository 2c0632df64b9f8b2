//! Binary state-snapshot primitives.
//!
//! The checkpoint/restore layer (`orion-ckpt`) needs the *complete*
//! deterministic simulation state — flit arena, ring FIFOs, router
//! VC/arbiter/credit state, energy ledger, event wheels, cycle counter
//! — in a stable byte form, so a resumed run is bit-identical to an
//! uninterrupted one. This module provides the low-level codec
//! ([`ByteWriter`] / [`ByteReader`], little-endian, length-prefixed)
//! and the typed [`SnapshotError`]; each stateful module encodes its
//! own private fields with these primitives, and
//! [`Network::snapshot`](crate::network::Network::snapshot) /
//! [`Network::restore`](crate::network::Network::restore) orchestrate
//! the whole-network payload.
//!
//! The payload deliberately excludes everything reconstructible from
//! configuration (specs, power models, wiring, route caches) and everything that is per-cycle scratch (drain buffers,
//! stage scratch): a snapshot is taken and applied only at a cycle
//! boundary, where scratch state is dead.
//!
//! Framing (magic, schema version, checksum, fingerprint) is the
//! checkpoint *file* format's job, not this module's: these payloads
//! are raw, and a corrupted payload surfaces as a typed
//! [`SnapshotError`] — never a panic — because every decoded length,
//! index and tag is validated against the network shape it is applied
//! to.

use std::error::Error;
use std::fmt;

/// Version byte leading every [`Network`](crate::network::Network)
/// snapshot payload, bumped on any layout change.
pub const SNAPSHOT_VERSION: u32 = 4;

/// Error decoding or applying a state snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The payload ended before the declared structure was complete.
    Truncated,
    /// The payload leads with an unknown snapshot version.
    WrongVersion(u32),
    /// A decoded value is outside the valid range for its field.
    Invalid(&'static str),
    /// The payload's shape does not match the network it is applied to
    /// (different topology, router family or buffer geometry).
    Mismatch(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot payload truncated"),
            SnapshotError::WrongVersion(v) => {
                write!(f, "unknown snapshot payload version {v}")
            }
            SnapshotError::Invalid(what) => write!(f, "invalid snapshot field: {what}"),
            SnapshotError::Mismatch(what) => {
                write!(f, "snapshot does not match this network: {what}")
            }
        }
    }
}

impl Error for SnapshotError {}

/// Little-endian binary writer backing
/// [`Network::snapshot`](crate::network::Network::snapshot) and the
/// checkpoint file format.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// A writer that appends into `buf`, emptied first but keeping its
    /// capacity — so a buffer reused across snapshots stops allocating
    /// once it has grown to the image size.
    pub fn from_vec(mut buf: Vec<u8>) -> ByteWriter {
        buf.clear();
        ByteWriter { buf }
    }

    /// Overwrites the 8 bytes at `at` with `v`, little-endian: patches
    /// a length prefix written as a placeholder before its payload.
    ///
    /// # Panics
    ///
    /// If `at + 8` exceeds the bytes written so far.
    pub fn set_u64(&mut self, at: usize, v: u64) {
        self.buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u128` as two little-endian `u64` words (low, high).
    pub fn u128(&mut self, v: u128) {
        self.u64(v as u64);
        self.u64((v >> 64) as u64);
    }

    /// Appends a `usize` as a `u64` (platform-independent layout).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` via its IEEE-754 bit pattern (exact round-trip,
    /// the property the bit-identity guarantee rests on).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends raw bytes with no length prefix.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the payload.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian binary reader over a snapshot payload. Every read is
/// bounds-checked and returns [`SnapshotError::Truncated`] instead of
/// panicking on short input.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a payload for reading from the start.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool (rejecting any byte other than 0 or 1).
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Invalid("bool")),
        }
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a `u128` stored as two `u64` words (low, high).
    pub fn u128(&mut self) -> Result<u128, SnapshotError> {
        let lo = self.u64()?;
        let hi = self.u64()?;
        Ok((lo as u128) | ((hi as u128) << 64))
    }

    /// Reads a `usize` stored as `u64`, rejecting values that do not
    /// fit the platform.
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Invalid("usize overflow"))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads `n` raw bytes (the counterpart of [`ByteWriter::bytes`]).
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        self.take(n)
    }

    /// Reads a `usize` count and sanity-checks it against the bytes
    /// actually remaining (each counted element needs at least
    /// `min_bytes_each`), so a corrupted length field fails fast
    /// instead of driving a giant allocation.
    pub fn count(&mut self, min_bytes_each: usize) -> Result<usize, SnapshotError> {
        let n = self.usize()?;
        if n.saturating_mul(min_bytes_each.max(1)) > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_primitives() {
        let mut w = ByteWriter::new();
        w.u8(0xAB);
        w.bool(true);
        w.bool(false);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.u128((u128::MAX >> 1) - 7);
        w.usize(123_456);
        w.f64(-0.1);
        w.f64(f64::NAN);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.u128().unwrap(), (u128::MAX >> 1) - 7);
        assert_eq!(r.usize().unwrap(), 123_456);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.1f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert!(r.is_empty());
    }

    #[test]
    fn reused_buffer_is_emptied_and_patchable() {
        let mut w = ByteWriter::from_vec(vec![0xEE; 64]);
        assert!(w.is_empty(), "from_vec starts from an empty payload");
        w.u8(7);
        w.u64(0);
        w.u32(9);
        w.set_u64(1, 0x0102_0304_0506_0708);
        let mut r = ByteReader::new(w.as_slice());
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), 0x0102_0304_0506_0708);
        assert_eq!(r.u32().unwrap(), 9);
        assert!(r.is_empty());
        assert!(w.into_vec().capacity() >= 64, "capacity is kept");
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut w = ByteWriter::new();
        w.u32(7);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u64(), Err(SnapshotError::Truncated));
        // The failed read consumed nothing; a fitting read still works.
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u8(), Err(SnapshotError::Truncated));
    }

    #[test]
    fn bad_bool_rejected() {
        let bytes = [2u8];
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.bool(), Err(SnapshotError::Invalid("bool")));
    }

    #[test]
    fn count_rejects_absurd_lengths() {
        let mut w = ByteWriter::new();
        w.usize(usize::MAX / 2);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.count(8), Err(SnapshotError::Truncated));
    }
}
