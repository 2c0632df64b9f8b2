//! Stable hashing shared by the checkpoint file format, the result
//! cache and derived RNG seeds.
//!
//! Two requirements rule out `std::hash`: the hash must be identical
//! across runs, platforms and Rust versions (the default hasher is
//! randomly keyed per process), and it must be cheap to reimplement
//! when checking cache or checkpoint files by hand. Which hash is used
//! where:
//!
//! * [`fnv1a64`] — FNV-1a over bytes — keys everything that names
//!   something: cell fingerprints (the cache key and the checkpoint
//!   owner stamp), derived seeds and the benchmark's digests. It never
//!   changes: a different value would re-key every cache.
//! * `fnv1a64_words` — the same recurrence over little-endian `u64`
//!   words — is the checkpoint file footer (`CKPT_SCHEMA_VERSION` 2),
//!   where it reads megabytes per checkpoint at a word a step.
//! * [`splitmix64`] whitens fingerprints into RNG seeds so that keys
//!   sharing long prefixes still get well-spread seeds.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte string. Stable across platforms.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_step(FNV_OFFSET, bytes)
}

fn fnv1a64_step(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over `bytes` read as little-endian `u64` words, the tail
/// (`len % 8` bytes) folded in byte by byte. Each step — xor a word,
/// multiply by an odd prime — is a bijection of the running state, so
/// changing any one word (hence any single byte) changes the result.
pub(crate) fn fnv1a64_words(bytes: &[u8]) -> u64 {
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    let h = words.fold(FNV_OFFSET, |h, word| {
        let word = u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8 bytes"));
        (h ^ word).wrapping_mul(FNV_PRIME)
    });
    fnv1a64_step(h, tail)
}

/// SplitMix64 finalizer: bijective avalanche over a 64-bit word.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Renders a fingerprint the way cache and checkpoint files store it:
/// 16 lowercase hex digits.
pub fn to_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// Parses a 16-hex-digit fingerprint back to its integer form.
pub fn from_hex(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn word_checksum_is_fnv_over_le_words_then_tail_bytes() {
        // Under 8 bytes there is no whole word: it is plain FNV-1a.
        assert_eq!(fnv1a64_words(b""), fnv1a64(b""));
        assert_eq!(fnv1a64_words(b"foobar"), fnv1a64(b"foobar"));
        // One word, then a byte-wise tail.
        let bytes = b"0123456789";
        let word = u64::from_le_bytes(*b"01234567");
        let by_hand = fnv1a64_step((FNV_OFFSET ^ word).wrapping_mul(FNV_PRIME), b"89");
        assert_eq!(fnv1a64_words(bytes), by_hand);
        assert_ne!(fnv1a64_words(bytes), fnv1a64(bytes), "a different hash");
    }

    #[test]
    fn splitmix_reference_vector() {
        // First output of the canonical SplitMix64 stream seeded 0.
        assert_eq!(splitmix64(0), 0xe220a8397b1dcdaf);
    }

    #[test]
    fn hex_roundtrip() {
        for fp in [0u64, 1, u64::MAX, 0xdead_beef_0123_4567] {
            assert_eq!(from_hex(&to_hex(fp)), Some(fp));
        }
        assert_eq!(from_hex("xyz"), None);
        assert_eq!(from_hex("0123"), None);
    }
}
