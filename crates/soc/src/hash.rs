//! Content hashing for cache keys.
//!
//! The serving layer addresses plans by content: a plan cell is keyed by
//! *what was solved* — the device model, the application, the profiling
//! table — not by names, so two requests agree on a cached plan exactly
//! when a cold solve would have produced the same answer for both.
//!
//! Hashes are computed over the canonical `serde_json` encoding of the
//! value. serde_json serializes struct fields in declaration order and
//! formats `f64`s shortest-round-trip, so the encoding — and therefore the
//! hash — is deterministic across processes and platforms for any value
//! that round-trips. FNV-1a is used rather than `std`'s `DefaultHasher`
//! because the latter's algorithm is explicitly unspecified and may change
//! between Rust releases, which would silently invalidate persisted plan
//! artifacts.
//!
//! [`KeyHasher`] is the in-memory side: the `HashMap` hasher for keys the
//! program builds itself (packed indices, content hashes), where SipHash's
//! flood resistance buys nothing and its rounds dominate a lookup.

use serde::Serialize;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a 64-bit hash of a byte string. Stable across processes,
/// platforms, and Rust releases.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Content hash of any serializable value: FNV-1a 64 over its canonical
/// JSON encoding.
///
/// # Panics
///
/// Panics if the value fails to serialize (only possible for types whose
/// `Serialize` impl can error, e.g. maps with non-string keys).
pub fn json_hash<T: Serialize>(value: &T) -> u64 {
    let encoded = serde_json::to_string(value).expect("value must serialize to JSON");
    fnv1a64(encoded.as_bytes())
}

/// Multiplicative hasher for `HashMap` keys the program builds itself:
/// packed indices and content hashes, never strings a client sent.
///
/// Each integer write XORs the value into the state and multiplies by
/// the 64-bit golden-ratio constant. A product bit depends only on the
/// key bits at or below it while the table picks buckets by the low
/// bits, so `finish` rotates the top 16, which every input bit reaches,
/// down: keys that share their low bits still spread over the table. It
/// has no seed, so it offers no defence against chosen keys; use it only
/// where an outsider cannot pick them.
#[derive(Debug, Default, Clone, Copy)]
pub struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(16)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    /// One multiply for a 32-bit field; `write_i32` reaches it through
    /// `Hasher`'s default.
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    /// Two multiplies for a 128-bit key instead of sixteen byte writes.
    fn write_u128(&mut self, n: u128) {
        self.write_u64(n as u64);
        self.write_u64((n >> 64) as u64);
    }
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
    fn json_hash_is_deterministic_and_discriminating() {
        let a = crate::devices::pixel_7a();
        let b = crate::devices::pixel_7a();
        assert_eq!(json_hash(&a), json_hash(&b));
        assert_ne!(json_hash(&a), json_hash(&crate::devices::oneplus_11()));
    }

    #[test]
    fn key_hasher_writes_one_word_per_multiply_and_spreads_high_bits() {
        use std::hash::Hasher;
        let hash = |write: &dyn Fn(&mut KeyHasher)| {
            let mut h = KeyHasher::default();
            write(&mut h);
            h.finish()
        };
        assert_eq!(hash(&|h| h.write_u32(7)), hash(&|h| h.write_u64(7)));
        assert_eq!(
            hash(&|h| h.write_i32(-1)),
            hash(&|h| h.write_u64(u64::from(u32::MAX)))
        );
        let wide = (3u128 << 64) | 5;
        assert_eq!(
            hash(&|h| h.write_u128(wide)),
            hash(&|h| {
                h.write_u64(5);
                h.write_u64(3);
            })
        );
        // Keys that differ only in their top bits still differ in the low
        // bits a table picks its bucket by.
        let buckets: std::collections::HashSet<u64> = (0..64u64)
            .map(|i| hash(&|h| h.write_u64(i << 50)) & 0xffff)
            .collect();
        assert_eq!(buckets.len(), 64);
    }

    #[test]
    fn spec_content_hash_tracks_spec_changes() {
        let soc = crate::devices::jetson_orin_nano();
        let lp = crate::devices::jetson_orin_nano_lp();
        assert_eq!(soc.content_hash(), soc.clone().content_hash());
        assert_ne!(soc.content_hash(), lp.content_hash());
    }
}
