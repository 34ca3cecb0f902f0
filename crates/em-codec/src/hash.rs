//! FNV-1a 64-bit hashing, shared by every subsystem that places data by
//! key.
//!
//! Three layers hash the *same* canonical strings and must agree on every
//! bit: `em-serve` picks a cache shard for a canonical request key,
//! `em-route` picks the owning backend for that identical key on its
//! consistent-hash ring, and `em-batch` fingerprints inputs and shard
//! files. The hash therefore lives here, below all of them, next to the
//! canonical-JSON key it is applied to ([`crate::explain::cache_key`]).
//! FNV-1a is not collision-resistant against adversaries — collisions are
//! handled by the consumers (the cache stores full keys; the ring only
//! loses placement balance) — but it is fully specified in a dozen lines,
//! stable across platforms and processes, and needs no dependency.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64-bit hasher for streaming input.
#[derive(Debug, Clone)]
pub struct Fnv1a64 {
    state: u64,
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64::new()
    }
}

impl Fnv1a64 {
    /// Starts a hash at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a64 { state: FNV_OFFSET }
    }

    /// Folds `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// The hash of everything folded in so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot FNV-1a 64-bit hash of a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_fnv1a_vectors() {
        // Reference values from the FNV specification.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a64(b"hello"), 0xa430_d846_80aa_bd0b);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv1a64::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }
}
