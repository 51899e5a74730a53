//! Stable hashing for determinism checks.
//!
//! `std`'s default hasher is randomly keyed per process and its algorithm
//! is unspecified, which is exactly what a reproducibility digest must not
//! be. This is FNV-1a/64 — fixed constants, no state outside the
//! accumulator — so a digest is comparable across runs, processes, machines
//! and compiler releases. It is for change *detection*, not a security
//! boundary. One accumulator serves every digest in the workspace (trace
//! hashes, the run store's scenario digest, fluid-run digests); each caller
//! pins its own byte order by what it passes to [`Fnv64::write_bytes`].

/// FNV-1a, 64-bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

// The methods are `#[inline]` because the trace hash calls `write_u64` a
// dozen times per capture record from another crate; out of line, each call
// is a separate byte loop and the per-record hash cost doubles.
impl Fnv64 {
    /// A fresh accumulator at the standard offset basis.
    #[inline]
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Absorb raw bytes.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb a `u64` (little-endian).
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorb an `f64` bit pattern — exact, not approximate: two digests
    /// agree iff every hashed float is bit-identical.
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The accumulated digest.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c.
        let mut h = Fnv64::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn distinguishes_nearby_floats_and_orders() {
        let digest = |vals: &[f64]| {
            let mut h = Fnv64::new();
            for &v in vals {
                h.write_f64(v);
            }
            h.finish()
        };
        assert_ne!(digest(&[1.0, 2.0]), digest(&[2.0, 1.0]));
        assert_ne!(digest(&[1.0]), digest(&[1.0 + f64::EPSILON]));
        assert_eq!(digest(&[0.1 + 0.2]), digest(&[0.1 + 0.2]));
        // +0.0 and -0.0 are different bit patterns, hence different digests.
        assert_ne!(digest(&[0.0]), digest(&[-0.0]));
    }
}
