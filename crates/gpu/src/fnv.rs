//! FNV-1a, 64-bit, streamed: the workspace's one stable hash. Kernel
//! sources, machine fingerprints, registry keys and plan fingerprints all
//! feed it, and registry file names are made of its values, so its output
//! must not change across processes or builds (`DefaultHasher` guarantees
//! neither).

/// A running FNV-1a hash.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The hash of `bytes` alone.
    #[must_use]
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.write(bytes);
        h.finish()
    }

    /// Feed `bytes`, one at a time.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Feed `v` as eight little-endian bytes, whatever the platform.
    pub fn write_usize(&mut self, v: usize) {
        self.write(&(v as u64).to_le_bytes());
    }

    /// Feed `s`'s length, then its bytes (so no two strings in a row can
    /// run together).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }

    /// The hash of everything fed so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    /// The hash of no bytes.
    fn default() -> Self {
        Fnv(Self::OFFSET)
    }
}
