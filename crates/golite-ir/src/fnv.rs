//! 64-bit FNV-1a, the one dependency-free hash of the workspace.
//!
//! Module shapes, warm-session channel records, stable diagnostic IDs,
//! serve cache keys, batch journal fingerprints, backoff jitter and fault
//! decisions all derive from this function, so one hash family (and one
//! implementation) backs every derived identity. Fingerprints feed
//! structure, never `Debug` strings: the [`Fnv`] feeders length-prefix
//! strings and encode integers little-endian, so two different field
//! sequences cannot collide by concatenation.

/// The FNV-1a 64-bit offset basis.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from the state `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// An incremental FNV-1a hasher with typed, structural feeders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// A hasher at the offset basis.
    pub const fn new() -> Fnv {
        Fnv(OFFSET)
    }

    /// Raw bytes, exactly as given (no length prefix).
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv {
        self.0 = fnv(self.0, bytes);
        self
    }

    /// One tag byte (enum discriminants, flags).
    pub fn u8(&mut self, v: u8) -> &mut Fnv {
        self.bytes(&[v])
    }

    /// A `u32`, little-endian.
    pub fn u32(&mut self, v: u32) -> &mut Fnv {
        self.bytes(&v.to_le_bytes())
    }

    /// A `u64`, little-endian.
    pub fn u64(&mut self, v: u64) -> &mut Fnv {
        self.bytes(&v.to_le_bytes())
    }

    /// An `i64`, little-endian two's complement.
    pub fn i64(&mut self, v: i64) -> &mut Fnv {
        self.bytes(&v.to_le_bytes())
    }

    /// A collection size or string length.
    pub fn len(&mut self, n: usize) -> &mut Fnv {
        self.u64(n as u64)
    }

    /// A string, length-prefixed.
    pub fn str(&mut self, s: &str) -> &mut Fnv {
        self.len(s.len()).bytes(s.as_bytes())
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv(OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv(OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn continuation_equals_concatenation() {
        assert_eq!(fnv(fnv(OFFSET, b"foo"), b"bar"), fnv(OFFSET, b"foobar"));
        assert_eq!(
            Fnv::new().bytes(b"foo").bytes(b"bar").finish(),
            fnv(OFFSET, b"foobar")
        );
    }

    #[test]
    fn strings_are_length_prefixed() {
        let a = Fnv::new().str("ab").str("c").finish();
        let b = Fnv::new().str("a").str("bc").finish();
        assert_ne!(a, b);
    }
}
