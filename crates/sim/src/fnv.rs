//! Word-wise 64-bit FNV-1a: the one hash behind every dispatch
//! fingerprint and replica digest in the workspace.
//!
//! A digest is compared across replicas and across runs, so it must be
//! a pure function of the integers fed to it (determinism contract,
//! GS-D05). [`Fnv64::mix`] takes a `u64` and nothing else: a float can
//! reach a digest only through an explicit `to_bits`, never through an
//! accumulation whose rounding depends on the order of its terms.
//! `clippy::float_arithmetic` is denied here and in every function that
//! builds digest input.

/// A running word-wise FNV-1a hash: each [`mix`](Fnv64::mix) XORs one
/// 64-bit word into the state and multiplies it by the FNV prime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

#[deny(clippy::float_arithmetic)]
impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The empty hash (the FNV offset basis).
    pub const fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// Fold one word into the hash.
    #[inline]
    pub fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(Self::PRIME);
    }

    /// The hash of every word mixed so far.
    #[inline]
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}
