//! The crate's one hash map type for message-id keys.

use std::collections::HashMap;

use crate::graph::MessageId;

/// SplitMix64 finalizer (the simulator snapshot fingerprint uses the same).
#[inline]
pub(crate) fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64-based hasher for id-keyed tables. Message ids are sequence
/// numbers; SipHash resistance is wasted on them, and the wait graph's id
/// index sits on the detection hot path.
#[derive(Default, Clone)]
pub(crate) struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix(self.0 ^ b as u64);
        }
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = mix(self.0 ^ n);
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.0 = mix(self.0 ^ n as u64);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.0 = mix(self.0 ^ n as u64);
    }
}

/// A map keyed by message id, hashed with [`IdHasher`].
pub(crate) type IdMap<V> = HashMap<MessageId, V, std::hash::BuildHasherDefault<IdHasher>>;
