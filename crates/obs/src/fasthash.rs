//! A fast, non-cryptographic hasher for the taint engine's internal maps.
//!
//! The taint interner's edge map and union memo, the tag index maps, and
//! the metrics registry's name indexes are hit on every append, every union
//! miss, every source-label event, and every counter registration. Their keys are small
//! fixed-width tuples or short strings the engine itself constructs, so
//! SipHash's flood resistance buys nothing here while costing a measurable
//! slice of the replay-side labeling overhead. This is a word-at-a-time
//! multiply-rotate mix in the spirit of the compiler's `FxHasher`.

use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-mixed bits (the golden-ratio-derived constant
/// used by several multiply-shift hashers).
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// Word-at-a-time multiply-rotate hasher. Not DoS-resistant; only for maps
/// whose keys the engine itself constructs.
#[derive(Debug, Default)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// A `HashMap` keyed with [`FastHasher`].
pub type FastMap<K, V> =
    std::collections::HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_small_keys_get_distinct_hashes() {
        let hash = |f: fn(&mut FastHasher)| {
            let mut h = FastHasher::default();
            f(&mut h);
            h.finish()
        };
        assert_ne!(hash(|h| h.write_u32(1)), hash(|h| h.write_u32(2)));
        assert_ne!(hash(|h| h.write(b"a")), hash(|h| h.write(b"b")));
        assert_ne!(hash(|h| h.write(b"abcdefgh1")), hash(|h| h.write(b"abcdefgh2")));
    }

    #[test]
    fn map_round_trips() {
        let mut m: FastMap<(u32, u32), u32> = FastMap::default();
        for i in 0..1000u32 {
            m.insert((i, i * 7), i);
        }
        for i in 0..1000u32 {
            assert_eq!(m.get(&(i, i * 7)), Some(&i));
        }
    }
}
