//! The one bit-set encoding the system uses — a file's delivered
//! subscriber ids in the receipt store and its `Delivered` records, the
//! delivery index's postings and the subscribers a direct send still
//! waits on. Its bytes are that record form, and binary operands are
//! byte slices in it.

use std::fmt;

/// A set of `u32` indices: bit `i % 8` of byte `i / 8`, absent bytes
/// read as 0. Nothing but the bytes, so it is as large as a `Vec<u8>`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bitmap(Vec<u8>);

// `#[inline]` on what receipts and acks run per pair: without it a call
// from another crate is not inlined.
impl Bitmap {
    /// Is bit `i` set? Bits past the last byte read as clear.
    #[inline]
    pub fn get(&self, i: u32) -> bool {
        self.0
            .get(i as usize / 8)
            .is_some_and(|b| b & (1 << (i % 8)) != 0)
    }

    /// Set bit `i`, growing the bytes to hold it; true if it was clear.
    #[inline]
    pub fn set(&mut self, i: u32) -> bool {
        let byte = i as usize / 8;
        if self.0.len() <= byte {
            self.0.resize(byte + 1, 0);
        }
        let bit = 1 << (i % 8);
        let newly = self.0[byte] & bit == 0;
        self.0[byte] |= bit;
        newly
    }

    /// Clear bit `i`; true if it was set. The length stays.
    #[inline]
    pub fn clear(&mut self, i: u32) -> bool {
        let bit = 1 << (i % 8);
        match self.0.get_mut(i as usize / 8) {
            Some(byte) if *byte & bit != 0 => {
                *byte &= !bit;
                true
            }
            _ => false,
        }
    }

    /// OR `other` in, growing to its length.
    #[inline]
    pub fn or(&mut self, other: &[u8]) {
        if self.0.len() < other.len() {
            self.0.resize(other.len(), 0);
        }
        for (mine, theirs) in self.0.iter_mut().zip(other) {
            *mine |= theirs;
        }
    }

    /// Clear every bit that is set in `other`; the length stays.
    #[inline]
    pub fn and_not(&mut self, other: &[u8]) {
        for (mine, theirs) in self.0.iter_mut().zip(other) {
            *mine &= !theirs;
        }
    }

    /// Drop trailing zero bytes: the shortest bytes for the same set.
    #[inline]
    pub fn trim(&mut self) {
        while self.0.last() == Some(&0) {
            self.0.pop();
        }
    }

    /// Clear every bit at or past `len`, keeping at most the bytes that
    /// `len` bits need.
    pub fn truncate(&mut self, len: u32) {
        self.0.truncate((len as usize).div_ceil(8));
        let spare = len % 8;
        if spare != 0 {
            if let Some(last) = self.0.get_mut(len as usize / 8) {
                *last &= 0xFF >> (8 - spare);
            }
        }
    }

    /// Number of set bits.
    #[inline]
    pub fn count(&self) -> u32 {
        self.0.iter().map(|b| b.count_ones()).sum()
    }

    /// No bit set (whatever the byte length).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&b| b == 0)
    }

    /// The set bits, ascending.
    #[inline]
    pub fn ones(&self) -> impl Iterator<Item = u32> + '_ {
        self.0.iter().enumerate().flat_map(|(byte, &b)| {
            (0..8u32)
                .filter(move |k| b & (1 << k) != 0)
                .map(move |k| byte as u32 * 8 + k)
        })
    }

    /// The wire/record form.
    pub fn bytes(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bitmap {
    fn from(bytes: Vec<u8>) -> Bitmap {
        Bitmap(bytes)
    }
}

/// Two hex digits per byte, in byte order.
impl fmt::LowerHex for Bitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.iter().try_for_each(|b| write!(f, "{b:02x}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::{self, Runner, Shrink};
    use crate::{prop_assert, prop_assert_eq, Rng};
    use std::collections::BTreeSet;

    #[test]
    fn layout_is_lsb_first_and_absent_bytes_read_clear() {
        let mut b = Bitmap::default();
        assert!(b.set(0) && b.set(9) && !b.set(9));
        assert_eq!(b.bytes(), [0b0000_0001, 0b0000_0010]);
        assert!(b.get(9) && !b.get(8) && !b.get(1_000));
        assert!(!b.clear(1_000) && !b.clear(8));
        assert_eq!(format!("{b:x}"), "0102");
        assert_eq!(b.ones().collect::<Vec<_>>(), [0, 9]);
    }

    #[derive(Clone, Debug)]
    enum Op {
        Set(u32),
        Clear(u32),
        Or(Vec<u8>),
        AndNot(Vec<u8>),
        Trim,
        Truncate(u32),
    }

    impl Shrink for Op {}

    fn op(rng: &mut Rng) -> Op {
        // indices up to 40 span five bytes; a third of the operand bytes
        // are full, so `or` and `and_not` often move whole bytes
        let bytes = |rng: &mut Rng| {
            prop::vec_of(rng, 0..=5, |r| match r.gen_range(0u32..3) {
                0 => 0xFF,
                _ => r.gen_range(0u32..256) as u8,
            })
        };
        match rng.gen_range(0u32..9) {
            0..=2 => Op::Set(rng.gen_range(0u32..40)),
            8 => Op::Clear(rng.gen_range(0u32..44)),
            3 => Op::Or(bytes(rng)),
            4 => Op::AndNot(bytes(rng)),
            5 => Op::Trim,
            _ => Op::Truncate(rng.gen_range(0u32..44)),
        }
    }

    fn set_of(bytes: &[u8]) -> BTreeSet<u32> {
        (0..bytes.len() as u32 * 8)
            .filter(|&i| bytes[i as usize / 8] & (1 << (i % 8)) != 0)
            .collect()
    }

    /// Every operation against a `BTreeSet<u32>` and an expected byte
    /// length: the set a bitmap holds, and the exact bytes it would put
    /// on the wire, after every step of a random sequence from a
    /// fixed-width start.
    #[test]
    fn prop_bitmap_matches_a_set_oracle() {
        Runner::new("bitmap_matches_a_set_oracle").cases(512).run(
            |rng| (rng.gen_range(0u32..20), prop::vec_of(rng, 0..=24, op)),
            |(width, ops)| {
                let mut len = (*width as usize).div_ceil(8);
                let mut bits = Bitmap::from(vec![0; len]);
                let mut oracle: BTreeSet<u32> = BTreeSet::new();
                for op in ops {
                    match op {
                        Op::Set(i) => {
                            prop_assert_eq!(bits.set(*i), oracle.insert(*i));
                            len = len.max(*i as usize / 8 + 1);
                        }
                        Op::Clear(i) => {
                            prop_assert_eq!(bits.clear(*i), oracle.remove(i));
                        }
                        Op::Or(other) => {
                            bits.or(other);
                            oracle.extend(set_of(other));
                            len = len.max(other.len());
                        }
                        Op::AndNot(other) => {
                            bits.and_not(other);
                            let gone = set_of(other);
                            oracle.retain(|i| !gone.contains(i));
                        }
                        Op::Trim => {
                            bits.trim();
                            len = oracle.last().map_or(0, |&i| i as usize / 8 + 1);
                        }
                        Op::Truncate(n) => {
                            bits.truncate(*n);
                            oracle.retain(|&i| i < *n);
                            len = len.min((*n as usize).div_ceil(8));
                        }
                    }
                    let ones: Vec<u32> = bits.ones().collect();
                    prop_assert_eq!(&ones, &oracle.iter().copied().collect::<Vec<_>>());
                    prop_assert_eq!(bits.count() as usize, oracle.len());
                    prop_assert_eq!(bits.is_empty(), oracle.is_empty());
                    prop_assert_eq!(bits.bytes().len(), len, "after {:?}", op);
                    for i in 0..48 {
                        prop_assert!(bits.get(i) == oracle.contains(&i), "bit {}", i);
                    }
                }
                Ok(())
            },
        );
    }
}
