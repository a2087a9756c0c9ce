//! FNV-1a as a streaming [`Hasher`], for the hash maps keyed by names
//! this process picks.
//!
//! std's `HashMap` hashes with SipHash-1-3 under a per-process random
//! key. The fabric's endpoint and link tables and the delivery index's
//! feed and endpoint tables are looked up several times per message, and
//! their keys are config names, fabric endpoint names and dense ids:
//! short, few, and chosen by this process. For those, [`FnvHasher`]
//! streams the same FNV-1a as [`fnv1a64`](crate::fnv1a64) — one
//! implementation, the same offset basis and prime, one xor and one
//! multiply per byte — and [`FnvBuildHasher`] plugs it into a map.
//!
//! **Scope: keys this process picks, and nothing else.** FNV-1a is
//! unkeyed, so anyone who can choose keys can compute collisions offline
//! and pile them into one bucket, turning every lookup into a linear
//! scan. A key a remote peer chooses — a name read off the wire, a path
//! a source deposits — keeps std's keyed SipHash.
//!
//! Iteration order of a map under this hasher is fixed by the keys, not
//! random per process; nothing may depend on it any more than on
//! `RandomState`'s.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a 64-bit offset basis.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const PRIME: u64 = 0x100_0000_01b3;

/// Streaming FNV-1a 64: writing a byte slice in any split gives
/// [`fnv1a64`](crate::fnv1a64) of the whole. Integers are hashed as
/// their native-endian bytes (std's default), so a hash is not stable
/// across architectures and must never be persisted.
#[derive(Clone, Copy, Debug)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    #[inline]
    fn default() -> FnvHasher {
        FnvHasher(OFFSET_BASIS)
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds an [`FnvHasher`] per key; the `S` of a map keyed by names
/// this process picks.
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// A `HashMap` under [`FnvBuildHasher`]; build one with `default()`.
pub type FnvHashMap<K, V> = HashMap<K, V, FnvBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv1a64;
    use crate::prop::{self, Runner};
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(key: &T) -> u64 {
        FnvBuildHasher::default().hash_one(key)
    }

    #[test]
    fn streaming_writes_equal_the_one_shot_hash() {
        Runner::new("streaming_writes_equal_the_one_shot_hash")
            .cases(512)
            .run(
                |rng| {
                    let bytes = prop::vec_of(rng, 0..=64, |r| r.gen_range(0u32..256) as u8);
                    let cut = rng.gen_range(0..=bytes.len());
                    (bytes, cut)
                },
                |(bytes, cut)| {
                    let cut = (*cut).min(bytes.len());
                    let mut whole = FnvHasher::default();
                    whole.write(bytes);
                    crate::prop_assert_eq!(whole.finish(), fnv1a64(bytes));
                    let mut split = FnvHasher::default();
                    split.write(&bytes[..cut]);
                    split.write(&bytes[cut..]);
                    crate::prop_assert_eq!(split.finish(), fnv1a64(bytes));
                    Ok(())
                },
            );
    }

    /// Bucket loads of `hashes` under a table of `2^bits` buckets
    /// indexed by the low bits (where hashbrown takes a bucket from)
    /// and by the top seven bits (its per-slot tag).
    fn max_loads(hashes: &[u64], bits: u32) -> (usize, usize) {
        let mut low = vec![0usize; 1 << bits];
        let mut top = [0usize; 128];
        for &h in hashes {
            low[(h & ((1 << bits) - 1)) as usize] += 1;
            top[(h >> 57) as usize] += 1;
        }
        (
            low.into_iter().max().unwrap_or(0),
            top.into_iter().max().unwrap_or(0),
        )
    }

    #[test]
    fn fnv_hasher_distributes_names_and_dense_ids() {
        // the keys the fabric and the index actually see: c000…c199-style
        // endpoint names, dense ids and pairs of them
        let names: Vec<u64> = (0..200).map(|i| hash_of(&format!("c{i:03}"))).collect();
        let ids: Vec<u64> = (0..4096u32).map(|i| hash_of(&i)).collect();
        let pairs: Vec<u64> = (0..64u32)
            .flat_map(|a| (0..64u32).map(move |b| hash_of(&(a, b))))
            .collect();
        for (what, hashes) in [("names", &names), ("ids", &ids), ("pairs", &pairs)] {
            let distinct: HashSet<u64> = hashes.iter().copied().collect();
            assert_eq!(distinct.len(), hashes.len(), "{what}: a full collision");
            // a table at load ≤ 7/8: no bucket fuller than a random
            // hash's would be (reads 2–3), and no tag on more than about
            // twice its share (reads 10 of 200 names, 45 of 4096 ids)
            let bits = (hashes.len() * 8 / 7).next_power_of_two().trailing_zeros();
            let (low, top) = max_loads(hashes, bits);
            assert!(
                low <= 6,
                "{what}: {low} keys share one bucket of {}",
                1 << bits
            );
            let mean_tag = hashes.len().div_ceil(128);
            assert!(top <= 2 * mean_tag + 8, "{what}: {top} keys share one tag");
        }
    }
}
