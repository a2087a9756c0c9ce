//! LZSS dictionary compression.
//!
//! A classic LZ77 variant with an 8 KiB sliding window, hash-chain match
//! finding and a bit-flagged token stream:
//!
//! * a group byte carries 8 flags (LSB first); flag 0 = literal byte,
//!   flag 1 = match token.
//! * a match token is 2 bytes: `dddddddd dddddlll` — a 13-bit distance
//!   (1..=8192) and 3-bit length code (length 3..=10), followed by an
//!   optional extension byte when the length code is 7 (length 10 + ext,
//!   up to 265).
//!
//! This is deliberately simple (no entropy coding) but reaches 4-10x on
//! the repetitive text/CSV payloads that dominate feed traffic, which is
//! all the Bistro pipeline needs from its compression stage.
//!
//! The encoder's match finder is specified by `tests::compress_reference`
//! (the original body, kept as the test oracle): 3-byte multiplicative hash
//! into 2^15 buckets, chains walked nearest-first for at most 64 steps, a
//! candidate wins only when strictly longer. [`compress`] emits the same
//! bytes for every input; it differs only in what it spends to find them
//! (DESIGN.md §9, "Compression kernel").

use crate::CompressError;
use std::cell::RefCell;

const WINDOW: usize = 8192; // 13-bit distances
const WINDOW_MASK: usize = WINDOW - 1;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 10 + 255; // length code 7 + extension byte
const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// Candidates examined per position before settling for the best so far.
const CHAIN_CAP: u32 = 64;
/// Largest stamp a token may start at: the positions a token can insert
/// (its own and up to `MAX_MATCH - 1` skipped ones) must still fit a `u32`.
const STAMP_LIMIT: usize = u32::MAX as usize - MAX_MATCH;

/// Hash of the three bytes in the low 24 bits of `v` (little-endian load).
#[inline]
fn hash(v: u32) -> usize {
    ((v & 0x00FF_FFFF).wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Hash of `data[i..i + 3]`, from one 4-byte load where the input allows.
#[inline]
fn hash_at(data: &[u8], i: usize) -> usize {
    match data[i..].first_chunk::<4>() {
        Some(w) => hash(u32::from_le_bytes(*w)),
        None => hash(u32::from_le_bytes([data[i], data[i + 1], data[i + 2], 0])),
    }
}

/// Length of the common prefix of two equally long slices, compared a
/// word at a time.
#[inline]
fn match_len(a: &[u8], b: &[u8]) -> usize {
    let (words_a, tail_a) = a.as_chunks::<8>();
    let (words_b, tail_b) = b.as_chunks::<8>();
    let mut len = 0;
    for (x, y) in words_a.iter().zip(words_b) {
        let diff = u64::from_le_bytes(*x) ^ u64::from_le_bytes(*y);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    len + tail_a
        .iter()
        .zip(tail_b)
        .take_while(|(x, y)| x == y)
        .count()
}

/// The hash chains, kept between calls so that compressing a file costs
/// what its own chains cost rather than a 160 kB table fill.
///
/// Positions are stored as *stamps*: `stamp = position + bias`, where
/// each call's bias starts at the stamp after the previous call's last
/// position. Every entry an earlier call left behind is therefore below
/// the stamp of this call's position 0, and the chain walk's window test
/// (`stamp >= stamp of the oldest reachable position`) rejects it with
/// the same compare that ends a chain at the window edge — a stale slot,
/// an empty slot (0; stamps start at 1) and an out-of-window candidate
/// are one case. `prev` needs no clearing: a slot is read only for a
/// position this call inserted, which wrote it, and nothing reuses the
/// slot until the position one window on.
struct Chains {
    /// `head[h]`: stamp of the most recent position hashing to `h`.
    head: Box<[u32; HASH_SIZE]>,
    /// `prev[s & WINDOW_MASK]`: stamp of the position before the one stamped
    /// `s` in its chain (indexed by stamp: a chain step is one masked load).
    prev: Box<[u32; WINDOW]>,
    /// The stamp the next call gives its position 0 (never 0).
    next: u32,
}

thread_local! {
    /// One table set per thread, allocated zeroed on the thread's first
    /// compress. `base::pool` scopes its workers per batch, so a worker's
    /// tables serve its shard of one batch; the caller's thread keeps its
    /// own across batches.
    static CHAINS: RefCell<Chains> = RefCell::new(Chains::new());
}

fn zeroed<const N: usize>() -> Box<[u32; N]> {
    // `vec!` of zeroes asks the allocator for zeroed pages: untouched
    // buckets cost nothing until a file's hashes land in them.
    vec![0u32; N]
        .into_boxed_slice()
        .try_into()
        .expect("a vec of N elements boxes to [_; N]")
}

impl Chains {
    fn new() -> Chains {
        Chains {
            head: zeroed(),
            prev: zeroed(),
            next: 1,
        }
    }

    /// Re-base the stamps so they keep fitting a `u32`: the oldest
    /// position a match at `i` may still reach becomes stamp 1, entries
    /// older than that become empty. Returns the new bias. Runs once per
    /// 4 GiB compressed on a thread (at a call's start every entry is
    /// stale, so this is then a plain clear).
    #[cold]
    fn rebase(&mut self, i: usize, bias: usize) -> usize {
        let oldest = i.saturating_sub(WINDOW).wrapping_add(bias) as u32;
        let shift = oldest - 1;
        for v in self.head.iter_mut().chain(self.prev.iter_mut()) {
            *v = if *v >= oldest { *v - shift } else { 0 };
        }
        // slots are indexed by stamp, and every stamp just moved by `shift`
        self.prev.rotate_left(shift as usize % WINDOW);
        bias.wrapping_sub(shift as usize)
    }

    /// Longest match for `data[i..]` among the chained earlier positions
    /// — nearest candidate wins ties — then chain position `i`. Returns
    /// `(length, distance)`; a length under `MIN_MATCH` means no match.
    #[inline]
    fn find_and_insert(&mut self, data: &[u8], i: usize, bias: usize) -> (usize, usize) {
        let max_len = (data.len() - i).min(MAX_MATCH);
        let here = &data[i..i + max_len];
        let h = hash_at(data, i);
        let stamp = i.wrapping_add(bias) as u32;
        let oldest = stamp - i.min(WINDOW) as u32;

        // Only a match of MIN_MATCH or more is ever emitted, so the bar
        // starts one below it.
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0;
        let mut cand = self.head[h];
        let mut steps = 0;
        while cand >= oldest && steps < CHAIN_CAP {
            let dist = (stamp - cand) as usize;
            let c = i - dist;
            // A candidate replaces the best only when strictly longer, so
            // it must agree with `here` at offset `best_len`; most do not,
            // and are rejected on that one byte.
            if data[c + best_len] == here[best_len] {
                let len = match_len(&data[c..c + max_len], here);
                if len > best_len {
                    best_len = len;
                    best_dist = dist;
                    if len == max_len {
                        break; // nothing can be strictly longer
                    }
                }
            }
            cand = self.prev[cand as usize & WINDOW_MASK];
            steps += 1;
        }
        self.prev[stamp as usize & WINDOW_MASK] = self.head[h];
        self.head[h] = stamp;
        (best_len, best_dist)
    }

    /// Chain the positions a match starting at `i` skipped over, so later
    /// matches can start inside it. Stops `MIN_MATCH` short of the input's
    /// end (one position earlier than hashing strictly needs — part of the
    /// stream's definition now).
    #[inline]
    fn insert_skipped(&mut self, data: &[u8], i: usize, len: usize, bias: usize) {
        let end = (i + len).min(data.len().saturating_sub(MIN_MATCH));
        // every skipped position has four bytes after it: end + 3 <= n
        // (and a match too short to skip any leaves no window to walk)
        for (k, w) in data[i + 1..end + 3].windows(4).enumerate() {
            let j = i + 1 + k;
            let h = hash(u32::from_le_bytes([w[0], w[1], w[2], w[3]]));
            let stamp = j.wrapping_add(bias) as u32;
            self.prev[stamp as usize & WINDOW_MASK] = self.head[h];
            self.head[h] = stamp;
        }
    }

    fn encode(&mut self, data: &[u8], out: &mut Vec<u8>) {
        let n = data.len();
        let mut bias = self.next as usize;
        let mut i = 0;
        while i < n {
            // one group: a flag byte, then up to eight tokens
            let flag_pos = out.len();
            out.push(0);
            let mut flags = 0u8;
            for bit in 0..8 {
                if i >= n {
                    break;
                }
                if i.wrapping_add(bias) > STAMP_LIMIT {
                    bias = self.rebase(i, bias);
                }
                let (len, dist) = if i + MIN_MATCH <= n {
                    self.find_and_insert(data, i, bias)
                } else {
                    (0, 0)
                };
                if len >= MIN_MATCH {
                    flags |= 1 << bit;
                    let len_code = if len >= 10 { 7 } else { len - 3 };
                    let word = (((dist - 1) as u16) << 3) | len_code as u16; // dist-1: 0..=8191
                    out.extend_from_slice(&word.to_le_bytes());
                    if len_code == 7 {
                        out.push((len - 10) as u8);
                    }
                    self.insert_skipped(data, i, len, bias);
                    i += len;
                } else {
                    out.push(data[i]);
                    i += 1;
                }
            }
            out[flag_pos] = flags;
        }
        self.next = n.wrapping_add(bias) as u32;
    }
}

/// Compress `data` with LZSS.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    if !data.is_empty() {
        CHAINS.with(|chains| chains.borrow_mut().encode(data, &mut out));
    }
    out
}

/// Most a stream of `stream_len` bytes can decode to: a full group of
/// eight maximum-length matches is 25 bytes for 8 x 265.
fn max_expansion(stream_len: usize) -> usize {
    stream_len.saturating_mul(85)
}

/// Decompress an LZSS stream produced by [`compress`].
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, CompressError> {
    decode(data, usize::MAX, data.len().saturating_mul(3))
}

/// Decompress a stream whose decoded length is declared to be `declared`
/// bytes: fails with [`CompressError::LengthMismatch`] before the output
/// outgrows that, and allocates no more than that up front.
pub fn decompress_bounded(data: &[u8], declared: usize) -> Result<Vec<u8>, CompressError> {
    decode(data, declared, declared.min(max_expansion(data.len())))
}

fn decode(data: &[u8], limit: usize, reserve: usize) -> Result<Vec<u8>, CompressError> {
    let mut out = Vec::with_capacity(reserve);
    // refuse a token that would carry the output past `limit`
    let fits = |have: usize, len: usize| {
        if len <= limit - have {
            return Ok(());
        }
        Err(CompressError::LengthMismatch {
            expected: limit as u64,
            actual: (have + len) as u64,
        })
    };
    let mut i = 0;
    while i < data.len() {
        let flags = data[i];
        i += 1;
        for bit in 0..8 {
            if i >= data.len() {
                // Remaining zero flag bits are padding in the final group,
                // but a set bit with no token bytes means a truncated stream.
                if flags >> bit != 0 {
                    return Err(CompressError::Corrupt("group truncated before match token"));
                }
                break;
            }
            if flags & (1 << bit) == 0 {
                fits(out.len(), 1)?;
                out.push(data[i]);
                i += 1;
            } else {
                if i + 2 > data.len() {
                    return Err(CompressError::Corrupt("match token truncated"));
                }
                let word = data[i] as u16 | ((data[i + 1] as u16) << 8);
                i += 2;
                let dist = (word >> 3) as usize + 1;
                let len_code = (word & 0x7) as usize;
                let len = if len_code == 7 {
                    if i >= data.len() {
                        return Err(CompressError::Corrupt("length extension truncated"));
                    }
                    let ext = data[i] as usize;
                    i += 1;
                    10 + ext
                } else {
                    len_code + 3
                };
                if dist > out.len() {
                    return Err(CompressError::Corrupt("match distance before start"));
                }
                fits(out.len(), len)?;
                // The source may overlap the bytes being written (dist <
                // len): copy what exists, which doubles what can be copied
                // next. One pass when dist >= len.
                let start = out.len() - dist;
                let mut left = len;
                while left > 0 {
                    let take = left.min(out.len() - start);
                    out.extend_from_within(start..start + take);
                    left -= take;
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bistro_base::prop::Runner;
    use bistro_base::Rng;

    /// The encoder as first written: fresh `usize` tables per call, one byte
    /// compared at a time. Defines the stream [`compress`] must reproduce.
    fn compress_reference(data: &[u8]) -> Vec<u8> {
        let n = data.len();
        let mut out = Vec::with_capacity(n / 2 + 16);
        if n == 0 {
            return out;
        }

        // hash chains: head[h] = most recent position with hash h; prev[i % WINDOW]
        // links to the previous position with the same hash.
        let mut head = vec![usize::MAX; HASH_SIZE];
        let mut prev = vec![usize::MAX; WINDOW];

        let mut i = 0;
        // token group state
        let mut flag_pos = out.len();
        out.push(0);
        let mut flag_count = 0u8;

        macro_rules! begin_token {
            ($is_match:expr) => {
                if flag_count == 8 {
                    flag_pos = out.len();
                    out.push(0);
                    flag_count = 0;
                }
                if $is_match {
                    out[flag_pos] |= 1 << flag_count;
                }
                flag_count += 1;
            };
        }

        while i < n {
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            if i + MIN_MATCH <= n {
                let h = hash3(data, i);
                let mut cand = head[h];
                let limit = i.saturating_sub(WINDOW);
                let mut chain = 0;
                while cand != usize::MAX && cand >= limit && chain < 64 {
                    if cand < i {
                        let max_len = (n - i).min(MAX_MATCH);
                        let mut l = 0;
                        while l < max_len && data[cand + l] == data[i + l] {
                            l += 1;
                        }
                        if l > best_len {
                            best_len = l;
                            best_dist = i - cand;
                            if l >= MAX_MATCH {
                                break;
                            }
                        }
                    }
                    let nxt = prev[cand % WINDOW];
                    if nxt == cand {
                        break;
                    }
                    cand = nxt;
                    chain += 1;
                }
                // insert current position into the chain
                prev[i % WINDOW] = head[h];
                head[h] = i;
            }

            if best_len >= MIN_MATCH && best_dist <= WINDOW {
                begin_token!(true);
                let len_code = if best_len >= 10 { 7 } else { best_len - 3 };
                let d = (best_dist - 1) as u16; // 0..=8191
                let word = (d << 3) | len_code as u16;
                out.push((word & 0xFF) as u8);
                out.push((word >> 8) as u8);
                if len_code == 7 {
                    out.push((best_len - 10) as u8);
                }
                // register skipped positions in the hash chains (cheaply, only
                // up to a few per match — enough for chained matches)
                let end = (i + best_len).min(n.saturating_sub(MIN_MATCH));
                let mut j = i + 1;
                while j < end {
                    let h = hash3(data, j);
                    prev[j % WINDOW] = head[h];
                    head[h] = j;
                    j += 1;
                }
                i += best_len;
            } else {
                begin_token!(false);
                out.push(data[i]);
                i += 1;
            }
        }
        out
    }

    fn hash3(data: &[u8], i: usize) -> usize {
        let v = (data[i] as u32) | ((data[i + 1] as u32) << 8) | ((data[i + 2] as u32) << 16);
        (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
    }

    /// The three things every input must satisfy: the stream is the
    /// oracle's, and both decoders give the input back.
    fn check(data: &[u8]) -> Result<(), String> {
        let c = compress(data);
        if c != compress_reference(data) {
            return Err(format!(
                "stream differs from the oracle's, len {}",
                data.len()
            ));
        }
        if decompress(&c).as_deref() != Ok(data) {
            return Err(format!("decompress roundtrip, len {}", data.len()));
        }
        if decompress_bounded(&c, data.len()).as_deref() != Ok(data) {
            return Err(format!("bounded roundtrip, len {}", data.len()));
        }
        Ok(())
    }

    fn roundtrip(data: &[u8]) {
        check(data).unwrap();
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abc");
    }

    #[test]
    fn no_matches() {
        roundtrip(b"abcdefghijklmnopqrstuvwxyz0123456789");
    }

    #[test]
    fn simple_repeat() {
        roundtrip(b"abcabcabcabcabcabc");
        roundtrip(b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa");
    }

    #[test]
    fn overlapping_match() {
        // dist 1, long run: classic overlap case
        let data = vec![b'z'; 500];
        let c = compress(&data);
        assert!(c.len() < 20);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn long_match_with_extension() {
        let mut data = b"HEADER".to_vec();
        data.extend(std::iter::repeat_n(b"0123456789ABCDEF", 40).flatten());
        roundtrip(&data);
    }

    #[test]
    fn csv_payload_ratio() {
        let row = b"BPS,poller1,router_a,2010-12-30 00:05,123456,789012\n";
        let data = row.repeat(200);
        let c = compress(&data);
        assert!(
            c.len() * 4 < data.len(),
            "ratio too poor: {} -> {}",
            data.len(),
            c.len()
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn binary_payload() {
        let data: Vec<u8> = (0..50_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn window_boundary() {
        // a match exactly WINDOW back
        let mut data = vec![0u8; WINDOW];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let mut full = data.clone();
        full.extend_from_slice(&data[..100]); // repeats content WINDOW back
        roundtrip(&full);
    }

    #[test]
    fn corrupt_streams_error() {
        // flag says match but stream ends
        assert!(decompress(&[0x01]).is_err());
        assert!(decompress(&[0x01, 0x10]).is_err());
        // match pointing before output start: dist encoded as (word>>3)+1
        let word: u16 = 100u16 << 3; // dist 101, len 3, but output is empty
        assert!(decompress(&[0x01, (word & 0xFF) as u8, (word >> 8) as u8]).is_err());
    }

    #[test]
    fn feed_filenames_corpus() {
        // A realistic analyzer corpus: thousands of similar filenames.
        let mut data = Vec::new();
        for p in 1..=8 {
            for h in 0..24 {
                for m in [0, 5, 10, 15] {
                    data.extend_from_slice(
                        format!("MEMORY_POLLER{p}_20100925{h:02}_{m:02}.csv.gz\n").as_bytes(),
                    );
                }
            }
        }
        let c = compress(&data);
        assert!(c.len() * 3 < data.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    // ---- identity with the oracle ---------------------------------------

    /// Rows in the shape of `bistro_simnet::payload::payload_for` (which
    /// this crate cannot depend on): what `ingest_batch` compresses.
    fn feed_csv(rng: &mut Rng, n: usize) -> Vec<u8> {
        use std::fmt::Write as _;
        let mut out = String::from("timestamp,element,metric,value\n");
        let mut row = 0u64;
        while out.len() < n {
            let (element, value) = (rng.gen_range(0..50), rng.gen_range(0..1_000_000));
            let secs = 1_285_372_800 + row % 300;
            let _ = writeln!(out, "{secs},router_{element:03},memory,{value}");
            row += 1;
        }
        out.truncate(n);
        out.into_bytes()
    }

    /// A prefix of random bytes, then copies of what lies `dist` back with
    /// an occasional changed byte: every match sits at the window's edge.
    fn self_copy(rng: &mut Rng, n: usize, dist: usize) -> Vec<u8> {
        let mut out: Vec<u8> = (0..n.min(dist)).map(|_| rng.gen_range(0u8..=255)).collect();
        for j in dist..n {
            let b = out[j - dist];
            out.push(if rng.gen_range(0..97u32) == 0 { !b } else { b });
        }
        out
    }

    /// An input of one of the shapes the kernel treats differently, of a
    /// length that is tiny, hugs a multiple of the window, or is anything
    /// up to several windows.
    fn corpus(rng: &mut Rng) -> Vec<u8> {
        let n = match rng.gen_range(0..4u32) {
            0 => rng.gen_range(0..=8usize),
            1 => rng.gen_range(1..=8usize) * WINDOW + rng.gen_range(0..=8usize) - 4,
            _ => rng.gen_range(0..=70_000usize),
        };
        match rng.gen_range(0..5u32) {
            0 => (0..n).map(|_| rng.gen_range(0u8..=255)).collect(),
            1 => feed_csv(rng, n),
            2 => {
                let symbols = rng.gen_range(2u8..=4);
                (0..n).map(|_| b'a' + rng.gen_range(0..symbols)).collect()
            }
            3 => {
                let mut out = Vec::with_capacity(n + 3000);
                while out.len() < n {
                    let run = rng.gen_range(1..=3000usize);
                    out.resize(out.len() + run, rng.gen_range(0u8..=255));
                }
                out.truncate(n);
                out
            }
            _ => {
                let dist = rng.gen_range(8190..=8194usize);
                self_copy(rng, n, dist)
            }
        }
    }

    #[test]
    fn prop_stream_equals_the_oracle_and_roundtrips() {
        // One thread runs every case, so each call after the first also
        // meets the tables as the previous case left them.
        Runner::new("lzss_stream_equals_the_oracle")
            .cases(96)
            .run(corpus, |data| check(data));
    }

    #[test]
    fn every_short_input_and_every_cut_near_a_window_multiple() {
        let mut rng = Rng::seed_from_u64(7);
        let shapes = [
            feed_csv(&mut rng, 3 * WINDOW),
            self_copy(&mut rng, 3 * WINDOW, WINDOW),
            vec![b'z'; 3 * WINDOW],
        ];
        for data in &shapes {
            let near = |m: usize| m * WINDOW - 5..=m * WINDOW + 5;
            for n in (0..=12).chain(near(1)).chain(near(2)) {
                check(&data[..n]).unwrap();
            }
        }
    }

    #[test]
    fn tables_left_by_one_input_do_not_leak_into_the_next() {
        let mut rng = Rng::seed_from_u64(11);
        let a = feed_csv(&mut rng, 20_000);
        // same hashes as `a` at the same positions, different bytes after
        let mut b = a.clone();
        b[5_000..].reverse();
        for data in [&a, &b, &a, &a[..100].to_vec(), &b] {
            check(data).unwrap();
        }
    }

    #[test]
    fn stamps_rebase_at_the_u32_edge_without_moving_the_stream() {
        let mut rng = Rng::seed_from_u64(13);
        let inputs = [
            self_copy(&mut rng, 40_000, 8_192),
            feed_csv(&mut rng, 40_000),
        ];
        // the edge falls at the call's start, inside the first window,
        // and windows deep into the input
        for room in [0, 1, 7, 4_000, 8_191, 8_192, 8_193, 25_000, 39_000] {
            for data in &inputs {
                CHAINS.with(|c| c.borrow_mut().next = (STAMP_LIMIT - room) as u32);
                check(data).unwrap();
                let next = CHAINS.with(|c| c.borrow().next) as usize;
                assert!(
                    next <= data.len() + WINDOW + 1,
                    "room {room}: no rebase, next {next}"
                );
                check(data).unwrap(); // and the rebased tables serve the next call
            }
        }
    }

    /// Not an assertion on speed: puts the kernel's ratio to its oracle in
    /// the build log (`./ci.sh compress` runs this in release, uncaptured).
    #[test]
    fn report_kernel_time_against_the_oracle() {
        let mut rng = Rng::seed_from_u64(17);
        let files: Vec<Vec<u8>> = (0..64).map(|_| feed_csv(&mut rng, 8_192)).collect();
        // fastest of 20 passes over the 64 files: the box's noise only adds
        let time = |f: &dyn Fn(&[u8]) -> Vec<u8>| {
            let pass = || {
                let start = std::time::Instant::now();
                for file in &files {
                    std::hint::black_box(f(std::hint::black_box(file)));
                }
                start.elapsed().as_secs_f64() * 1e6 / files.len() as f64
            };
            (0..20).map(|_| pass()).fold(f64::INFINITY, f64::min)
        };
        let (oracle, kernel) = (time(&compress_reference), time(&compress));
        println!(
            "[compress] 8 kB feed CSV: oracle {oracle:.1} us/file, kernel {kernel:.1} us/file, \
             ratio {:.2} ({})",
            oracle / kernel,
            if cfg!(debug_assertions) {
                "debug build"
            } else {
                "release build"
            },
        );
    }

    // ---- bounded decode -------------------------------------------------

    /// One literal, then nothing but maximum-length matches: 25 stream
    /// bytes per 2 120 decoded.
    pub(crate) fn bomb(stream_len: usize) -> Vec<u8> {
        let mut s = vec![0xFE, b'a'];
        while s.len() < stream_len {
            if (s.len() - 2) % 25 == 21 {
                s.push(0xFF); // next group's flags
            }
            s.extend_from_slice(&[0x07, 0x00, 0xFF]); // dist 1, len 265
        }
        s
    }

    #[test]
    fn bounded_decode_stops_a_bomb_within_one_token_of_the_declared_length() {
        let stream = bomb(1 << 20);
        assert!(decompress(&stream[..2 + 21 + 25 * 40]).unwrap().len() > 85_000);
        for declared in [0, 1, 10, 265, 266, 100_000] {
            match decompress_bounded(&stream, declared) {
                Err(CompressError::LengthMismatch { expected, actual }) => {
                    assert_eq!(expected, declared as u64);
                    assert!(actual > expected && actual <= expected + MAX_MATCH as u64);
                }
                other => panic!("declared {declared}: {:?}", other.map(|v| v.len())),
            }
        }
    }

    #[test]
    fn bounded_decode_reserves_no_more_than_declared_or_possible() {
        let data = b"0123456789".repeat(1000);
        let c = compress(&data);
        let exact = decompress_bounded(&c, data.len()).unwrap();
        assert_eq!(exact, data);
        assert!(
            exact.capacity() < data.len() + 64,
            "cap {}",
            exact.capacity()
        );
        // a huge declaration over a short stream reserves what the stream
        // could reach, not what the header says
        let short = decompress_bounded(&c, usize::MAX).unwrap();
        assert!(short.capacity() <= max_expansion(c.len()));
    }

    #[test]
    fn bounded_decode_keeps_the_error_variants() {
        let data = b"router_001,memory,router_002,memory,".repeat(20);
        let c = compress(&data);
        // exact length decodes; one byte short is a length mismatch at
        // the token that crossed; a cut stream is still `Corrupt`
        assert_eq!(decompress_bounded(&c, data.len()).unwrap(), data);
        assert!(matches!(
            decompress_bounded(&c, data.len() - 1),
            Err(CompressError::LengthMismatch { .. })
        ));
        assert!(matches!(
            decompress_bounded(&[0x01, 0x10], 100),
            Err(CompressError::Corrupt(_))
        ));
        // declared longer than the stream decodes to: the caller compares
        assert_eq!(decompress_bounded(&c, data.len() + 5).unwrap(), data);
    }
}
