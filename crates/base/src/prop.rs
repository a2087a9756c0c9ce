//! A deterministic, dependency-free property-testing mini-harness.
//!
//! Replaces the external `proptest` crate for this workspace's needs:
//! seeded case generation on top of [`crate::rng::Rng`], a bounded
//! iteration budget, greedy shrink-by-halving for integers / vecs /
//! strings / tuples, and failure-seed reporting so any counterexample
//! can be replayed exactly.
//!
//! A property is a closure from a generated value to
//! `Result<(), String>`; the [`prop_assert!`]-family macros produce the
//! `Err` side. Generators are plain closures `Fn(&mut Rng) -> T` built
//! from the helpers in this module.
//!
//! ```
//! use bistro_base::prop::{self, Runner};
//! use bistro_base::prop_assert;
//!
//! Runner::new("reverse_involutive").run(
//!     |rng| prop::vec_of(rng, 0..=16, |r| r.gen_range(0u32..100)),
//!     |v| {
//!         let mut w = v.clone();
//!         w.reverse();
//!         w.reverse();
//!         prop_assert!(w == *v, "double reverse changed {:?}", v);
//!         Ok(())
//!     },
//! );
//! ```
//!
//! Replay: a failure panic prints the case seed; rerun with
//! `BISTRO_PROP_SEED=<seed>` to execute exactly that case.
//! `BISTRO_PROP_CASES=<n>` overrides every runner's iteration budget.
//!
//! Shrinking operates on *values*, not on generator internals, so a
//! shrunk candidate can fall outside the generator's domain; properties
//! should therefore be total over structurally smaller inputs (they
//! already are, in this workspace).
//!
//! [`prop_assert!`]: crate::prop_assert

use crate::rng::{splitmix64, Rng};
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What a property returns: `Ok(())` or a failure description.
pub type PropResult = Result<(), String>;

/// Fixed default base seed — CI runs are deterministic.
const DEFAULT_SEED: u64 = 0xB157_0CA5_E5EE_D001;
/// Default per-property iteration budget.
const DEFAULT_CASES: usize = 128;
/// Cap on property evaluations spent shrinking one counterexample.
const SHRINK_BUDGET: usize = 16_384;

/// Drives one property: holds the name, iteration budget and base seed.
pub struct Runner {
    name: String,
    cases: usize,
    base_seed: u64,
    forced_seed: Option<u64>,
}

impl Runner {
    /// A runner with the default budget; honors `BISTRO_PROP_SEED`
    /// (replay one case) and `BISTRO_PROP_CASES` (budget override).
    pub fn new(name: &str) -> Runner {
        let forced_seed = std::env::var("BISTRO_PROP_SEED")
            .ok()
            .and_then(|s| parse_seed(&s));
        let cases = std::env::var("BISTRO_PROP_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(DEFAULT_CASES);
        Runner {
            name: name.to_string(),
            cases,
            base_seed: DEFAULT_SEED,
            forced_seed,
        }
    }

    /// Override the iteration budget (`BISTRO_PROP_CASES` still wins).
    pub fn cases(mut self, n: usize) -> Runner {
        if std::env::var("BISTRO_PROP_CASES").is_err() {
            self.cases = n;
        }
        self
    }

    /// Generate and check `cases` inputs; on failure, shrink to a
    /// minimal counterexample and panic with the replay seed.
    pub fn run<T, G, P>(self, gen: G, prop: P)
    where
        T: Clone + Debug + Shrink,
        G: Fn(&mut Rng) -> T,
        P: Fn(&T) -> PropResult,
    {
        let mut stream = self.base_seed;
        for case in 0..self.cases {
            let case_seed = match self.forced_seed {
                Some(s) => s,
                None => splitmix64(&mut stream),
            };
            let value = gen(&mut Rng::seed_from_u64(case_seed));
            if let Some(err) = eval(&prop, &value) {
                let (minimal, steps) = shrink_to_minimal(&prop, value.clone());
                let final_err = eval(&prop, &minimal).unwrap_or(err.clone());
                panic!(
                    "property '{}' failed (case {}/{})\n  \
                     replay: BISTRO_PROP_SEED={:#x}\n  \
                     original: {:?}\n  \
                     minimal ({} shrink steps): {:?}\n  \
                     error: {}",
                    self.name, case, self.cases, case_seed, value, steps, minimal, final_err
                );
            }
            if self.forced_seed.is_some() {
                return; // replay mode: exactly one case
            }
        }
    }
}

fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Run the property once, treating panics as failures. Returns the
/// failure message, or `None` on success.
fn eval<T, P: Fn(&T) -> PropResult>(prop: &P, value: &T) -> Option<String> {
    match catch_unwind(AssertUnwindSafe(|| prop(value))) {
        Ok(Ok(())) => None,
        Ok(Err(msg)) => Some(msg),
        Err(payload) => Some(panic_message(&payload)),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

/// Greedy shrink: repeatedly move to the first shrink candidate that
/// still fails, until none does or the budget runs out.
fn shrink_to_minimal<T, P>(prop: &P, mut current: T) -> (T, usize)
where
    T: Clone + Debug + Shrink,
    P: Fn(&T) -> PropResult,
{
    let mut budget = SHRINK_BUDGET;
    let mut steps = 0usize;
    'outer: loop {
        for candidate in current.shrink() {
            if budget == 0 {
                break 'outer;
            }
            budget -= 1;
            if eval(prop, &candidate).is_some() {
                current = candidate;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (current, steps)
}

/// Values that can propose structurally smaller versions of
/// themselves. The default is "cannot shrink" so test-local types can
/// opt in with an empty `impl`.
pub trait Shrink: Sized {
    /// Candidate replacements, roughly smallest-first.
    fn shrink(&self) -> Vec<Self> {
        Vec::new()
    }
}

// Binary-descent ladder toward zero: 0, v/2, then values approaching v
// from below by halving deltas (3v/4, 7v/8, …, v-1). Greedy use of this
// list converges in O(log² v) property evaluations, like proptest.
macro_rules! impl_shrink_int {
    ($($t:ty),*) => {$(
        impl Shrink for $t {
            fn shrink(&self) -> Vec<$t> {
                let v = *self;
                if v == 0 {
                    return Vec::new();
                }
                let mut out = vec![0, v / 2];
                let mut delta = v / 4;
                while delta != 0 {
                    out.push(v - delta);
                    delta /= 2;
                }
                out.push(if v > 0 { v - 1 } else { v + 1 });
                out.dedup();
                out.retain(|&c| c != v);
                out
            }
        }
    )*};
}
impl_shrink_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Shrink for bool {
    fn shrink(&self) -> Vec<bool> {
        if *self {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

impl Shrink for char {
    fn shrink(&self) -> Vec<char> {
        if *self == 'a' {
            Vec::new()
        } else {
            vec!['a']
        }
    }
}

impl Shrink for String {
    fn shrink(&self) -> Vec<String> {
        let mut out = Vec::new();
        let n = self.chars().count();
        if n == 0 {
            return out;
        }
        out.push(String::new());
        out.push(self.chars().take(n / 2).collect());
        out.push(self.chars().skip(n / 2).collect());
        out.push(self.chars().take(n - 1).collect());
        out.push(self.chars().skip(1).collect());
        // simplify the first non-'a' character
        if let Some((i, _)) = self.char_indices().find(|&(_, c)| c != 'a') {
            let mut s: Vec<char> = self.chars().collect();
            let pos = self[..i].chars().count();
            s[pos] = 'a';
            out.push(s.into_iter().collect());
        }
        out.retain(|c| c != self);
        out
    }
}

impl<T: Clone + Shrink> Shrink for Vec<T> {
    fn shrink(&self) -> Vec<Vec<T>> {
        let mut out = Vec::new();
        let n = self.len();
        if n == 0 {
            return out;
        }
        // structural candidates, all strictly shorter than self
        out.push(Vec::new());
        if n / 2 > 0 {
            out.push(self[..n / 2].to_vec());
            out.push(self[n / 2..].to_vec());
        }
        out.push(self[..n - 1].to_vec());
        out.push(self[1..].to_vec());
        // shrink individual elements (first few only, to bound fan-out)
        for i in 0..n.min(8) {
            for cand in self[i].shrink().into_iter().take(6) {
                let mut v = self.clone();
                v[i] = cand;
                out.push(v);
            }
        }
        out
    }
}

impl<T: Clone + Shrink> Shrink for Option<T> {
    fn shrink(&self) -> Vec<Option<T>> {
        match self {
            None => Vec::new(),
            Some(v) => {
                let mut out = vec![None];
                out.extend(v.shrink().into_iter().map(Some));
                out
            }
        }
    }
}

macro_rules! impl_shrink_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Clone + Shrink),+> Shrink for ($($name,)+) {
            fn shrink(&self) -> Vec<Self> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink() {
                        let mut t = self.clone();
                        t.$idx = cand;
                        out.push(t);
                    }
                )+
                out
            }
        }
    };
}
impl_shrink_tuple!(A: 0);
impl_shrink_tuple!(A: 0, B: 1);
impl_shrink_tuple!(A: 0, B: 1, C: 2);
impl_shrink_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_shrink_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_shrink_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

// ---------------------------------------------------------------------
// Generator helpers
// ---------------------------------------------------------------------

/// Expand a compact character-class spec into its members: `"A-Za-z0-9_."`
/// means the ranges `A-Z`, `a-z`, `0-9` plus the literals `_` and `.`.
/// A `-` at the start or end is a literal dash.
pub fn charset(spec: &str) -> Vec<char> {
    let chars: Vec<char> = spec.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if i + 2 < chars.len() && chars[i + 1] == '-' {
            let (lo, hi) = (chars[i], chars[i + 2]);
            assert!(lo <= hi, "bad charset range {lo}-{hi}");
            for c in lo..=hi {
                out.push(c);
            }
            i += 3;
        } else {
            out.push(chars[i]);
            i += 1;
        }
    }
    out
}

/// Random string whose characters come from [`charset`]`(spec)` and
/// whose length is uniform in `len`.
pub fn string(rng: &mut Rng, spec: &str, len: core::ops::RangeInclusive<usize>) -> String {
    let pool = charset(spec);
    assert!(!pool.is_empty(), "empty charset {spec:?}");
    let n = rng.gen_range(len);
    (0..n).map(|_| *rng.choose(&pool)).collect()
}

/// Random string over printable non-control characters, ASCII-biased
/// but including multi-byte code points (the stand-in for `\PC`).
pub fn unicode_string(rng: &mut Rng, len: core::ops::RangeInclusive<usize>) -> String {
    const WIDE: &[char] = &[
        'é', 'ß', 'λ', 'Ж', '中', '日', '₿', '→', '🦀', '𝕊', 'ñ', '字',
    ];
    let n = rng.gen_range(len);
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.15) {
                *rng.choose(WIDE)
            } else {
                rng.gen_range(0x20u32..0x7F) as u8 as char
            }
        })
        .collect()
}

/// Random `Vec` with length uniform in `len`, elements from `f`.
pub fn vec_of<T>(
    rng: &mut Rng,
    len: core::ops::RangeInclusive<usize>,
    mut f: impl FnMut(&mut Rng) -> T,
) -> Vec<T> {
    let n = rng.gen_range(len);
    (0..n).map(|_| f(rng)).collect()
}

/// `Some(f(rng))` with probability 1/2, else `None`.
pub fn option_of<T>(rng: &mut Rng, mut f: impl FnMut(&mut Rng) -> T) -> Option<T> {
    if rng.gen_bool(0.5) {
        Some(f(rng))
    } else {
        None
    }
}

/// Uniform pick from a slice of options (cloned).
pub fn select<T: Clone>(rng: &mut Rng, options: &[T]) -> T {
    rng.choose(options).clone()
}

/// Assert a condition inside a property; formats like `assert!` but
/// returns `Err` instead of panicking (so shrinking sees the failure).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err(format!($($fmt)*));
        }
    };
}

/// `prop_assert!` for equality, printing both sides on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return Err(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($a), stringify!($b), a, b
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return Err(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)*), a, b
            ));
        }
    }};
}

/// `prop_assert!` for inequality, printing the collided value.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a == b {
            return Err(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($a), stringify!($b), a
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        if a == b {
            return Err(format!("{}\n  both: {:?}", format!($($fmt)*), a));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_completes() {
        Runner::new("addition_commutes").cases(64).run(
            |rng| (rng.gen_range(0u32..1000), rng.gen_range(0u32..1000)),
            |&(a, b)| {
                crate::prop_assert_eq!(a + b, b + a);
                Ok(())
            },
        );
    }

    #[test]
    fn charset_expands_ranges_and_literals() {
        let cs = charset("A-Ca-c0-9_.");
        assert_eq!(cs.iter().collect::<String>(), "ABCabc0123456789_.");
        assert_eq!(charset("-x-z").iter().collect::<String>(), "-xyz");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mk = |seed| {
            let mut rng = Rng::seed_from_u64(seed);
            (
                string(&mut rng, "A-Za-z", 1..=20),
                vec_of(&mut rng, 0..=10, |r| r.gen_range(0u64..100)),
            )
        };
        assert_eq!(mk(7), mk(7));
        assert_ne!(mk(7), mk(8));
    }

    #[test]
    fn shrink_finds_minimal_planted_counterexample() {
        // Plant: "all elements < 10" fails for any vec containing >= 10.
        // The minimal counterexample is the single-element vec [10].
        let prop = |v: &Vec<u32>| {
            if v.iter().any(|&x| x >= 10) {
                Err("element out of range".to_string())
            } else {
                Ok(())
            }
        };
        // find some failing input first
        let mut rng = Rng::seed_from_u64(99);
        let noisy: Vec<u32> = loop {
            let v = vec_of(&mut rng, 0..=24, |r| r.gen_range(0u32..50));
            if prop(&v).is_err() {
                break v;
            }
        };
        let (minimal, steps) = shrink_to_minimal(&prop, noisy);
        assert_eq!(minimal, vec![10], "after {steps} steps");
    }

    #[test]
    fn shrink_reaches_integer_boundary() {
        let prop = |&v: &u64| {
            if v >= 100 {
                Err("too big".to_string())
            } else {
                Ok(())
            }
        };
        let (minimal, _) = shrink_to_minimal(&prop, 1_000_000u64);
        assert_eq!(minimal, 100);
    }

    #[test]
    #[should_panic(expected = "BISTRO_PROP_SEED")]
    fn failure_reports_replay_seed() {
        Runner::new("always_fails").cases(4).run(
            |rng| rng.gen_range(0u32..10),
            |_| Err("planted".to_string()),
        );
    }

    #[test]
    fn shrink_string_preserves_failure() {
        let prop = |s: &String| {
            if s.contains('!') {
                Err("bang".to_string())
            } else {
                Ok(())
            }
        };
        let (minimal, _) = shrink_to_minimal(&prop, "aaaa!bbbb!cc".to_string());
        assert_eq!(minimal, "!");
    }
}
