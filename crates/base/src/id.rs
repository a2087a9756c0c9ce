//! Strongly-typed identifiers.
//!
//! Receipts, scheduling jobs and transport messages all refer to files,
//! feeds, subscribers and batches. Newtype ids keep those spaces from being
//! mixed up and make the binary encodings self-describing.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $repr:ty, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub $repr);

        impl $name {
            /// The raw numeric value.
            pub const fn raw(self) -> $repr {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$repr> for $name {
            fn from(v: $repr) -> Self {
                $name(v)
            }
        }
    };
}

define_id!(
    /// Identifies one received file (assigned by the receipt store on
    /// arrival; stable across restarts because it is WAL-logged).
    FileId,
    u64,
    "file#"
);
define_id!(
    /// Identifies a registered subscriber: the receipt store's durable
    /// subscriber id — dense, handed out at registration, never reused,
    /// so one bit of a bitmap can name it.
    SubscriberId,
    u32,
    "sub#"
);
define_id!(
    /// Identifies a batch of files sharing a trigger invocation.
    BatchId,
    u64,
    "batch#"
);

/// Thread-safe monotone id generator.
#[derive(Debug)]
pub struct IdGen {
    next: AtomicU64,
}

impl IdGen {
    /// Start issuing ids from 1 (0 is reserved as a "nil" value).
    pub fn new() -> Self {
        Self::starting_at(1)
    }

    /// Start issuing ids from `first` (used after recovery to resume past
    /// the highest id found in the log).
    pub fn starting_at(first: u64) -> Self {
        IdGen {
            next: AtomicU64::new(first),
        }
    }

    /// Issue the next raw id.
    pub fn next_raw(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Issue a typed id.
    pub fn next<T: From<u64>>(&self) -> T {
        T::from(self.next_raw())
    }

    /// The next id that *would* be issued, without issuing it. Persisted
    /// as the id high-water mark so recovery can resume past allocations
    /// that were burned by failed appends.
    pub fn peek(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Ensure future ids are strictly greater than `seen`.
    pub fn bump_past(&self, seen: u64) {
        let mut cur = self.next.load(Ordering::Relaxed);
        while cur <= seen {
            match self.next.compare_exchange_weak(
                cur,
                seen + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }
}

impl Default for IdGen {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_are_distinct_types() {
        let f = FileId(3);
        let s = SubscriberId(3);
        assert_eq!(f.raw(), u64::from(s.raw()));
        assert_eq!(format!("{f}"), "file#3");
        assert_eq!(format!("{s}"), "sub#3");
    }

    #[test]
    fn idgen_monotone() {
        let g = IdGen::new();
        let a: FileId = g.next();
        let b: FileId = g.next();
        assert!(b.raw() > a.raw());
        assert_eq!(a.raw(), 1);
    }

    #[test]
    fn idgen_bump_past() {
        let g = IdGen::new();
        g.bump_past(100);
        let a: FileId = g.next();
        assert_eq!(a.raw(), 101);
        // bumping below current is a no-op
        g.bump_past(5);
        let b: FileId = g.next();
        assert_eq!(b.raw(), 102);
    }

    #[test]
    fn idgen_peek_does_not_allocate() {
        let g = IdGen::new();
        assert_eq!(g.peek(), 1);
        let a: FileId = g.next();
        assert_eq!(a.raw(), 1);
        assert_eq!(g.peek(), 2);
        g.bump_past(10);
        assert_eq!(g.peek(), 11);
    }

    #[test]
    fn idgen_concurrent_unique() {
        let g = std::sync::Arc::new(IdGen::new());
        let mut handles = vec![];
        for _ in 0..4 {
            let g = g.clone();
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| g.next_raw()).collect::<Vec<_>>()
            }));
        }
        let mut all = HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert!(all.insert(id), "duplicate id {id}");
            }
        }
        assert_eq!(all.len(), 4000);
    }
}
