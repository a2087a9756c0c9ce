//! Driver-side spans: one per call the driver makes into a public
//! function, children of a per-file (per-batch) root. Kept in a
//! pre-sized `Vec`, written out as JSON lines after the timed phase.

use crate::stats;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span in the recorder; [`NONE`] when tracing is off or
/// the span has no parent.
pub type SpanId = u32;
pub const NONE: SpanId = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// File (or batch) sequence number the span belongs to.
    pub id: u64,
}

pub struct Tracer {
    on: bool,
    base: Instant,
    spans: Vec<Span>,
    /// Spans not recorded because the pre-sized buffer was full.
    pub dropped: u64,
}

impl Tracer {
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            on: false,
            base: Instant::now(),
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Open a span; returns [`NONE`] (and records nothing) when off or
    /// full — never reallocates inside a timed phase.
    pub fn open(&mut self, name: &'static str, parent: SpanId, id: u64) -> SpanId {
        if !self.on {
            return NONE;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn close(&mut self, span: SpanId) {
        if span != NONE {
            let now = self.now_ns();
            self.spans[span as usize].end_ns = now;
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.open(name, parent, id);
        let r = f();
        self.close(s);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span, grouped by name.
    pub fn durations(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for s in &self.spans {
            out.entry(s.name)
                .or_default()
                .push(s.end_ns.saturating_sub(s.start_ns));
        }
        out
    }

    /// Total self time (ns) of all spans named `name`: each span's
    /// duration minus what its direct children cover.
    pub fn self_time_of(&self, name: &str) -> u64 {
        let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != NONE {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let kids = children
                    .get(&(i as SpanId))
                    .map(Vec::as_slice)
                    .unwrap_or(&[]);
                stats::self_time((s.start_ns, s.end_ns), kids)
            })
            .sum()
    }

    /// One JSON object per span: name, start, end, parent index (-1 for
    /// a root), file/batch id.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_full_drops() {
        let mut t = Tracer::new(2);
        assert_eq!(t.open("a", NONE, 0), NONE);
        assert!(t.spans().is_empty());
        t.set_on(true);
        let root = t.open("root", NONE, 1);
        let child = t.span("child", root, 1, t_is_busy);
        assert_eq!(child, 3);
        t.close(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.open("overflow", NONE, 2), NONE);
        assert_eq!(t.dropped, 1);
        assert_eq!(t.spans()[1].parent, root);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }

    fn t_is_busy() -> u32 {
        std::hint::black_box(1 + 2)
    }

    #[test]
    fn self_time_by_name_subtracts_direct_children() {
        let mut t = Tracer::new(8);
        t.set_on(true);
        let root = t.open("root", NONE, 0);
        let c = t.open("call", root, 0);
        t.close(c);
        t.close(root);
        // overwrite with fixed times so the arithmetic is checkable
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 100;
        t.spans[1].start_ns = 10;
        t.spans[1].end_ns = 40;
        assert_eq!(t.self_time_of("root"), 70);
        assert_eq!(t.self_time_of("call"), 30);
        assert_eq!(t.durations()["root"], vec![100]);
    }
}
