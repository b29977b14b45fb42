//! In-memory spans for the traced run.
//!
//! A span is (name, start, end, parent) recorded by benchmark code around a
//! call into one layer. Spans stay in memory while the workload runs and are
//! written out when it ends. Every span feeds its name's totals, and a
//! span's self time is its duration minus the time its child spans cover.
//! Only the first [`STORED_SPANS`] spans of a log are kept whole, so a long
//! run cannot grow memory without bound; the totals cover all of them.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Whole spans kept per log; later spans count only in the totals.
pub const STORED_SPANS: usize = 100_000;

/// One closed span. Times are ns since the log's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Aggregates of every span of one name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
struct Open {
    id: u64,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

/// One thread's spans.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    id_base: u64,
    next_id: u64,
    stack: Vec<Open>,
    stored: Vec<Span>,
    unstored: u64,
    totals: BTreeMap<&'static str, Totals>,
}

impl SpanLog {
    /// A log timed from `epoch`; `thread` keeps span ids unique across logs.
    pub fn new(epoch: Instant, thread: u64) -> SpanLog {
        SpanLog {
            epoch,
            id_base: thread << 40,
            next_id: 0,
            stack: Vec::new(),
            stored: Vec::new(),
            unstored: 0,
            totals: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        self.next_id += 1;
        let id = self.id_base | self.next_id;
        let start_ns = self.now_ns();
        self.stack.push(Open { id, name, start_ns, child_ns: 0 });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("exit matches an enter");
        let dur = end_ns.saturating_sub(open.start_ns);
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        let t = self.totals.entry(open.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        if self.stored.len() < STORED_SPANS {
            self.stored.push(Span {
                id: open.id,
                parent,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
            });
        } else {
            self.unstored += 1;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut SpanLog) -> R) -> R {
        self.enter(name);
        let r = f(self);
        self.exit();
        r
    }

    /// Folds another thread's log into this one.
    pub fn absorb(&mut self, other: SpanLog) {
        for (name, t) in other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.count += t.count;
            mine.total_ns += t.total_ns;
            mine.self_ns += t.self_ns;
        }
        let room = STORED_SPANS.saturating_sub(self.stored.len());
        let kept = other.stored.len().min(room);
        self.unstored += other.unstored + (other.stored.len() - kept) as u64;
        self.stored.extend_from_slice(&other.stored[..kept]);
    }

    /// Totals of every span named `name` (zero when none closed).
    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Sum of self time over every span of the log.
    pub fn self_ns_all(&self) -> u64 {
        self.totals.values().map(|t| t.self_ns).sum()
    }

    /// Writes the kept spans as tab-separated
    /// `id parent name start_ns end_ns` lines, after a header that also
    /// states how many spans were only totalled.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "# spans kept {} totalled-only {}", self.stored.len(), self.unstored)?;
        writeln!(w, "id\tparent\tname\tstart_ns\tend_ns")?;
        let mut spans = self.stored.clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        for s in &spans {
            writeln!(w, "{}\t{}\t{}\t{}\t{}", s.id, s.parent, s.name, s.start_ns, s.end_ns)?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut log = SpanLog::new(Instant::now(), 1);
        log.span("outer", |log| {
            log.span("inner", |_| std::hint::black_box((0..10_000u64).sum::<u64>()));
        });
        let outer = log.totals("outer");
        let inner = log.totals("inner");
        assert_eq!((outer.count, inner.count), (1, 1));
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(log.stored[0].parent, log.stored[1].id, "inner closes first, under outer");
    }
}
