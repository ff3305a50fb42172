//! In-memory spans around calls into each layer.
//!
//! A span records a name, its start and end (nanoseconds since the
//! tracer was created), its parent, and the unit (one trial or segment)
//! it belongs to; all spans of one unit share that unit's id. Spans stay
//! in memory until the run ends, when [`Tracer::write_csv`] writes them
//! out. A span's *self time* is its duration minus its children's.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Reads the wall clock. The single clock read of the benchmark:
/// everything else measures with [`Instant::elapsed`] from here.
#[must_use]
// Timing is the benchmark's purpose and this crate is outside the
// engine crates, which stay clock-free (hh_lint `wall-clock`).
#[allow(clippy::disallowed_methods)]
pub fn clock() -> Instant {
    Instant::now()
}

/// Index of a span within its tracer.
pub type SpanId = u32;

/// One closed or open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What the span covers (a layer call or a grouping).
    pub name: &'static str,
    /// The trial or segment the span belongs to.
    pub unit: u32,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin (equal to `start_ns` while
    /// open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a tracer's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Number of spans with the name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    unit: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: clock(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a new unit; spans opened from now on carry its id.
    pub fn next_unit(&mut self) {
        self.unit += 1;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            unit: self.unit,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span; returns
    /// its duration in ns.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span (a nesting bug in
    /// the caller).
    pub fn close(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.duration_ns()
    }

    /// Runs `f` inside a span named `name` (child spans may be opened
    /// through the tracer `f` receives); returns its result and the
    /// span's duration in ns.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, u64) {
        let id = self.open(name);
        let out = f(self);
        let ns = self.close(id);
        (out, ns)
    }

    /// [`timed`](Self::timed) without the duration.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.timed(name, f).0
    }

    /// All recorded spans, in open order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    #[must_use]
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let slot = &mut own[parent as usize];
                *slot = slot.saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Count, total and self time per span name.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut map: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            let entry = map.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += own;
        }
        map
    }

    /// Writes every span as one CSV row:
    /// `id,parent,unit,name,start_ns,end_ns,self_ns` (`parent` is empty
    /// for top-level spans).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors creating or writing the file.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,unit,name,start_ns,end_ns,self_ns")?;
        for (id, (span, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{id},{parent},{},{},{},{},{own}",
                span.unit, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::new();
        tracer.next_unit();
        let outer = tracer.open("outer");
        tracer.span("inner", |_| {
            std::hint::black_box((0..10_000u64).sum::<u64>())
        });
        tracer.span("inner", |_| {
            std::hint::black_box((0..10_000u64).sum::<u64>())
        });
        tracer.close(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(outer));
        assert!(spans.iter().all(|s| s.unit == 1));
        let totals = tracer.totals();
        let inner = totals["inner"];
        let outer_totals = totals["outer"];
        assert_eq!(inner.count, 2);
        assert_eq!(inner.self_ns, inner.total_ns, "leaves own all their time");
        assert_eq!(outer_totals.self_ns, outer_totals.total_ns - inner.total_ns);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let mut tracer = Tracer::new();
        let a = tracer.open("a");
        let _b = tracer.open("b");
        tracer.close(a);
    }
}
