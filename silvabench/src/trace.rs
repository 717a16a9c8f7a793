//! In-memory span recording for the traced runs.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! the library's public functions: name, start, end and parent. A span's
//! self time is its duration minus the time its child spans cover.
//! Per-name aggregates cover the whole traced run; the spans themselves
//! are kept for the first repetition only, which bounds memory and the
//! span file, and written out once at the end.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// No parent: a root span.
const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// An open span on the stack.
#[derive(Debug, Clone, Copy)]
struct Frame {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    /// Index in the kept spans, or [`ROOT`] once spans are no longer kept.
    kept: u32,
}

/// A handle to an open span, returned by [`Tracer::enter`].
#[must_use = "an entered span must be exited"]
pub struct Open(usize);

/// Aggregates of every span with one name.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    /// Spans recorded.
    pub calls: u64,
    /// Summed duration, microseconds.
    pub total_us: f64,
    /// Summed self time (duration minus child spans), microseconds.
    pub self_us: f64,
    /// Every duration recorded, microseconds, for percentiles; empty
    /// unless the name was passed to [`Tracer::keep_durations`].
    pub durations_us: Vec<f64>,
    keeps_durations: bool,
}

impl SpanStats {
    /// Mean duration per span, microseconds (0 when none recorded).
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_us / self.calls as f64
        }
    }
}

/// Records spans and named counts for one traced run. A disabled
/// tracer records nothing, so one code path serves both runs.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    kept: Vec<Span>,
    keeping: bool,
    stack: Vec<Frame>,
    stats: BTreeMap<&'static str, SpanStats>,
    counts: BTreeMap<&'static str, f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            kept: Vec::with_capacity(1 << 16),
            keeping: true,
            stack: Vec::with_capacity(16),
            stats: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    /// A tracer that records nothing: the untraced runs use it.
    #[must_use]
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            kept: Vec::new(),
            keeping: false,
            stack: Vec::new(),
            stats: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Opens a span; the innermost open span is its parent.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        let kept = if self.keeping {
            let parent = self.stack.last().map_or(ROOT, |f| f.kept);
            self.kept.push(Span {
                name,
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            u32::try_from(self.kept.len() - 1).expect("under 2^32 kept spans")
        } else {
            ROOT
        };
        let start_ns = self.now_ns();
        if kept != ROOT {
            self.kept[kept as usize].start_ns = start_ns;
        }
        self.stack.push(Frame {
            name,
            start_ns,
            child_ns: 0,
            kept,
        });
        Open(self.stack.len())
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if `open` is not the innermost open span.
    pub fn exit(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        assert_eq!(open.0, self.stack.len(), "spans must close innermost first");
        let f = self.stack.pop().expect("exit without an open span");
        let dur = end_ns - f.start_ns;
        if f.kept != ROOT {
            self.kept[f.kept as usize].end_ns = end_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let s = self.stats.entry(f.name).or_default();
        s.calls += 1;
        s.total_us += dur as f64 / 1e3;
        s.self_us += dur.saturating_sub(f.child_ns) as f64 / 1e3;
        if s.keeps_durations {
            s.durations_us.push(dur as f64 / 1e3);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Keeps every duration of the spans named `name`, so that their
    /// percentiles cover the same spans as their mean.
    pub fn keep_durations(&mut self, name: &'static str) {
        self.stats.entry(name).or_default().keeps_durations = true;
    }

    /// Adds `by` to the count `name`, recorded where the work happens.
    pub fn add(&mut self, name: &'static str, by: f64) {
        if !self.enabled {
            return;
        }
        *self.counts.entry(name).or_insert(0.0) += by;
    }

    /// The count `name` (0 when never added to).
    #[must_use]
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Marks the end of a traced repetition: spans recorded after the
    /// first repetition count in the aggregates but are not kept.
    pub fn end_repetition(&mut self) {
        self.keeping = false;
    }

    /// Per-name span aggregates over the whole run, self time included.
    ///
    /// # Panics
    ///
    /// Panics if a span is still open.
    #[must_use]
    pub fn stats(&self) -> &BTreeMap<&'static str, SpanStats> {
        assert!(self.stack.is_empty(), "every span must be closed");
        &self.stats
    }

    /// Writes the kept spans, one tab-separated line each
    /// (`index name start_ns end_ns parent`, parent `-` for a root).
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent")?;
        for (i, s) in self.kept.iter().enumerate() {
            if s.parent == ROOT {
                writeln!(out, "{i}\t{}\t{}\t{}\t-", s.name, s.start_ns, s.end_ns)?;
            } else {
                writeln!(
                    out,
                    "{i}\t{}\t{}\t{}\t{}",
                    s.name, s.start_ns, s.end_ns, s.parent
                )?;
            }
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.keep_durations("inner");
        let outer = t.enter("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(outer);
        t.end_repetition();
        t.span("inner", || ());
        let stats = t.stats();
        let (outer, inner) = (&stats["outer"], &stats["inner"]);
        assert_eq!((outer.calls, inner.calls), (1, 2));
        assert_eq!((outer.durations_us.len(), inner.durations_us.len()), (0, 2));
        assert!(inner.total_us >= 2_000.0);
        let expected_self = outer.total_us - inner.durations_us[0];
        assert!((outer.self_us - expected_self).abs() < 1e-3);
        assert_eq!(t.kept.len(), 2, "only the first repetition is kept");
        assert_eq!(t.kept[1].parent, 0);
    }
}
