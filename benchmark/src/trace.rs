//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! repository's crates; nothing inside the crates is instrumented. Each
//! span names its parent and the cell or request (`group`) it belongs
//! to, so self time — a span's duration minus the part its children
//! cover — can be computed per layer once the run is over.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Span id; 0 means "no parent".
pub type SpanId = u32;

/// One closed (or still open, `end == 0`) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub parent: SpanId,
    pub group: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals derived from the recorded spans.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    pub total_ns: u64,
    /// `(duration, self time)` of each span, in nanoseconds.
    each: Vec<(u64, u64)>,
}

fn median_us(mut v: Vec<u64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    v[(v.len() - 1) / 2] as f64 / 1e3
}

impl Layer {
    /// Median self time per span, in microseconds. Medians keep a rare
    /// preempted span from moving a per-call figure.
    pub fn self_us(&self) -> f64 {
        median_us(self.each.iter().map(|e| e.1).collect())
    }

    /// Median duration per span, in microseconds.
    pub fn total_us(&self) -> f64 {
        median_us(self.each.iter().map(|e| e.0).collect())
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder::with_epoch(Instant::now())
    }

    /// A recorder whose timestamps count from `epoch`, so recorders kept
    /// by different threads can be merged onto one timeline.
    pub fn with_epoch(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::with_capacity(1 << 12),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; ids start at 1.
    pub fn open(&mut self, name: &'static str, parent: SpanId, group: u64) -> SpanId {
        // Push first, so a reallocation of the span buffer is not timed.
        self.spans.push(Span {
            parent,
            group,
            name,
            start_ns: 0,
            end_ns: 0,
        });
        let start_ns = self.now_ns();
        let span = self.spans.last_mut().expect("just pushed");
        span.start_ns = start_ns;
        self.spans.len() as SpanId
    }

    pub fn close(&mut self, id: SpanId) {
        let end = self.now_ns();
        self.spans[id as usize - 1].end_ns = end;
    }

    /// Renames a span after the fact (when its outcome decides what it was).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        self.spans[id as usize - 1].name = name;
    }

    /// Moves `other`'s spans into this recorder, keeping parent links.
    /// Both must share an epoch (see [`Recorder::with_epoch`]).
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != 0 {
                s.parent += offset;
            }
            s
        }));
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        group: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, group);
        let out = f();
        self.close(id);
        out
    }

    /// Duration and self time summed per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let own = dur.saturating_sub(child_ns[i + 1]);
            let l = out.entry(s.name).or_default();
            l.total_ns += dur;
            l.each.push((dur, own));
        }
        out
    }

    /// Writes every span as a Chrome/Perfetto trace-event document
    /// (`ph:"X"` complete events, one track per group).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 64);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                r#"{{"name":"{}","ph":"X","pid":1,"tid":{},"ts":{:.3},"dur":{:.3},"args":{{"id":{},"parent":{}}}}}"#,
                s.name,
                s.group,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                i + 1,
                s.parent
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
