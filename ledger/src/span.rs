//! In-memory wall-clock spans recorded from the benchmark's own files,
//! around the public calls into each layer. Spans of one exchange share
//! an identifier; a layer's self time is its span minus the part of
//! that interval its children cover. Written out as Chrome trace JSON
//! when the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<operation>`; the layer is the crate or module called.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub exchange_id: u32,
    /// A leaf call replayed on the captured inputs of a parent that
    /// cannot be opened from outside: its duration is measured, its
    /// position inside the parent is laid out by the recorder.
    pub replayed: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    origin: Instant,
    /// Wall time spent in [`Recorder::off_clock`]: the recorder's clock
    /// stands still there, so replay work done between two live spans
    /// does not stretch the span that encloses them.
    off_clock_ns: u64,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    exchange_id: u32,
    /// Where the next replayed child of a span starts: the end of its
    /// previous one.
    replay_cursor: BTreeMap<usize, u64>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            off_clock_ns: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            exchange_id: 0,
            replay_cursor: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64 - self.off_clock_ns
    }

    /// Runs and times `f` with the recorder's clock stopped (the
    /// duration feeds [`Recorder::replay`] once the parent has closed).
    pub fn off_clock<T>(&mut self, f: impl FnOnce() -> T) -> (T, u64) {
        let started = Instant::now();
        let out = f();
        let ns = started.elapsed().as_nanos() as u64;
        self.off_clock_ns += ns;
        (out, ns)
    }

    /// Spans opened from now on belong to a new exchange.
    pub fn next_exchange(&mut self) {
        self.exchange_id += 1;
    }

    /// Opens a live span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            exchange_id: self.exchange_id,
            replayed: false,
        });
        self.stack.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a live span.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Records a replayed child of the closed span `parent` (one that
    /// has no live children): it starts where the parent's previous
    /// replayed child ended and is clamped so it never escapes the
    /// parent.
    pub fn replay(&mut self, parent: usize, name: &'static str, dur_ns: u64) -> usize {
        let (parent_start, parent_end) = (self.spans[parent].start_ns, self.spans[parent].end_ns);
        let start_ns = self
            .replay_cursor
            .get(&parent)
            .copied()
            .unwrap_or(parent_start)
            .min(parent_end);
        let end_ns = (start_ns + dur_ns).min(parent_end);
        self.replay_cursor.insert(parent, end_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            exchange_id: self.spans[parent].exchange_id,
            replayed: true,
        });
        self.spans.len() - 1
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(index, span)| {
            let Some(intervals) = children.get_mut(&index) else {
                return span.dur_ns();
            };
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.dur_ns() - covered
        })
        .collect()
}

/// The layer a span belongs to: the part of its name before the dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// What the traced pass reads off a set of spans.
pub struct Summary {
    /// Total self time per layer (ns), over every exchange.
    pub self_ns_by_layer: BTreeMap<&'static str, u64>,
    /// Durations (µs) of every occurrence of each span name.
    pub durations_us: BTreeMap<&'static str, Vec<f64>>,
    /// Σ of the root spans' durations (ns).
    pub root_ns: u64,
}

pub fn summarize(spans: &[Span]) -> Summary {
    let selfs = self_times_ns(spans);
    let mut summary = Summary {
        self_ns_by_layer: BTreeMap::new(),
        durations_us: BTreeMap::new(),
        root_ns: 0,
    };
    for (span, self_ns) in spans.iter().zip(selfs) {
        // `layer_of` borrows from the 'static name, so the key is too.
        let layer: &'static str = layer_of(span.name);
        *summary.self_ns_by_layer.entry(layer).or_default() += self_ns;
        summary
            .durations_us
            .entry(span.name)
            .or_default()
            .push(span.dur_ns() as f64 / 1e3);
        if span.parent.is_none() {
            summary.root_ns += span.dur_ns();
        }
    }
    summary
}

/// Writes `spans` as Chrome trace-event JSON (complete events, one
/// track; loadable in Perfetto).
pub fn write_chrome_trace(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
    for (index, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or(-1, |p| p as i64);
        write!(
            out,
            "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":1,\"args\":{{\"span\":{index},\"parent\":{parent},\
             \"exchange_id\":{},\"replayed\":{}}}}}",
            if index == 0 { "" } else { ",\n" },
            span.name,
            layer_of(span.name),
            span.start_ns as f64 / 1e3,
            span.dur_ns() as f64 / 1e3,
            span.exchange_id,
            span.replayed,
        )?;
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            exchange_id: 1,
            replayed: false,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("net.exchange", 0, 100, None),
            // Two siblings with a 10 ns gap between them.
            span("core.request", 10, 30, Some(0)),
            span("runtime.serve", 40, 90, Some(0)),
            // Nested under serve.
            span("crypto.sign", 50, 70, Some(2)),
            span("trie.prove", 70, 75, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 25, 20, 5]);
        // Self times telescope: they sum to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_to_the_parent() {
        let spans = vec![
            span("a.root", 100, 200, None),
            span("b.x", 110, 150, Some(0)),
            span("b.y", 140, 160, Some(0)),
            span("b.z", 190, 230, Some(0)),
        ];
        // Union inside the parent: [110,160] + [190,200] = 60.
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn replayed_children_tile_the_parent_and_never_escape_it() {
        let mut rec = Recorder::new();
        rec.next_exchange();
        let parent = rec.open("runtime.serve");
        rec.close(parent);
        rec.spans[parent].start_ns = 1_000;
        rec.spans[parent].end_ns = 1_100;
        let first = rec.replay(parent, "core.verify", 60);
        let nested = rec.replay(first, "crypto.recover", 50);
        let second = rec.replay(parent, "crypto.sign", 70);
        assert_eq!(
            (rec.spans[first].start_ns, rec.spans[first].end_ns),
            (1_000, 1_060)
        );
        assert_eq!(
            (rec.spans[nested].start_ns, rec.spans[nested].end_ns),
            (1_000, 1_050)
        );
        // Clamped to the parent's end: 40 ns of the 70 fit.
        assert_eq!(
            (rec.spans[second].start_ns, rec.spans[second].end_ns),
            (1_060, 1_100)
        );
        assert!(rec.spans[second].replayed && rec.spans[second].exchange_id == 1);
        assert_eq!(self_times_ns(&rec.spans), vec![0, 10, 50, 40]);
    }

    #[test]
    fn summary_groups_self_time_by_layer() {
        let spans = vec![
            span("net.exchange", 0, 100, None),
            span("crypto.sign", 0, 30, Some(0)),
            span("crypto.recover", 30, 90, Some(0)),
        ];
        let summary = summarize(&spans);
        assert_eq!(summary.root_ns, 100);
        assert_eq!(summary.self_ns_by_layer["crypto"], 90);
        assert_eq!(summary.self_ns_by_layer["net"], 10);
        assert_eq!(summary.durations_us["crypto.recover"], vec![0.06]);
        assert_eq!(layer_of("trie.multiproof_into"), "trie");
    }
}
