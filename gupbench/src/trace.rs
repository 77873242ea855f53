//! In-memory spans and counts for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions: name, start, end, parent span and request id. Counts are
//! recorded at the same call boundaries. Nothing is written until the run
//! ends ([`Tracer::write`]).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

#[derive(Clone, Debug)]
struct Count {
    name: &'static str,
    request: u64,
    value: f64,
}

pub struct Tracer {
    epoch: Instant,
    /// `false` for a tracer that records nothing (see [`Tracer::off`]).
    on: bool,
    spans: Vec<Span>,
    counts: Vec<Count>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            on: true,
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// A tracer that records nothing: spans only run their closure. The same
    /// probe code run with it is the untraced baseline that the tracing
    /// overhead is measured against.
    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Tracer::new(Instant::now())
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn start(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map(|p| p.0),
            request,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn end(&mut self, span: SpanId) {
        if !self.on {
            return;
        }
        self.spans[span.0].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let id = self.start(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    pub fn count(&mut self, name: &'static str, request: u64, value: f64) {
        if !self.on {
            return;
        }
        self.counts.push(Count {
            name,
            request,
            value,
        });
    }

    fn duration_ns(&self, i: usize) -> u64 {
        self.spans[i].end_ns.saturating_sub(self.spans[i].start_ns)
    }

    /// Per span name: (number of spans, total self time in µs). A span's self
    /// time is its duration minus the time its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                child_ns[p] += self.duration_ns(i);
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += self.duration_ns(i).saturating_sub(child_ns[i]) as f64 / 1e3;
        }
        out
    }

    /// Durations in µs of every span named `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.duration_ns(i) as f64 / 1e3)
            .collect()
    }

    /// Sum and number of the counts named `name`.
    pub fn count_total(&self, name: &str) -> (f64, usize) {
        self.counts
            .iter()
            .filter(|c| c.name == name)
            .fold((0.0, 0), |(sum, n), c| (sum + c.value, n + 1))
    }

    /// Writes every span and count as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        for c in &self.counts {
            writeln!(
                out,
                "{{\"count\": \"{}\", \"request\": {}, \"value\": {}}}",
                c.name, c.request, c.value
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.start("root", None, 7);
        t.span("child", Some(root), 7, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end(root);
        let times = t.self_times();
        let (n_child, child_us) = times["child"];
        let (_, root_us) = times["root"];
        assert_eq!(n_child, 1);
        assert!(child_us >= 5000.0);
        assert!(root_us < child_us);
        assert_eq!(t.durations_us("root").len(), 1);
    }

    #[test]
    fn an_off_tracer_runs_spans_and_records_nothing() {
        let mut t = Tracer::off();
        let root = t.start("root", None, 1);
        assert_eq!(t.span("child", Some(root), 1, || 41 + 1), 42);
        t.count("n", 1, 3.0);
        t.end(root);
        assert!(t.self_times().is_empty());
        assert_eq!(t.count_total("n"), (0.0, 0));
    }
}
