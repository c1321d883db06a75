//! In-memory spans for the traced run.
//!
//! Each span records its name, start, end and parent. Spans stay in
//! memory and are written out once, when the run ends. A span's self
//! time is its duration minus the part its children cover; a layer's
//! self time is the sum over the spans named after it (`<layer>.*`).
//!
//! Work that happens in one call but belongs to two crates (a
//! `System::tick` runs the core and the memory hierarchy) cannot be
//! split by spans recorded outside the program. For those the benchmark
//! measures the inner crate by replaying its calls separately and
//! records the estimate with [`Tracer::add_estimate`].

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Self time moved from one layer to another by a separate
    /// measurement: `(from, to, ns)`.
    moves: Vec<(&'static str, &'static str, u64)>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            moves: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records a span measured by the caller (`start_ns`/`end_ns` from
    /// [`Tracer::now_ns`]), child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns,
        });
    }

    /// Moves `ns` of self time from layer `from` to layer `to`: `to`'s
    /// work ran inside a `from` span and was timed by a separate
    /// measurement of the same calls.
    pub fn add_estimate(&mut self, from: &'static str, to: &'static str, ns: u64) {
        self.moves.push((from, to, ns));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Self time per layer, where a span `a.b` belongs to layer `a`,
    /// after the recorded estimates are moved.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(layer_of(s.name)).or_default() += ns as f64;
        }
        for &(from, to, ns) in &self.moves {
            *out.entry(from).or_default() -= ns as f64;
            *out.entry(to).or_default() += ns as f64;
        }
        out
    }

    /// Total duration of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Writes every span, one per line: `id parent name start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(f, "{i}\t{parent}\t{}\t{}\t{}", s.name, s.start_ns, s.end_ns)?;
        }
        for (from, to, ns) in &self.moves {
            writeln!(f, "#estimate\t{from}\t{to}\t{ns}")?;
        }
        f.flush()
    }
}

/// `sim.tick` → `sim`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.record("job.run", 0, 100);
        t.spans[0].parent = None;
        t.open.push(0);
        t.record("sim.new", 10, 30);
        t.record("mem.replay", 40, 70);
        t.open.pop();
        assert_eq!(t.self_ns(), vec![50, 20, 30]);
        let layers = t.layer_self_ns();
        assert_eq!(layers["job"], 50.0);
        assert_eq!(layers["sim"], 20.0);
        t.add_estimate("sim", "isa", 5);
        let layers = t.layer_self_ns();
        assert_eq!((layers["sim"], layers["isa"]), (15.0, 5.0));
    }

    #[test]
    fn nested_spans_get_parents() {
        let mut t = Tracer::new();
        t.span("a.outer", |t| t.span("b.inner", |_| ()));
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans()[0].dur_ns() >= t.spans()[1].dur_ns());
    }
}
