//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. Written out as JSON lines at the end of a
//! traced run.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer function, e.g. `http.parse`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub req: u64,
}

/// Span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// When the recorder's clock started.
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Close span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, req);
        let out = std::hint::black_box(f());
        self.end(id);
        out
    }

    /// Record a span measured elsewhere (a client thread's request,
    /// already converted to this recorder's clock).
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Self time of every span in µs (duration minus the part of it that
    /// its children cover), grouped by span name.
    #[must_use]
    pub fn self_times_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(covered);
            out.entry(s.name).or_default().push(self_ns as f64 / 1e3);
        }
        out
    }

    /// Write every span as one JSON line.
    ///
    /// # Errors
    /// File-system errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"req":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.req
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
        let mut t = Tracer::new();
        t.push(Span {
            name: "root",
            start_ns: 0,
            end_ns: 10_000,
            parent: None,
            req: 1,
        });
        t.push(Span {
            name: "a",
            start_ns: 1_000,
            end_ns: 4_000,
            parent: Some(0),
            req: 1,
        });
        t.push(Span {
            name: "b",
            start_ns: 3_000,
            end_ns: 6_000,
            parent: Some(0),
            req: 1,
        });
        let st = t.self_times_us();
        assert_eq!(st["root"], vec![5.0]);
        assert_eq!(st["a"], vec![3.0]);
    }
}
