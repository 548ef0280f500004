//! Spans recorded around calls into the layers' public functions: name,
//! start, end, parent and the id of the operation they belong to.
//!
//! Tracing is off in the end-to-end run: [`Tracer::begin`] and
//! [`Tracer::end`] then record nothing.

use std::time::Instant;

/// Index of a span in its tracer (0 when tracing is off).
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Stage or call name, e.g. `put.encode` or `rpc.get`.
    pub name: &'static str,
    /// The operation this span belongs to.
    pub op: u64,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Seconds since the tracer's epoch.
    pub start: f64,
    /// Seconds since the tracer's epoch (`NaN` while open).
    pub end: f64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start) * 1e3
    }
}

/// A span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_op: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            next_op: 0,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// A fresh operation id.
    pub fn new_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Opens a span.
    pub fn begin(&mut self, op: u64, parent: Option<SpanId>, name: &'static str) -> SpanId {
        if !self.on {
            return 0;
        }
        self.spans.push(Span {
            name,
            op,
            parent,
            start: self.epoch.elapsed().as_secs_f64(),
            end: f64::NAN,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed().as_secs_f64();
        if let Some(s) = self.spans.get_mut(id) {
            s.end = now;
        }
    }

    /// Durations (ms) of every closed span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end.is_finite())
            .map(Span::ms)
            .collect()
    }

    /// For every span called `root`: its duration and the summed
    /// durations of its direct children (ms).
    pub fn coverage(&self, root: &str) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        for (id, s) in self.spans.iter().enumerate() {
            if s.name != root || !s.end.is_finite() {
                continue;
            }
            let children: f64 = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(id) && c.end.is_finite())
                .map(Span::ms)
                .sum();
            out.push((s.ms(), children));
        }
        out
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Number of operations that recorded at least one span.
    pub fn ops(&self) -> usize {
        let mut ops: Vec<u64> = self.spans.iter().map(|s| s.op).collect();
        ops.sort_unstable();
        ops.dedup();
        ops.len()
    }

    /// Writes every span as one JSON line: `id`, `op`, `parent` (or
    /// `null`), `name`, `start_s`, `end_s` (seconds since the tracer's
    /// epoch).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"op\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_s\": {:?}, \"end_s\": {:?}}}",
                s.op, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_sum_under_their_root() {
        let mut t = Tracer::new(true);
        let op = t.new_op();
        let root = t.begin(op, None, "op");
        let a = t.begin(op, Some(root), "a");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        let b = t.begin(op, Some(root), "b");
        t.end(b);
        t.end(root);
        let cov = t.coverage("op");
        assert_eq!(cov.len(), 1);
        let (wall, stages) = cov[0];
        assert!(stages >= 2.0 && stages <= wall, "{stages} vs {wall}");
        assert_eq!(t.durations("a").len(), 1);
        assert_eq!((t.len(), t.ops()), (3, 1));
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let op = t.new_op();
        let id = t.begin(op, None, "op");
        t.end(id);
        assert_eq!(t.len(), 0);
        assert!(t.coverage("op").is_empty());
    }
}
