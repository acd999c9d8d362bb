//! In-memory spans for the traced run: name, start, end, parent and the
//! id of the request they belong to, written out when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. `parent` and `id` index the tracer's span list
/// (`parent == u32::MAX` for a root).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u64,
}

/// Root marker for [`Span::parent`].
pub const ROOT: u32 = u32::MAX;

/// A span recorder shared by every thread of the traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Where a replay's spans go. A [`Tracer`] records them; [`Untraced`]
/// runs the same replay code without reading a clock or recording
/// anything, so the two runs of one replay differ only by the tracing.
pub trait Spans: Sync {
    /// Runs `f` inside a span; returns its value and the span's length
    /// in nanoseconds (0 when untraced).
    fn in_span<T>(
        &self,
        name: &'static str,
        request: u64,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u64);

    /// Opens a span whose children are recorded before it closes: returns
    /// its id now; [`Spans::close_span`] fills in its end.
    fn open_span(&self, name: &'static str, request: u64, parent: u32) -> u32;

    /// Closes a span opened with [`Spans::open_span`].
    fn close_span(&self, id: u32);
}

/// The untraced side of a replay.
pub struct Untraced;

impl Spans for Untraced {
    fn in_span<T>(&self, _: &'static str, _: u64, _: u32, f: impl FnOnce() -> T) -> (T, u64) {
        (f(), 0)
    }

    fn open_span(&self, _: &'static str, _: u64, _: u32) -> u32 {
        ROOT
    }

    fn close_span(&self, _: u32) {}
}

impl Spans for Tracer {
    fn in_span<T>(
        &self,
        name: &'static str,
        request: u64,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let value = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        let span = Span { name, start_ns: start, end_ns: end, parent, request };
        self.spans.lock().expect("a traced thread panicked while recording a span").push(span);
        (value, end - start)
    }

    fn open_span(&self, name: &'static str, request: u64, parent: u32) -> u32 {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let mut spans = self.spans.lock().expect("a traced thread panicked while recording a span");
        spans.push(Span { name, start_ns: start, end_ns: start, parent, request });
        (spans.len() - 1) as u32
    }

    fn close_span(&self, id: u32) {
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans.lock().expect("a traced thread panicked while recording a span")[id as usize]
            .end_ns = end;
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Mutex::new(Vec::with_capacity(1 << 16)) }
    }

    /// Writes every span as a tab-separated line:
    /// `id name parent request start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("a traced thread panicked while recording a span");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tparent\trequest\tstart_ns\tend_ns")?;
        for (id, s) in spans.iter().enumerate() {
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            writeln!(
                out,
                "{id}\t{}\t{parent}\t{}\t{}\t{}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_inside_their_parent() {
        let t = Tracer::new();
        let root = t.open_span("request", 7, ROOT);
        let (v, ns) = t.in_span("walk", 7, root, || 41 + 1);
        t.close_span(root);
        assert_eq!(v, 42);
        let spans = t.spans.lock().unwrap();
        let (r, c) = (spans[root as usize], spans[1]);
        assert_eq!(c.end_ns - c.start_ns, ns);
        assert_eq!((c.parent, c.request), (root, 7));
        assert!(r.start_ns <= c.start_ns && c.end_ns <= r.end_ns);
    }

    #[test]
    fn untraced_runs_the_body_and_records_nothing() {
        let sink: Untraced = Untraced;
        let root = sink.open_span("request", 7, ROOT);
        assert_eq!(sink.in_span("walk", 7, root, || 41 + 1), (42, 0));
        sink.close_span(root);
    }
}
