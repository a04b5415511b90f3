//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is a name, a start and an end (nanoseconds since the run's
//! epoch), the span that caused it, and a request id: the stream
//! coordinate of the image or request it served (or the graph node id for
//! per-node replay spans). Spans stay in memory while the run measures and
//! are written out once at the end.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `dnn.infer` or `xbar.mvm`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch (`start` until closed).
    pub end: u64,
    /// Index of the causing span in the same recorder.
    pub parent: Option<usize>,
    /// Stream coordinate (or graph node id) the span served.
    pub req: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span recorder over a shared epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder with room for `capacity` spans before it reallocates.
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Tracer {
            epoch,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let t = self.now();
        self.record(name, parent, req, t, t)
    }

    /// Closes an open span now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Records a span timed by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        start: u64,
        end: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce(&mut Self, usize) -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f(self, id);
        self.close(id);
        out
    }

    /// Moves another recorder's spans (same epoch) into this one, under
    /// `parent` where they had none.
    pub fn absorb(&mut self, other: Tracer, parent: Option<usize>) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Runs `f`, inside a span when a recorder is given.
pub fn spanned<T>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: Option<usize>,
    f: impl FnOnce() -> T,
) -> T {
    match tr {
        Some(t) => {
            let id = t.open(name, parent, 0);
            let out = f();
            t.close(id);
            out
        }
        None => f(),
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its children cover (overlapping children are counted once; a child
/// reaching outside its parent counts only inside it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let ps = &spans[p];
            let (a, b) = (s.start.max(ps.start), s.end.min(ps.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Totals of one span name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layer {
    /// Spans recorded.
    pub count: u64,
    /// Summed wall duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Median duration, ns.
    pub p50_ns: f64,
}

/// Per-name totals (count, total, self time, median duration).
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let selfs = self_times(spans);
    let mut durs: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let l = out.entry(s.name).or_default();
        l.count += 1;
        l.total_ns += s.dur();
        l.self_ns += own;
        durs.entry(s.name).or_default().push(s.dur() as f64);
    }
    for (name, d) in durs {
        out.get_mut(name).expect("same keys").p50_ns = crate::stats::median(&d);
    }
    out
}

/// Writes at most `cap` spans as CSV (`id,name,parent,req,start_ns,end_ns`)
/// and says in a comment line how many were left out.
pub fn write_csv(path: &Path, spans: &[Span], cap: usize) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "# {} spans recorded, {} written",
        spans.len(),
        spans.len().min(cap)
    )?;
    writeln!(w, "id,name,parent,req,start_ns,end_ns")?;
    for (i, s) in spans.iter().enumerate().take(cap) {
        let parent = s.parent.map_or(String::new(), |p| p.to_string());
        writeln!(w, "{i},{},{parent},{},{},{}", s.name, s.req, s.start, s.end)?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("op", None, 0, 100),
            span("a", Some(0), 10, 30),
            // Overlaps `a`: the covered interval is 10..40, counted once.
            span("b", Some(0), 20, 40),
            span("c", Some(0), 60, 70),
            // Grandchild: charged to `c`, not to `op`.
            span("d", Some(3), 62, 65),
            // Reaches past its parent: only 90..100 is covered.
            span("e", Some(0), 90, 130),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![100 - 30 - 10 - 10, 20, 20, 10 - 3, 3, 40]);
    }

    #[test]
    fn layer_totals_add_up() {
        let spans = [
            span("op", None, 0, 100),
            span("x", Some(0), 0, 40),
            span("op", None, 100, 150),
            span("x", Some(2), 110, 150),
        ];
        let l = layers(&spans);
        assert_eq!(l["op"].count, 2);
        assert_eq!(l["op"].total_ns, 150);
        assert_eq!(l["op"].self_ns, 60 + 10);
        assert_eq!(l["x"].self_ns, 80);
        assert_eq!(l["x"].p50_ns, 40.0);
        // Self times partition the root spans' wall time.
        let total_self: u64 = l.values().map(|l| l.self_ns).sum();
        assert_eq!(total_self, l["op"].total_ns);
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 4);
        let root = a.open("root", None, 0);
        let mut b = Tracer::new(epoch, 4);
        let inner = b.open("inner", None, 1);
        b.span("leaf", Some(inner), 1, |_, _| ());
        b.close(inner);
        a.absorb(b, Some(root));
        a.close(root);
        let s = a.spans();
        assert_eq!(s[1].parent, Some(root));
        assert_eq!(s[2].parent, Some(1));
        assert!(s.iter().all(|s| s.end >= s.start));
    }
}
