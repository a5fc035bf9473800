//! Spans recorded around the benchmark's own calls into each layer.
//!
//! A span has a name, the layer it is booked to, start and end (ns since
//! the run's epoch), the span that caused it, and an identifier shared by
//! every span of one segment (`trip << 8 | seq`, 0 when the span is not
//! about one segment). Each thread records into its own [`Tracer`]; the
//! tracers are merged when the run ends and written out as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. `parent` indexes the same tracer's span list.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

/// The identifier every span of one segment shares.
pub fn segment_id(trip: u64, seq: u32) -> u64 {
    trip << 8 | u64::from(seq & 0xff)
}

/// A per-thread span recorder. A disabled tracer records nothing and
/// costs one branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer { enabled, epoch, spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
        id: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, layer, start_ns, end_ns: start_ns, parent, id });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.begin(name, layer, parent, id);
        let out = f();
        self.end(s);
        out
    }

    /// Appends another tracer's spans, re-basing their parent indexes.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (children may overlap each other
/// and may stick out of the parent; only the covered part inside counts).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self time per layer, in seconds.
pub fn layer_self_s(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer).or_insert(0.0) += t as f64 * 1e-9;
    }
    out
}

/// Writes the spans as JSON lines (one object per span, `parent` as an
/// index into the file's line order).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"i\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
             \"parent\":{parent},\"id\":{}}}",
            s.name, s.layer, s.start_ns, s.end_ns, s.id
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: layer, layer, start_ns, end_ns, parent, id: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("bench", 0, 100, None),
            // Two children overlapping on [20, 30): covered = [10, 40).
            span("net", 10, 30, Some(0)),
            span("net", 20, 40, Some(0)),
            // A child nested inside a child does not touch the root.
            span("serve", 25, 28, Some(2)),
            // A child sticking out of its parent only counts inside it.
            span("core", 90, 130, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t, vec![100 - 30 - 10, 20, 20 - 3, 3, 40]);
        let by_layer = layer_self_s(&spans);
        assert!((by_layer["net"] - 37e-9).abs() < 1e-15);
        assert!((by_layer["bench"] - 60e-9).abs() < 1e-15);
    }

    #[test]
    fn absorb_rebases_parents_and_disabled_records_nothing() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        let root = a.begin("root", "bench", None, 0);
        a.span("child", "net", root, segment_id(7, 3), || ());
        a.end(root);
        let mut b = Tracer::new(true, epoch);
        let r = b.begin("r", "bench", None, 0);
        b.span("c", "core", r, 0, || ());
        b.end(r);
        a.absorb(b);
        assert_eq!(a.spans.len(), 4);
        assert_eq!(a.spans[3].parent, Some(2));
        assert_eq!(a.spans[1].id, 7 << 8 | 3);
        let mut off = Tracer::new(false, epoch);
        assert_eq!(off.span("x", "net", None, 0, || 5), 5);
        assert!(off.spans.is_empty());
    }
}
