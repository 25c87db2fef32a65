//! The traced run's span recorder.
//!
//! Spans are kept in memory — name, start, end, parent, and the id of the
//! request they belong to — and written out once, when the benchmark
//! ends. Every span is opened by the benchmark's own code around a call
//! into one layer's public functions; nothing inside the program is
//! instrumented. A disabled tracer runs the wrapped call and records
//! nothing, so the untraced and traced runs execute the same code.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Shared by every span of one request (or one replayed operation).
    pub request: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// `layer.what`; the layer is the part before the first dot.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans for one thread.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    request: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recording tracer; `epoch` is the common time origin of every
    /// tracer whose spans are later merged.
    pub fn enabled(epoch: Instant) -> Tracer {
        Tracer {
            enabled: true,
            epoch,
            request: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::enabled(Instant::now())
        }
    }

    /// Tags the spans opened from now on with `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Runs `f` inside a span named `name`, nested in whatever span is
    /// open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            request: self.request,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Concatenates the spans of several tracers, rebasing parent indices.
pub fn merge(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for part in parts {
        let offset = all.len();
        all.extend(part.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
    all
}

/// Self time per layer, in nanoseconds: each span's duration minus the
/// part of it that its child spans cover.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            covered[p] += span.duration_ns();
        }
    }
    let mut by_layer = BTreeMap::new();
    for (span, covered) in spans.iter().zip(covered) {
        *by_layer.entry(span.layer()).or_insert(0) += span.duration_ns().saturating_sub(covered);
    }
    by_layer
}

/// Durations, in nanoseconds, of every span with this name.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Writes the spans as tab-separated rows:
/// `id parent request name start_ns end_ns` (`parent` is `-` for roots).
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{id}\t{parent}\t{}\t{}\t{}\t{}",
            s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                request: 1,
                parent: None,
                name: "net.request",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                request: 1,
                parent: Some(0),
                name: "service.query",
                start_ns: 10,
                end_ns: 70,
            },
        ];
        let by_layer = layer_self_ns(&spans);
        assert_eq!(by_layer["net"], 40);
        assert_eq!(by_layer["service"], 60);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::disabled();
        let v = tr.span("a.b", |tr| tr.span("c.d", |_| 7));
        assert_eq!(v, 7);
        assert!(tr.into_spans().is_empty());
    }

    #[test]
    fn nested_spans_link_to_parent() {
        let mut tr = Tracer::enabled(Instant::now());
        tr.set_request(9);
        tr.span("a.b", |tr| tr.span("c.d", |_| ()));
        let spans = merge(vec![Vec::new(), tr.into_spans()]);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 9);
    }
}
