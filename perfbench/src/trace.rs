//! The benchmark's own spans: one per timed public call, recorded from
//! outside the program.
//!
//! A span has a name, a start and end (nanoseconds since the run's
//! origin), the id of the span that caused it, and the id of the session
//! or db operation it belongs to. Spans stay in memory while the run
//! measures and are written as JSONL when it ends. A span's self time is
//! its duration minus the time its children cover; children run on the
//! parent's thread, one after another, so they never overlap.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder for one thread. Ids are unique across recorders that
/// use different lanes, so the spans of several client threads merge.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    lane: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant, lane: u64) -> Self {
        Tracer {
            enabled,
            origin,
            lane: lane << 48,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// A fresh span id (allocated before the span's children run).
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        self.lane | self.next
    }

    /// Record a finished span; a no-op when tracing is off.
    pub fn record(
        &mut self,
        id: u64,
        parent: u64,
        op: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            self.spans.push(Span {
                id,
                parent,
                op,
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            });
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals derived from a span set.
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    pub durations_ns: Vec<f64>,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Durations and self time per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        let d = s.dur_ns();
        e.durations_ns.push(d as f64);
        e.total_ns += d;
        e.self_ns += d.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Share (percent) of the root spans' wall time spent as self time in
/// each layer, where a span's layer is its name up to the first `.`.
pub fn layer_self_pct(spans: &[Span], root: &str) -> BTreeMap<String, f64> {
    let stats = by_name(spans);
    let wall: u64 = stats.get(root).map_or(0, |s| s.total_ns);
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for (name, s) in &stats {
        let layer = if *name == root {
            "bench"
        } else {
            name.split('.').next().unwrap_or(name)
        };
        *out.entry(layer.to_string()).or_default() += s.self_ns as f64;
    }
    for v in out.values_mut() {
        *v = if wall == 0 {
            0.0
        } else {
            100.0 * *v / wall as f64
        };
    }
    out
}

/// Write spans as JSONL, one object per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(1, 0, "session", 0, 100),
            span(2, 1, "core.tune", 10, 90),
            span(3, 2, "apps.eval", 20, 30),
            span(4, 2, "apps.eval", 40, 60),
        ];
        let s = by_name(&spans);
        assert_eq!(s["session"].self_ns, 20);
        assert_eq!(s["core.tune"].self_ns, 50);
        assert_eq!(s["apps.eval"].self_ns, 30);
        let pct = layer_self_pct(&spans, "session");
        assert_eq!(pct["bench"], 20.0);
        assert_eq!(pct["core"], 50.0);
        assert_eq!(pct["apps"], 30.0);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_hands_out_ids() {
        let t0 = Instant::now();
        let mut off = Tracer::new(false, t0, 1);
        let a = off.id();
        let b = off.id();
        assert_ne!(a, b);
        off.record(a, 0, 0, "x", t0, t0 + Duration::from_nanos(5));
        assert!(off.into_spans().is_empty());
        let mut on = Tracer::new(true, t0, 2);
        let id = on.id();
        on.record(id, 0, 7, "x", t0, t0 + Duration::from_nanos(5));
        let spans = on.into_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].dur_ns(), 5);
        assert_ne!(spans[0].id, a, "lanes keep ids apart");
    }
}
