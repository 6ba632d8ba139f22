//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into the simulator's public API from
//! the benchmark's own code: each has a name, a start and end offset from
//! the recorder's origin, and the span that was open when it started.
//! A span's *self time* is its duration minus the time its child spans
//! cover, so per-layer self times sum to the wall time of the root span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans when enabled; a disabled recorder only runs the
/// closures, so untraced runs pay nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Index of the next span to be recorded; spans recorded from here on
    /// are `&spans()[mark..]`.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals over `spans`: `(inclusive_s, self_s)`.
    pub fn totals(spans: &[Span]) -> BTreeMap<String, (f64, f64)> {
        let mut child_ns: BTreeMap<usize, u64> = BTreeMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.duration_ns();
            }
        }
        let mut out: BTreeMap<String, (f64, f64)> = BTreeMap::new();
        for s in spans {
            let dur = s.duration_ns();
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = out.entry(s.name.clone()).or_default();
            e.0 += dur as f64 * 1e-9;
            e.1 += own as f64 * 1e-9;
        }
        out
    }

    /// The recorded spans as JSON, tagged with the run identifier every
    /// span of this run shares.
    pub fn to_json(&self, run_id: &str, fingerprint: &str) -> String {
        let mut o = String::new();
        let _ = write!(
            o,
            "{{\"run_id\":\"{run_id}\",\"fingerprint\":{fingerprint},\"spans\":["
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                o,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns
            );
        }
        o.push_str("]}\n");
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("root", |t| {
            t.span("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let totals = Tracer::totals(t.spans());
        let (root_incl, root_self) = totals["root"];
        let (child_incl, child_self) = totals["child"];
        assert_eq!(child_incl, child_self);
        assert!((root_self + child_incl - root_incl).abs() < 1e-9);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
