//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions, kept in a `Vec`, and written out once
//! when the run ends. A disabled [`Tracer`] reads no clock and stores
//! nothing, so the same pass can run with and without tracing and the
//! difference is the tracing overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span; [`ROOT`] marks a span without a parent.
pub type SpanId = usize;

/// Parent id of a top-level span.
pub const ROOT: SpanId = usize::MAX;

/// One timed call: name, causing span, start and end in nanoseconds
/// since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: SpanId,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: enabled.then(Instant::now),
            spans: Vec::new(),
        }
    }

    fn now_ns(origin: Instant) -> u64 {
        u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let Some(origin) = self.origin else {
            return ROOT;
        };
        let start_ns = Self::now_ns(origin);
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        if let (Some(origin), Some(span)) = (self.origin, self.spans.get_mut(id)) {
            span.end_ns = Self::now_ns(origin);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name aggregates over every recorded span.
    pub fn stats(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut durs: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for s in &self.spans {
            durs.entry(s.name).or_default().push(s.dur_ns());
        }
        durs.into_iter()
            .map(|(name, mut d)| {
                d.sort_unstable();
                (name, SpanStats::from_sorted(&d))
            })
            .collect()
    }

    /// Self time of span `id`: its duration minus the part its direct
    /// children cover (children never overlap: the benchmark is single
    /// threaded while tracing).
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == id)
            .map(Span::dur_ns)
            .sum();
        self.spans[id].dur_ns().saturating_sub(covered)
    }

    /// Every span as one JSON array of `[id, parent, name, start_ns,
    /// dur_ns]` rows (`parent` is -1 for a top-level span).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::try_from(s.parent).unwrap_or(-1)
            };
            let _ = write!(
                out,
                "[{id},{parent},\"{}\",{},{}]",
                s.name,
                s.start_ns,
                s.dur_ns()
            );
        }
        out.push(']');
        out
    }
}

/// Count, busy time and latency quantiles of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStats {
    pub count: u64,
    pub busy_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

impl SpanStats {
    fn from_sorted(durs_ns: &[u64]) -> Self {
        let us: Vec<f64> = durs_ns.iter().map(|&d| d as f64 / 1e3).collect();
        SpanStats {
            count: durs_ns.len() as u64,
            busy_s: durs_ns.iter().map(|&d| d as f64).sum::<f64>() / 1e9,
            p50_us: quantile(&us, 0.5),
            p99_us: quantile(&us, 0.99),
        }
    }
}

/// Linear-interpolated quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    quantile(&s, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.99) - 4.96).abs() < 1e-9);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn self_time_excludes_direct_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("root", ROOT);
        t.time("child", root, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(root);
        let root_dur = t.spans()[root].dur_ns();
        let child_dur = t.spans()[1].dur_ns();
        assert!(child_dur >= 5_000_000);
        assert_eq!(t.self_ns(root), root_dur - child_dur);
        let stats = t.stats();
        assert_eq!(stats["child"].count, 1);
        assert!(t.to_json().starts_with("[[0,-1,\"root\","));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", ROOT);
        t.end(id);
        assert_eq!(t.time("y", id, || 7), 7);
        assert!(t.spans().is_empty());
        assert!(t.stats().is_empty());
    }
}
