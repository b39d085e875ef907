//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is `(name, start, end, parent, step, thread)`. Spans are kept
//! in memory and written out when the run ends, as Chrome trace-event
//! JSON plus a per-name self-time table (self time = duration minus the
//! part covered by child spans). Nothing is recorded inside the program:
//! a span covers one call into a public function.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans kept per run; later spans are counted but dropped.
const MAX_SPANS: usize = 400_000;

/// Handle to a recorded span (or to nothing, when tracing was off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// No span: the parent of top-level spans, and the handle an
    /// unrecorded span returns.
    pub const ROOT: SpanId = SpanId(usize::MAX);
}

/// One recorded span; times are µs since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `spray.RegionExecutor::run`.
    pub name: &'static str,
    /// Start, µs.
    pub start_us: f64,
    /// End, µs (NaN while open).
    pub end_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Step (or job) the span belongs to.
    pub step: u64,
    /// Small per-thread id.
    pub tid: u64,
}

/// In-memory span store shared by every thread of a run.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

fn thread_tag() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static TAG: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    TAG.with(|t| *t)
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty store; span times count from now.
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.t0).as_secs_f64() * 1e6
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
    }

    /// Opens a span starting at `at` when `on`; returns its handle.
    pub fn begin_at(
        &self,
        on: bool,
        name: &'static str,
        parent: SpanId,
        step: u64,
        at: Instant,
    ) -> SpanId {
        if !on {
            return SpanId::ROOT;
        }
        let mut spans = self.lock();
        if spans.len() >= MAX_SPANS {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return SpanId::ROOT;
        }
        spans.push(Span {
            name,
            start_us: self.us(at),
            end_us: f64::NAN,
            parent: (parent != SpanId::ROOT).then_some(parent.0),
            step,
            tid: thread_tag(),
        });
        SpanId(spans.len() - 1)
    }

    /// Opens a span starting now when `on`.
    pub fn begin(&self, on: bool, name: &'static str, parent: SpanId, step: u64) -> SpanId {
        self.begin_at(on, name, parent, step, Instant::now())
    }

    /// Closes `id` at `at` (no-op for an unrecorded span).
    pub fn end_at(&self, id: SpanId, at: Instant) {
        if id != SpanId::ROOT {
            let us = self.us(at);
            self.lock()[id.0].end_us = us;
        }
    }

    /// Closes `id` now.
    pub fn end(&self, id: SpanId) {
        self.end_at(id, Instant::now());
    }

    /// Runs `f`, recording it as a span when `on`; returns the result
    /// and the call's wall ms (measured either way).
    pub fn time<R>(
        &self,
        on: bool,
        name: &'static str,
        parent: SpanId,
        step: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let t = Instant::now();
        let id = self.begin_at(on, name, parent, step, t);
        let r = f();
        let end = Instant::now();
        self.end_at(id, end);
        (r, (end - t).as_secs_f64() * 1e3)
    }

    /// Recorded spans (a copy).
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Per span: its duration and the duration of its direct children.
    fn child_cover(spans: &[Span]) -> Vec<f64> {
        let mut cover = vec![0.0; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                cover[p] += s.end_us - s.start_us;
            }
        }
        cover
    }

    /// Median ms of the spans named `name` not covered by their children.
    pub fn unattributed_ms(&self, name: &str) -> f64 {
        let spans = self.spans();
        let cover = Self::child_cover(&spans);
        let v: Vec<f64> = spans
            .iter()
            .zip(&cover)
            .filter(|(s, _)| s.name == name && !s.end_us.is_nan())
            .map(|(s, c)| (s.end_us - s.start_us - c) / 1e3)
            .collect();
        crate::stats::median(&v)
    }

    /// Per span name: `(count, total ms, self ms)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let spans = self.spans();
        let cover = Self::child_cover(&spans);
        let mut table = BTreeMap::new();
        for (s, c) in spans.iter().zip(&cover) {
            if s.end_us.is_nan() {
                continue;
            }
            let d = s.end_us - s.start_us;
            let e = table.entry(s.name).or_insert((0u64, 0.0, 0.0));
            e.0 += 1;
            e.1 += d / 1e3;
            e.2 += (d - c).max(0.0) / 1e3;
        }
        table
    }

    /// Spans dropped after the store filled.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The spans as Chrome trace-event JSON (complete `X` events), with
    /// `meta` (a JSON object) stored under `"otherData"`.
    pub fn chrome_json(&self, meta: &str) -> String {
        let spans = self.spans();
        let mut s = String::with_capacity(spans.len() * 128 + meta.len() + 64);
        s.push_str("{\"otherData\":");
        s.push_str(meta);
        s.push_str(",\"traceEvents\":[");
        for (i, sp) in spans.iter().enumerate() {
            if sp.end_us.is_nan() {
                continue;
            }
            if !s.ends_with('[') {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{i},\"parent\":{},\"step\":{}}}}}",
                sp.name,
                sp.name.split('.').next().unwrap_or(sp.name),
                sp.start_us,
                sp.end_us - sp.start_us,
                sp.tid,
                sp.parent.map_or("null".to_string(), |p| p.to_string()),
                sp.step,
            );
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let tr = Tracer::new();
        let t0 = Instant::now();
        let ms = std::time::Duration::from_millis;
        let root = tr.begin_at(true, "step", SpanId::ROOT, 0, t0);
        let child = tr.begin_at(true, "spray.run", root, 0, t0 + ms(1));
        tr.end_at(child, t0 + ms(4));
        tr.end_at(root, t0 + ms(5));
        let off = tr.begin(false, "step", SpanId::ROOT, 1);
        assert_eq!(off, SpanId::ROOT);
        tr.end(off);
        let table = tr.self_times();
        let (n, total, own) = table["step"];
        assert_eq!(n, 1);
        assert!((total - 5.0).abs() < 1e-6 && (own - 2.0).abs() < 1e-6);
        assert!((tr.unattributed_ms("step") - 2.0).abs() < 1e-6);
        let json = tr.chrome_json("{}");
        assert!(json.contains("\"name\":\"spray.run\"") && json.contains("\"parent\":0"));
    }
}
