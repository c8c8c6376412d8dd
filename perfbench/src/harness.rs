//! Timing, tracing and bookkeeping shared by the workloads.
//!
//! Every call into the engine is timed from outside through
//! [`Recorder::call`]: two `Instant` reads around the call, in traced and
//! untraced episodes alike, because the per-call latencies are end-to-end
//! metrics.  Tracing adds only the span record (name, start, end, parent)
//! pushed to an in-memory vector and written out when the run ends.  No
//! tracing goes inside the engine.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in the tracer, used as a parent link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// The parent of top-level spans, and the id handed out while tracing is off.
pub const NO_SPAN: SpanId = SpanId(u32::MAX);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: SpanId,
    start_ns: u64,
    end_ns: u64,
}

/// Self and total time of all spans that share one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_us: f64,
    pub self_us: f64,
}

/// In-memory span store.  While off, `open` returns [`NO_SPAN`] and
/// nothing is recorded.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            on: false,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.t0).as_nanos() as u64
    }

    /// Open a parent span (an episode, a setup, a workload step).
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            parent,
            start_ns: now,
            end_ns: now,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        if id != NO_SPAN {
            let now = self.ns(Instant::now());
            self.spans[id.0 as usize].end_ns = now;
        }
    }

    fn record(&mut self, name: &'static str, parent: SpanId, start: Instant, end: Instant) {
        if self.on {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name,
                parent,
                start_ns,
                end_ns,
            });
        }
    }

    /// Totals per span name.  A span's self time is its duration minus
    /// the durations of its children; the closed loop runs one call at a
    /// time, so children never overlap.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_SPAN {
                child_ns[s.parent.0 as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_us += dur as f64 / 1e3;
            t.self_us += dur.saturating_sub(child) as f64 / 1e3;
        }
        out
    }

    /// All spans as a JSON array of `[name, parent, start_ns, end_ns]`.
    pub fn spans_json(&self) -> String {
        let mut s = String::with_capacity(self.spans.len() * 48 + 2);
        s.push('[');
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = if sp.parent == NO_SPAN {
                -1
            } else {
                sp.parent.0 as i64
            };
            let _ = write!(
                s,
                "[\"{}\",{},{},{}]",
                sp.name, parent, sp.start_ns, sp.end_ns
            );
        }
        s.push(']');
        s
    }
}

/// Everything one run measures: per-call latency series, one value per
/// episode for episode-level quantities, failure counts and the tracer.
#[derive(Debug)]
pub struct Recorder {
    pub tr: Tracer,
    /// Per-call latencies in µs, keyed by series name.
    pub lat: BTreeMap<&'static str, Vec<f64>>,
    /// One value per episode, keyed by quantity name.
    pub ep: BTreeMap<&'static str, Vec<f64>>,
    /// Engine calls and oracle checks attempted.
    pub attempted: u64,
    /// Engine calls that returned `Err`, plus failed oracle checks.
    pub failed: u64,
    /// The first failure messages, for the run record.
    pub failures: Vec<String>,
    /// Counter snapshots `(label, [(counter, value)])`, written to the trace.
    pub snapshots: Vec<(String, Vec<(&'static str, u64)>)>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            tr: Tracer::new(),
            lat: BTreeMap::new(),
            ep: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            snapshots: Vec::new(),
        }
    }

    /// Time one call into the engine.  Returns the call's result and its
    /// latency in µs; the latency is not stored, so the caller files it
    /// under whichever series it belongs to.
    pub fn time<R>(
        &mut self,
        span: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let r = std::hint::black_box(f());
        let end = Instant::now();
        self.tr.record(span, parent, start, end);
        self.attempted += 1;
        (r, end.duration_since(start).as_secs_f64() * 1e6)
    }

    /// [`Recorder::time`] for a fallible call: an `Err` counts as a
    /// failed operation.
    pub fn call<R, E: std::fmt::Display>(
        &mut self,
        span: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> Result<R, E>,
    ) -> (Option<R>, f64) {
        let (r, us) = self.time(span, parent, f);
        match r {
            Ok(v) => (Some(v), us),
            Err(e) => {
                self.fail(format!("{span}: {e}"));
                (None, us)
            }
        }
    }

    pub fn push(&mut self, series: &'static str, us: f64) {
        self.lat.entry(series).or_default().push(us);
    }

    pub fn episode(&mut self, name: &'static str, v: f64) {
        self.ep.entry(name).or_default().push(v);
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(msg);
        }
    }

    /// Record one oracle check.  Checks run outside every timed call.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(format!("oracle {what}: {e}"));
        }
    }

    pub fn snapshot(&mut self, label: String, counters: Vec<(&'static str, u64)>) {
        if self.tr.is_on() {
            self.snapshots.push((label, counters));
        }
    }

    pub fn series(&self, name: &str) -> &[f64] {
        self.lat.get(name).map_or(&[], |v| v.as_slice())
    }

    pub fn episodes(&self, name: &str) -> &[f64] {
        self.ep.get(name).map_or(&[], |v| v.as_slice())
    }
}

/// Nearest-rank percentile (`q` in (0, 1]) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples strictly above the nearest-rank `q` percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Share of the summed time taken by the slowest `frac` of the samples.
pub fn tail_share(samples: &[f64], frac: f64) -> f64 {
    let total: f64 = samples.iter().sum();
    if samples.is_empty() || total <= 0.0 {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    let k = ((frac * v.len() as f64).ceil() as usize).max(1);
    v[..k].iter().sum::<f64>() / total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(beyond(v.len(), 0.99), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(percentile(&[], 0.99), 0.0);
    }

    #[test]
    fn tail_share_of_a_single_outlier() {
        let mut v = vec![1.0; 99];
        v.push(99.0);
        assert!((tail_share(&v, 0.01) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new();
        tr.set_on(true);
        let parent = tr.open("bench.step", NO_SPAN);
        let t = Instant::now();
        tr.record(
            "hier.update_batch",
            parent,
            t,
            t + std::time::Duration::from_micros(40),
        );
        tr.spans[parent.0 as usize].end_ns = tr.spans[parent.0 as usize].start_ns + 100_000;
        let totals = tr.totals();
        assert_eq!(totals["bench.step"].total_us, 100.0);
        assert_eq!(totals["bench.step"].self_us, 60.0);
        assert_eq!(totals["hier.update_batch"].self_us, 40.0);
        tr.set_on(false);
        assert_eq!(tr.open("bench.step", NO_SPAN), NO_SPAN);
    }
}
