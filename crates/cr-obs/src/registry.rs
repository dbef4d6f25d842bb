//! The metric registry: named counters, gauges and histograms plus the
//! span-time table, snapshotted in one stable sorted order.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Whether recording is compiled in at all.  With the `obs-off` feature the
/// function is a constant `false`, so every `if recording_compiled()` guard
/// (and the atomic traffic behind it) is removed by the optimizer.
#[inline]
#[must_use]
pub(crate) fn recording_compiled() -> bool {
    cfg!(not(feature = "obs-off"))
}

/// A monotone counter: the only mutation is adding a non-negative amount,
/// so values never decrease and any two snapshots of the same counter are
/// ordered.  Handles are cheap `Arc` clones of the same cell.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
    enabled: Arc<AtomicBool>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if recording_compiled() && self.enabled.load(Ordering::SeqCst) {
            self.cell.fetch_add(n, Ordering::SeqCst);
        }
    }

    /// The current value.  Reads are always live, even when recording is
    /// disabled (the value simply stops moving).
    #[must_use]
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::SeqCst)
    }
}

/// A gauge: the latest observation of a signed quantity that can move both
/// ways (window utilization in ppm, starved cores after the last run).
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
    enabled: Arc<AtomicBool>,
}

impl Gauge {
    /// Replaces the value.
    #[inline]
    pub fn set(&self, v: i64) {
        if recording_compiled() && self.enabled.load(Ordering::SeqCst) {
            self.cell.store(v, Ordering::SeqCst);
        }
    }

    /// Adjusts the value by `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        if recording_compiled() && self.enabled.load(Ordering::SeqCst) {
            self.cell.fetch_add(delta, Ordering::SeqCst);
        }
    }

    /// The current value.
    #[must_use]
    pub fn value(&self) -> i64 {
        self.cell.load(Ordering::SeqCst)
    }
}

/// Shared state of one histogram.
#[derive(Debug)]
struct HistCore {
    /// Inclusive upper bounds of the finite buckets, strictly increasing.
    bounds: Box<[u64]>,
    /// One count per finite bucket plus a trailing overflow bucket.
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A fixed-boundary histogram with exact integer bucket counts.
///
/// Bucket `i` counts observations `v` with `bounds[i-1] < v <= bounds[i]`
/// (the first bucket counts `v <= bounds[0]`); one extra overflow bucket
/// counts everything above the last bound.  The exact maximum is tracked
/// alongside so the overflow bucket still reports a finite upper bound.
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistCore>,
    enabled: Arc<AtomicBool>,
}

impl Histogram {
    fn with_flag(bounds: &[u64], enabled: Arc<AtomicBool>) -> Histogram {
        let mut sorted: Vec<u64> = bounds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let buckets = (0..=sorted.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            core: Arc::new(HistCore {
                bounds: sorted.into_boxed_slice(),
                buckets,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }),
            enabled,
        }
    }

    /// A histogram not attached to any registry (always recording).  The
    /// load generator uses one of these for client-side latencies so a
    /// million samples cost a fixed few hundred cells instead of an
    /// unbounded buffer.
    #[must_use]
    pub fn standalone(bounds: &[u64]) -> Histogram {
        Histogram::with_flag(bounds, Arc::new(AtomicBool::new(true)))
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        if !recording_compiled() || !self.enabled.load(Ordering::SeqCst) {
            return;
        }
        let core = &self.core;
        let idx = core.bounds.partition_point(|&b| b < v);
        if let Some(bucket) = core.buckets.get(idx) {
            bucket.fetch_add(1, Ordering::SeqCst);
        }
        core.count.fetch_add(1, Ordering::SeqCst);
        core.sum.fetch_add(v, Ordering::SeqCst);
        core.max.fetch_max(v, Ordering::SeqCst);
    }

    /// The number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::SeqCst)
    }

    /// A point-in-time copy of bounds, counts and aggregates.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let core = &self.core;
        HistogramSnapshot {
            bounds: core.bounds.to_vec(),
            counts: core
                .buckets
                .iter()
                .map(|b| b.load(Ordering::SeqCst))
                .collect(),
            count: core.count.load(Ordering::SeqCst),
            sum: core.sum.load(Ordering::SeqCst),
            max: core.max.load(Ordering::SeqCst),
        }
    }
}

/// A strictly increasing geometric boundary grid from `first` up to at
/// least `last`, stepping by the rational ratio `num / den` (rounded down,
/// but always advancing by at least 1).  Integer-only, so the same call
/// yields the same grid on every platform.
///
/// The load generator's latency grid is
/// `geometric_bounds(10_000, 120_000_000_000, 17, 16)` — 10 µs to 120 s in
/// 6.25% steps, ~270 buckets — which bounds the nearest-rank percentile
/// error at one step.
#[must_use]
pub fn geometric_bounds(first: u64, last: u64, num: u64, den: u64) -> Vec<u64> {
    let mut bounds = Vec::new();
    let mut b = first.max(1);
    let (num, den) = (num.max(2), den.max(1));
    while b < last {
        bounds.push(b);
        let next = b.saturating_mul(num) / den;
        b = next.max(b + 1);
    }
    bounds.push(last);
    bounds
}

/// One metric's point-in-time value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A monotone counter.
    Counter(u64),
    /// A signed gauge.
    Gauge(i64),
    /// A histogram's buckets and aggregates.
    Histogram(HistogramSnapshot),
}

/// A histogram's point-in-time buckets and aggregates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds of the finite buckets, strictly increasing.
    pub bounds: Vec<u64>,
    /// One count per finite bucket, plus a trailing overflow count.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value (exact, even for overflow-bucket samples).
    pub max: u64,
}

impl HistogramSnapshot {
    /// The nearest-rank `numer/denom` quantile, reported as the inclusive
    /// upper bound of the bucket containing that rank (the exact maximum
    /// for ranks landing in the overflow bucket).  `None` when empty.
    ///
    /// Integer-only: rank = ceil(count * numer / denom), clamped to
    /// [1, count], matching the classic nearest-rank definition.
    #[must_use]
    pub fn nearest_rank(&self, numer: u64, denom: u64) -> Option<u64> {
        if self.count == 0 || denom == 0 {
            return None;
        }
        let rank = self
            .count
            .saturating_mul(numer)
            .div_ceil(denom)
            .clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return Some(self.bounds.get(i).copied().unwrap_or(self.max));
            }
        }
        Some(self.max)
    }
}

/// One named metric in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSnapshot {
    /// The registered name.
    pub name: String,
    /// The value at snapshot time.
    pub value: MetricValue,
}

/// One span path's accumulated wall time in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// The `/`-joined nesting path (each segment is a span name).
    pub path: String,
    /// How many times a span with this path completed.
    pub count: u64,
    /// Total wall time across those completions, in nanoseconds.
    pub total_ns: u64,
}

/// A point-in-time copy of every metric and span, each sorted by name so
/// two snapshots of identical state render identically (the golden-test
/// contract of the `{"control":"metrics"}` wire frame).
///
/// Metrics are read in ascending name order; combined with counters being
/// monotone, a recording discipline that bumps per-part counters whose
/// names sort *before* their total (e.g. `service.solve.by_method.*`
/// before `service.solve.total`, incremented total-first) guarantees
/// `sum(parts) <= total` in every snapshot, with equality at quiescence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// All metrics, ascending by name.
    pub metrics: Vec<MetricSnapshot>,
    /// All span paths, ascending by path.
    pub spans: Vec<SpanSnapshot>,
}

/// A registered metric (the registry's side of the shared cells).
#[derive(Debug)]
enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Histogram),
}

/// One span path's accumulator, shared between the registry's span table
/// and every [`Span`](crate::Span) guard recording into it, so a closing
/// span costs two atomic adds rather than a table lookup.
#[derive(Debug)]
pub(crate) struct SpanCell {
    /// Nonzero identity within its registry (the span stack keys child
    /// lookups by the parent's id).
    id: usize,
    count: AtomicU64,
    total_ns: AtomicU64,
}

impl SpanCell {
    /// The cell's identity within its registry; never zero.
    pub(crate) fn id(&self) -> usize {
        self.id
    }

    /// Accumulates one completed span.
    pub(crate) fn record(&self, elapsed_ns: u64) {
        self.count.fetch_add(1, Ordering::SeqCst);
        self.total_ns.fetch_add(elapsed_ns, Ordering::SeqCst);
    }
}

#[derive(Debug, Default)]
struct Inner {
    enabled: Arc<AtomicBool>,
    metrics: Mutex<BTreeMap<String, Metric>>,
    spans: Mutex<BTreeMap<String, Arc<SpanCell>>>,
}

/// A named-metric registry plus span-time table.
///
/// [`Registry::global`] is the process-wide instance production code
/// records into; [`Registry::new`] builds isolated instances for exact
/// tests.  Cloning shares the underlying state (handles stay valid).
#[derive(Debug, Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry with recording enabled.
    #[must_use]
    pub fn new() -> Registry {
        let inner = Inner::default();
        inner.enabled.store(true, Ordering::SeqCst);
        Registry {
            inner: Arc::new(inner),
        }
    }

    /// The process-wide registry.
    #[must_use]
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Whether recording is currently enabled (and compiled in).
    #[must_use]
    pub fn enabled(&self) -> bool {
        recording_compiled() && self.inner.enabled.load(Ordering::SeqCst)
    }

    /// Runtime kill switch: existing and future handles of this registry
    /// stop (or resume) recording.  Reads and snapshots stay live.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::SeqCst);
    }

    fn metrics_guard(&self) -> MutexGuard<'_, BTreeMap<String, Metric>> {
        match self.inner.metrics.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.inner.metrics.clear_poison();
                poisoned.into_inner()
            }
        }
    }

    fn spans_guard(&self) -> MutexGuard<'_, BTreeMap<String, Arc<SpanCell>>> {
        match self.inner.spans.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.inner.spans.clear_poison();
                poisoned.into_inner()
            }
        }
    }

    /// The counter registered under `name`, created on first use.
    ///
    /// If `name` is already registered as a different metric kind the
    /// returned handle is *detached* (it records, but into a cell no
    /// snapshot reads) — a deliberate no-panic degradation for what is
    /// always a programming error caught by the vocabulary lint.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let enabled = Arc::clone(&self.inner.enabled);
        let cell = {
            let mut metrics = self.metrics_guard();
            let entry = metrics
                .entry(name.to_string())
                .or_insert_with(|| Metric::Counter(Arc::new(AtomicU64::new(0))));
            match entry {
                Metric::Counter(cell) => Arc::clone(cell),
                Metric::Gauge(_) | Metric::Histogram(_) => Arc::new(AtomicU64::new(0)),
            }
        };
        Counter { cell, enabled }
    }

    /// The gauge registered under `name`, created on first use (detached on
    /// a kind mismatch, as for [`Registry::counter`]).
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        let enabled = Arc::clone(&self.inner.enabled);
        let cell = {
            let mut metrics = self.metrics_guard();
            let entry = metrics
                .entry(name.to_string())
                .or_insert_with(|| Metric::Gauge(Arc::new(AtomicI64::new(0))));
            match entry {
                Metric::Gauge(cell) => Arc::clone(cell),
                Metric::Counter(_) | Metric::Histogram(_) => Arc::new(AtomicI64::new(0)),
            }
        };
        Gauge { cell, enabled }
    }

    /// The histogram registered under `name`, created on first use with the
    /// given bucket bounds (detached on a kind mismatch; an existing
    /// histogram keeps its original bounds).
    #[must_use]
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let enabled = Arc::clone(&self.inner.enabled);
        let hist = {
            let mut metrics = self.metrics_guard();
            let entry = metrics.entry(name.to_string()).or_insert_with(|| {
                Metric::Histogram(Histogram::with_flag(bounds, Arc::clone(&enabled)))
            });
            match entry {
                Metric::Histogram(hist) => hist.clone(),
                Metric::Counter(_) | Metric::Gauge(_) => {
                    Histogram::with_flag(bounds, Arc::clone(&enabled))
                }
            }
        };
        hist
    }

    /// Accumulates one completed span under `path` (called by the
    /// [`Span`](crate::Span) guard's drop; also usable directly for spans
    /// measured by other means).
    pub fn record_span(&self, path: &str, elapsed_ns: u64) {
        if !self.enabled() {
            return;
        }
        self.span_cell(path).record(elapsed_ns);
    }

    /// The accumulator for span `path`, created on first use.
    pub(crate) fn span_cell(&self, path: &str) -> Arc<SpanCell> {
        let mut spans = self.spans_guard();
        if let Some(cell) = spans.get(path) {
            return Arc::clone(cell);
        }
        let cell = Arc::new(SpanCell {
            id: spans.len() + 1,
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
        });
        spans.insert(path.to_string(), Arc::clone(&cell));
        cell
    }

    /// A point-in-time copy of every metric and span in ascending name
    /// order.  Under `obs-off` nothing records, so registered entries all
    /// read zero and the span table stays empty.
    ///
    /// The two tables are read under their own locks, metrics first; each
    /// individual read is atomic, so counters are never torn and never
    /// decrease across successive snapshots.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let metrics: Vec<MetricSnapshot> = {
            let table = self.metrics_guard();
            table
                .iter()
                .map(|(name, metric)| MetricSnapshot {
                    name: name.clone(),
                    value: match metric {
                        Metric::Counter(cell) => MetricValue::Counter(cell.load(Ordering::SeqCst)),
                        Metric::Gauge(cell) => MetricValue::Gauge(cell.load(Ordering::SeqCst)),
                        Metric::Histogram(hist) => MetricValue::Histogram(hist.snapshot()),
                    },
                })
                .collect()
        };
        let spans: Vec<SpanSnapshot> = {
            let table = self.spans_guard();
            table
                .iter()
                .map(|(path, cell)| SpanSnapshot {
                    path: path.clone(),
                    count: cell.count.load(Ordering::SeqCst),
                    total_ns: cell.total_ns.load(Ordering::SeqCst),
                })
                .collect()
        };
        Snapshot { metrics, spans }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        if !recording_compiled() {
            return;
        }
        let reg = Registry::new();
        reg.counter("b.two").add(2);
        reg.counter("a.one").inc();
        reg.counter("b.two").inc();
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["a.one", "b.two"]);
        assert_eq!(snap.metrics[1].value, MetricValue::Counter(3));
    }

    #[test]
    fn gauges_move_both_ways() {
        if !recording_compiled() {
            return;
        }
        let reg = Registry::new();
        let g = reg.gauge("g");
        g.set(5);
        g.add(-7);
        assert_eq!(g.value(), -2);
    }

    #[test]
    fn histogram_buckets_are_inclusive_upper_bounds() {
        if !recording_compiled() {
            return;
        }
        let h = Histogram::standalone(&[10, 20]);
        for v in [1, 10, 11, 20, 21, 1000] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![2, 2, 2]);
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 1 + 10 + 11 + 20 + 21 + 1000);
        assert_eq!(snap.max, 1000);
    }

    #[test]
    fn nearest_rank_matches_the_classic_definition() {
        if !recording_compiled() {
            return;
        }
        let h = Histogram::standalone(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        for v in 1..=10 {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.nearest_rank(50, 100), Some(5));
        assert_eq!(snap.nearest_rank(95, 100), Some(10));
        assert_eq!(snap.nearest_rank(99, 100), Some(10));
        assert_eq!(snap.nearest_rank(1, 100), Some(1));
    }

    #[test]
    fn nearest_rank_overflow_reports_exact_max() {
        if !recording_compiled() {
            return;
        }
        let h = Histogram::standalone(&[10]);
        h.observe(12345);
        let snap = h.snapshot();
        assert_eq!(snap.nearest_rank(50, 100), Some(12345));
    }

    #[test]
    fn geometric_bounds_are_strictly_increasing_and_span_the_range() {
        let bounds = geometric_bounds(10_000, 120_000_000_000, 17, 16);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(bounds.first().copied(), Some(10_000));
        assert_eq!(bounds.last().copied(), Some(120_000_000_000));
        assert!(bounds.len() < 400, "grid stays compact: {}", bounds.len());
    }

    #[test]
    fn runtime_kill_switch_stops_recording_but_not_reads() {
        let reg = Registry::new();
        let c = reg.counter("c");
        c.inc();
        reg.set_enabled(false);
        c.inc();
        assert_eq!(c.value(), if recording_compiled() { 1 } else { 0 });
        reg.set_enabled(true);
        c.inc();
        assert_eq!(c.value(), if recording_compiled() { 2 } else { 0 });
    }

    #[test]
    fn kind_mismatch_degrades_to_a_detached_handle() {
        let reg = Registry::new();
        reg.counter("name").inc();
        let g = reg.gauge("name");
        g.set(7);
        let snap = reg.snapshot();
        assert_eq!(snap.metrics.len(), 1);
        if recording_compiled() {
            assert_eq!(snap.metrics[0].value, MetricValue::Counter(1));
        }
    }
}
