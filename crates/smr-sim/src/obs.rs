//! obs — unified observability: metrics registry, latency histograms,
//! event tracing.
//!
//! Every store owns exactly one [`Obs`] embedded in its [`crate::Disk`], so
//! all layers (device, WAL, LSM, caches, placement) account into the same
//! clock-coherent sink. Three primitives:
//!
//! * [`MetricsRegistry`] — named counters and gauges keyed by
//!   ([`ObsLayer`], name). BTreeMap-backed so iteration (and therefore JSON
//!   export) is deterministic.
//! * [`LatencyHistogram`] — fixed geometric buckets over simulated
//!   nanoseconds. Percentiles are a pure function of the recorded counts;
//!   no wall-clock time is ever involved, so two same-seed runs produce
//!   byte-identical exports.
//! * [`EventTracer`] — bounded ring buffer of timestamped
//!   flush/compaction/band/fault events with a dropped-event counter.
//!
//! Export is hand-rolled JSON (the workspace has no external
//! dependencies); all floats are formatted with fixed precision and are
//! finite by construction.

// Byte accounting never truncates silently: a wrapped counter corrupts
// WA/AWA/MWA.
#![deny(clippy::cast_possible_truncation)]

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// Layer that produced a metric or event. Ordered so registry iteration
/// groups metrics bottom-up (device first).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ObsLayer {
    /// SMR disk simulator: physical I/O, RMW, media cache, faults.
    Device,
    /// Write-ahead log.
    Wal,
    /// LSM engine: flushes, compactions, per-level byte flow.
    Lsm,
    /// Block and table caches.
    Cache,
    /// Placement policies and band allocators.
    Placement,
    /// Store facade: end-to-end operation latencies.
    Store,
    /// Serving front-end: request queueing, group commit, admission.
    Frontend,
    /// Replication: WAL shipping, failover, catch-up streaming.
    Replication,
    /// Cluster router: shard placement, cross-shard queueing, migration.
    Router,
    /// Value log: segment appends, hot/cold grouping, cooperative GC.
    ValueLog,
}

impl ObsLayer {
    /// Stable lowercase name used in export keys.
    pub(crate) fn name(self) -> &'static str {
        match self {
            ObsLayer::Device => "device",
            ObsLayer::Wal => "wal",
            ObsLayer::Lsm => "lsm",
            ObsLayer::Cache => "cache",
            ObsLayer::Placement => "placement",
            ObsLayer::Store => "store",
            ObsLayer::Frontend => "frontend",
            ObsLayer::Replication => "replication",
            ObsLayer::Router => "router",
            ObsLayer::ValueLog => "vlog",
        }
    }
}

/// What happened, for trace events. `a`/`b` operands of `ObsEvent` are
/// kind-specific and documented per variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObsEventKind {
    /// Memtable flush completed. a = output bytes, b = output file id.
    Flush,
    /// Compaction completed. a = source level, b = output bytes.
    Compaction,
    /// Trivial move (no data rewrite). a = source level, b = bytes moved.
    TrivialMove,
    /// WAL rotated to a new log file. a = new log id, b = old log id.
    WalRotate,
    /// Allocator placed an extent inside an existing free hole (dynamic
    /// band insert, Eq. 1). a = offset, b = length.
    BandAllocate,
    /// Allocator appended an extent at the frontier. a = offset, b = length.
    BandAppend,
    /// Allocator recycled a freed extent (hole created / coalesced).
    /// a = offset, b = length.
    BandRecycle,
    /// Fixed-band read-modify-write. a = band id, b = bytes rewritten.
    BandRmw,
    /// Host-aware media-cache cleaning pass. a = dirty bands cleaned,
    /// b = bytes rewritten.
    MediaCacheClean,
    /// Injected torn write. a = offset, b = bytes that reached the platter.
    TornWrite,
    /// Injected read corruption. a = offset, b = length.
    ReadCorruption,
    /// Injected transient read error. a = offset, b = length.
    TransientReadError,
    /// Injected persistent read error (latent sector error or failed
    /// band). a = offset, b = length.
    UnrecoverableRead,
    /// Read slowed by an injected fail-slow region. a = offset,
    /// b = latency multiplier applied.
    FailSlowRead,
    /// Scrub repaired a damaged file (bit-corrected blocks and/or a
    /// targeted re-materialising compaction). a = file id, b = blocks
    /// that needed correction.
    ScrubRepair,
    /// A file left the version as unreadable. a = file id, b = level.
    FileQuarantined,
    /// Placement fenced a band hosting a persistent fault off the free
    /// list. a = band offset, b = band length.
    BandQuarantine,
    /// Injected outright write failure. a = offset, b = length.
    InjectedWriteFailure,
    /// Garbage collection relocated a set. a = set id, b = bytes moved.
    GcRelocate,
    /// Write delayed by the L0 slowdown trigger. a = L0 file count,
    /// b = penalty ns.
    WriteSlowdown,
    /// Write stopped at the L0 stop trigger until compaction caught up.
    /// a = L0 file count at entry, b = stall ns.
    WriteStop,
    /// Write waited for a full memtable to flush. a = L0 file count after
    /// the flush, b = stall ns.
    MemtableStall,
    /// Value-log segment opened (band-sized extent allocated and
    /// registered). a = segment id, b = capacity bytes.
    VlogSegmentOpen,
    /// Value-log segment sealed (append head moved on). a = segment id,
    /// b = used bytes.
    VlogSegmentSeal,
    /// Value-log GC pass relocated live values out of a victim segment.
    /// a = victim segment id, b = live bytes relocated.
    VlogGcRelocate,
    /// Value-log segment dropped and its band returned to the allocator.
    /// a = segment id, b = bytes reclaimed.
    VlogSegmentDrop,
}

impl ObsEventKind {
    /// Stable kebab-case name used in export.
    pub fn name(self) -> &'static str {
        match self {
            ObsEventKind::Flush => "flush",
            ObsEventKind::Compaction => "compaction",
            ObsEventKind::TrivialMove => "trivial-move",
            ObsEventKind::WalRotate => "wal-rotate",
            ObsEventKind::BandAllocate => "band-allocate",
            ObsEventKind::BandAppend => "band-append",
            ObsEventKind::BandRecycle => "band-recycle",
            ObsEventKind::BandRmw => "band-rmw",
            ObsEventKind::MediaCacheClean => "media-cache-clean",
            ObsEventKind::TornWrite => "torn-write",
            ObsEventKind::ReadCorruption => "read-corruption",
            ObsEventKind::TransientReadError => "transient-read-error",
            ObsEventKind::UnrecoverableRead => "unrecoverable-read",
            ObsEventKind::FailSlowRead => "fail-slow-read",
            ObsEventKind::ScrubRepair => "scrub-repair",
            ObsEventKind::FileQuarantined => "file-quarantined",
            ObsEventKind::BandQuarantine => "band-quarantine",
            ObsEventKind::InjectedWriteFailure => "injected-write-failure",
            ObsEventKind::GcRelocate => "gc-relocate",
            ObsEventKind::WriteSlowdown => "write-slowdown",
            ObsEventKind::WriteStop => "write-stop",
            ObsEventKind::MemtableStall => "memtable-stall",
            ObsEventKind::VlogSegmentOpen => "vlog-segment-open",
            ObsEventKind::VlogSegmentSeal => "vlog-segment-seal",
            ObsEventKind::VlogGcRelocate => "vlog-gc-relocate",
            ObsEventKind::VlogSegmentDrop => "vlog-segment-drop",
        }
    }
}

/// One timestamped trace event. Timestamps come from the simulated disk
/// clock, never from wall time.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ObsEvent {
    /// Simulated time the event was recorded, ns.
    pub(crate) t_ns: u64,
    /// Layer that emitted the event.
    pub(crate) layer: ObsLayer,
    /// Event kind; see [`ObsEventKind`] for `a`/`b` meanings.
    pub(crate) kind: ObsEventKind,
    /// First kind-specific operand.
    pub(crate) a: u64,
    /// Second kind-specific operand.
    pub(crate) b: u64,
}

/// Bounded ring buffer of trace events. When full, the oldest event is
/// evicted and `dropped` is incremented, so the tail of history is always
/// retained and loss is visible.
#[derive(Clone, Debug)]
pub struct EventTracer {
    buf: VecDeque<ObsEvent>,
    cap: usize,
    recorded: u64,
    dropped: u64,
}

/// Default ring capacity: enough for the tail of a bench run without
/// letting traces dominate snapshot memory.
const DEFAULT_TRACE_CAP: usize = 4096;

impl Default for EventTracer {
    fn default() -> Self {
        Self::new(DEFAULT_TRACE_CAP)
    }
}

impl EventTracer {
    /// Creates a tracer retaining at most `cap` events.
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            buf: VecDeque::with_capacity(cap.min(DEFAULT_TRACE_CAP)),
            cap: cap.max(1),
            recorded: 0,
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest if the ring is full.
    pub(crate) fn record(&mut self, ev: ObsEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
        self.recorded += 1;
    }

    /// Events currently retained, oldest first.
    pub(crate) fn events(&self) -> impl Iterator<Item = &ObsEvent> {
        self.buf.iter()
    }

    /// Total events ever recorded.
    fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted because the ring was full.
    fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained event count.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if no events are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Number of histogram buckets. Bucket `i < HIST_BUCKETS - 1` covers
/// `[upper(i-1), upper(i))` ns with `upper(i) = 1024 << i`; the last bucket
/// is unbounded. The span is 1 µs to ~9.6 hours of simulated time.
pub(crate) const HIST_BUCKETS: usize = 36;

/// Fixed-bucket latency histogram over simulated nanoseconds.
///
/// Buckets are geometric (powers of two starting at 1024 ns), so bucket
/// boundaries are identical across runs and builds. A reported quantile is
/// the upper bound of the bucket in which the requested rank falls, clamped
/// to the exact observed maximum — deterministic and at most one bucket
/// width (2×) above the true value.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    counts: [u64; HIST_BUCKETS],
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; HIST_BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    /// Upper bound (exclusive) of bucket `i`; the last bucket has no bound.
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i >= HIST_BUCKETS - 1 {
            u64::MAX
        } else {
            1024u64 << i
        }
    }

    /// Index of the bucket covering `ns`: the first bucket whose upper
    /// bound exceeds the value.
    fn bucket_index(ns: u64) -> usize {
        for i in 0..HIST_BUCKETS - 1 {
            if ns < Self::bucket_upper_bound(i) {
                return i;
            }
        }
        HIST_BUCKETS - 1
    }

    /// Records one sample.
    pub(crate) fn record(&mut self, ns: u64) {
        self.counts[Self::bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples, ns (saturating).
    fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Exact maximum sample, ns. 0 when empty.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Mean sample, ns. 0.0 when empty (never NaN).
    pub(crate) fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Raw bucket counts.
    pub fn bucket_counts(&self) -> &[u64; HIST_BUCKETS] {
        &self.counts
    }

    /// Quantile estimate: upper bound of the bucket holding the sample of
    /// rank `ceil(q * count)`, clamped to the observed maximum. Returns 0
    /// when empty. `q` is clamped to [0, 1].
    fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        #[allow(
            clippy::cast_possible_truncation,
            reason = "q is clamped to [0, 1], so the product lies in [0, count] and fits u64"
        )]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper_bound(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median estimate, ns.
    pub fn p50(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 95th percentile estimate, ns.
    pub fn p95(&self) -> u64 {
        self.quantile_ns(0.95)
    }

    /// 99th percentile estimate, ns.
    pub(crate) fn p99(&self) -> u64 {
        self.quantile_ns(0.99)
    }
}

/// Metrics of one kind keyed by ([`ObsLayer`], name). Nested so that a
/// bump looks its name up as the borrowed `&str` the caller passed — the
/// owned `String` key is allocated once, on first insert — while
/// iteration stays in deterministic (layer, name) order for export.
#[derive(Clone, Debug)]
struct ByName<V>(BTreeMap<ObsLayer, BTreeMap<String, V>>);

impl<V> Default for ByName<V> {
    fn default() -> Self {
        ByName(BTreeMap::new())
    }
}

impl<V> ByName<V> {
    fn get(&self, layer: ObsLayer, name: &str) -> Option<&V> {
        self.0.get(&layer)?.get(name)
    }

    /// The metric's slot, created with `V::default()` on first use.
    fn slot(&mut self, layer: ObsLayer, name: &str) -> &mut V
    where
        V: Default,
    {
        let names = self.0.entry(layer).or_default();
        // Two borrowed lookups on the hot path (the borrow checker
        // rejects returning out of a single `get_mut` match) still beat
        // building a `String` per bump for `entry`.
        if !names.contains_key(name) {
            names.insert(name.to_string(), V::default());
        }
        names.get_mut(name).expect("present or just inserted")
    }

    fn iter(&self) -> impl Iterator<Item = ((ObsLayer, &str), &V)> {
        self.0.iter().flat_map(|(&layer, names)| {
            names
                .iter()
                .map(move |(name, v)| ((layer, name.as_str()), v))
        })
    }
}

/// Named counters and gauges, keyed by layer. BTreeMap keys give
/// deterministic iteration order for export.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: ByName<u64>,
    gauges: ByName<f64>,
}

impl MetricsRegistry {
    /// Adds `delta` to a counter, creating it at zero first if absent.
    pub(crate) fn counter_add(&mut self, layer: ObsLayer, name: &str, delta: u64) {
        *self.counters.slot(layer, name) += delta;
    }

    /// Current counter value (0 if never touched).
    pub fn counter(&self, layer: ObsLayer, name: &str) -> u64 {
        self.counters.get(layer, name).copied().unwrap_or(0)
    }

    /// Sets a gauge. Non-finite values are clamped to 0.0 so NaN can never
    /// reach an export.
    pub(crate) fn gauge_set(&mut self, layer: ObsLayer, name: &str, value: f64) {
        *self.gauges.slot(layer, name) = if value.is_finite() { value } else { 0.0 };
    }

    /// Current gauge value (0.0 if never set).
    pub fn gauge(&self, layer: ObsLayer, name: &str) -> f64 {
        self.gauges.get(layer, name).copied().unwrap_or(0.0)
    }

    /// Counters in deterministic (layer, name) order.
    pub(crate) fn counters(&self) -> impl Iterator<Item = ((ObsLayer, &str), &u64)> {
        self.counters.iter()
    }

    /// Gauges in deterministic (layer, name) order.
    fn gauges(&self) -> impl Iterator<Item = ((ObsLayer, &str), &f64)> {
        self.gauges.iter()
    }
}

/// The per-store observability bundle: registry + histograms + tracer.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    /// Counter/gauge registry.
    pub registry: MetricsRegistry,
    hists: ByName<LatencyHistogram>,
    /// Event ring buffer.
    pub tracer: EventTracer,
}

impl Obs {
    /// Creates an empty bundle with the default trace capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shorthand for `registry.counter_add`.
    pub fn counter_add(&mut self, layer: ObsLayer, name: &str, delta: u64) {
        self.registry.counter_add(layer, name, delta);
    }

    /// Shorthand for `registry.gauge_set`.
    pub fn gauge_set(&mut self, layer: ObsLayer, name: &str, value: f64) {
        self.registry.gauge_set(layer, name, value);
    }

    /// Records one latency sample into the named histogram, creating the
    /// histogram on first use.
    pub fn latency(&mut self, layer: ObsLayer, name: &str, ns: u64) {
        self.hists.slot(layer, name).record(ns);
    }

    /// Looks up a histogram by (layer, name).
    pub fn histogram(&self, layer: ObsLayer, name: &str) -> Option<&LatencyHistogram> {
        self.hists.get(layer, name)
    }

    /// Histograms in deterministic (layer, name) order.
    fn histograms(&self) -> impl Iterator<Item = ((ObsLayer, &str), &LatencyHistogram)> {
        self.hists.iter()
    }

    /// Records a trace event.
    pub(crate) fn event(&mut self, t_ns: u64, layer: ObsLayer, kind: ObsEventKind, a: u64, b: u64) {
        self.tracer.record(ObsEvent {
            t_ns,
            layer,
            kind,
            a,
            b,
        });
    }

    /// Deterministic JSON of the whole bundle. At most `trace_tail` of the
    /// most recent retained events are inlined (the ring itself keeps more).
    pub fn to_json(&self, trace_tail: usize) -> String {
        let mut s = String::new();
        s.push_str("{\"counters\":{");
        for (i, ((layer, name), v)) in self.registry.counters().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}.{}\":{}", layer.name(), name, v);
        }
        s.push_str("},\"gauges\":{");
        for (i, ((layer, name), v)) in self.registry.gauges().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}.{}\":{}", layer.name(), name, fmt_f64(*v));
        }
        s.push_str("},\"histograms\":{");
        for (i, ((layer, name), h)) in self.histograms().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}.{}\":{}", layer.name(), name, hist_json(h));
        }
        let _ = write!(
            s,
            "}},\"trace\":{{\"recorded\":{},\"dropped\":{},\"events\":[",
            self.tracer.recorded(),
            self.tracer.dropped()
        );
        let skip = self.tracer.len().saturating_sub(trace_tail);
        for (i, ev) in self.tracer.events().skip(skip).enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"t_ns\":{},\"layer\":\"{}\",\"kind\":\"{}\",\"a\":{},\"b\":{}}}",
                ev.t_ns,
                ev.layer.name(),
                ev.kind.name(),
                ev.a,
                ev.b
            );
        }
        s.push_str("]}}");
        s
    }
}

/// Serializes one histogram summary as JSON.
fn hist_json(h: &LatencyHistogram) -> String {
    format!(
        "{{\"count\":{},\"sum_ns\":{},\"mean_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
        h.count(),
        h.sum_ns(),
        fmt_f64(h.mean_ns()),
        h.p50(),
        h.p95(),
        h.p99(),
        h.max_ns()
    )
}

/// Fixed-precision float formatting for export: finite values render with
/// six decimals; non-finite values (which the registry already refuses)
/// render as 0 so NaN can never appear in a JSON artifact.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        String::from("0.000000")
    }
}

/// One band-lifecycle event reported by an allocator via
/// `placement::Allocator::take_events`. Allocators have no disk access, so
/// they queue these and the policy layer drains them into the disk's
/// [`Obs`] with a timestamp.
#[derive(Clone, Copy, Debug)]
pub struct AllocEvent {
    /// What happened (one of the `Band*` kinds).
    pub kind: ObsEventKind,
    /// Byte offset of the extent.
    pub offset: u64,
    /// Byte length of the extent.
    pub len: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        // Bucket 0 covers [0, 1024).
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1023), 0);
        // Exactly on a bound falls into the next bucket.
        assert_eq!(LatencyHistogram::bucket_index(1024), 1);
        assert_eq!(LatencyHistogram::bucket_index(2047), 1);
        assert_eq!(LatencyHistogram::bucket_index(2048), 2);
        // Huge values land in the unbounded last bucket.
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(
            LatencyHistogram::bucket_upper_bound(HIST_BUCKETS - 1),
            u64::MAX
        );
        // Bounds are strictly increasing powers of two.
        for i in 1..HIST_BUCKETS - 1 {
            assert_eq!(
                LatencyHistogram::bucket_upper_bound(i),
                2 * LatencyHistogram::bucket_upper_bound(i - 1)
            );
        }
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.mean_ns(), 0.0);
    }

    #[test]
    fn single_sample_percentiles_are_exact() {
        let mut h = LatencyHistogram::new();
        h.record(5_000);
        // Quantiles clamp to the exact observed max.
        assert_eq!(h.p50(), 5_000);
        assert_eq!(h.p95(), 5_000);
        assert_eq!(h.p99(), 5_000);
        assert_eq!(h.max_ns(), 5_000);
        assert_eq!(h.mean_ns(), 5_000.0);
    }

    #[test]
    fn percentile_math_known_distribution() {
        let mut h = LatencyHistogram::new();
        // 90 samples in bucket 0 ([0,1024)), 9 in bucket 4 ([8192,16384)),
        // 1 in bucket 10 ([0.5M, 1M)).
        for _ in 0..90 {
            h.record(500);
        }
        for _ in 0..9 {
            h.record(10_000);
        }
        h.record(700_000);
        assert_eq!(h.count(), 100);
        // rank(0.50)=50 -> bucket 0 -> upper bound 1024.
        assert_eq!(h.p50(), 1024);
        // rank(0.95)=95 -> bucket 4 -> upper bound 16384.
        assert_eq!(h.p95(), 16 * 1024);
        // rank(0.99)=99 -> still bucket 4.
        assert_eq!(h.p99(), 16 * 1024);
        // rank(1.0)=100 -> last occupied bucket, clamped to exact max.
        assert_eq!(h.quantile_ns(1.0), 700_000);
        assert_eq!(h.max_ns(), 700_000);
    }

    #[test]
    fn quantile_never_exceeds_max() {
        let mut h = LatencyHistogram::new();
        h.record(1_500); // bucket 1, upper bound 2048
        h.record(1_600);
        assert_eq!(h.max_ns(), 1_600);
        assert_eq!(h.p99(), 1_600); // clamped below the bucket bound
    }

    #[test]
    fn tracer_ring_drops_oldest() {
        let mut t = EventTracer::new(3);
        for i in 0..5u64 {
            t.record(ObsEvent {
                t_ns: i,
                layer: ObsLayer::Device,
                kind: ObsEventKind::Flush,
                a: i,
                b: 0,
            });
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.recorded(), 5);
        assert_eq!(t.dropped(), 2);
        let kept: Vec<u64> = t.events().map(|e| e.t_ns).collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn registry_is_deterministic_and_nan_proof() {
        let mut r = MetricsRegistry::default();
        r.counter_add(ObsLayer::Lsm, "flush_bytes", 10);
        r.counter_add(ObsLayer::Device, "seeks", 2);
        r.counter_add(ObsLayer::Lsm, "flush_bytes", 5);
        assert_eq!(r.counter(ObsLayer::Lsm, "flush_bytes"), 15);
        r.gauge_set(ObsLayer::Cache, "hit_ratio", f64::NAN);
        assert_eq!(r.gauge(ObsLayer::Cache, "hit_ratio"), 0.0);
        let keys: Vec<String> = r
            .counters()
            .map(|((l, n), _)| format!("{}.{}", l.name(), n))
            .collect();
        // Device sorts before Lsm: deterministic bottom-up order.
        assert_eq!(keys, vec!["device.seeks", "lsm.flush_bytes"]);
    }

    #[test]
    fn json_export_is_stable() {
        let mut o = Obs::new();
        o.counter_add(ObsLayer::Device, "writes", 3);
        o.gauge_set(ObsLayer::Store, "wa", 2.5);
        o.latency(ObsLayer::Store, "get_ns", 4_000);
        o.event(7, ObsLayer::Lsm, ObsEventKind::Flush, 123, 1);
        let a = o.to_json(16);
        let b = o.to_json(16);
        assert_eq!(a, b);
        assert!(a.contains("\"device.writes\":3"));
        assert!(a.contains("\"store.wa\":2.500000"));
        assert!(a.contains("\"store.get_ns\""));
        assert!(a.contains("\"kind\":\"flush\""));
        assert!(!a.contains("NaN"));
    }

    #[test]
    fn trace_tail_limits_export_not_ring() {
        let mut o = Obs::new();
        for i in 0..10u64 {
            o.event(i, ObsLayer::Device, ObsEventKind::BandRmw, i, 0);
        }
        let j = o.to_json(2);
        // Only the two most recent events are inlined.
        assert!(j.contains("\"t_ns\":8"));
        assert!(j.contains("\"t_ns\":9"));
        assert!(!j.contains("\"t_ns\":7"));
        assert!(j.contains("\"recorded\":10"));
    }
}
