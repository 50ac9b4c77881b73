//! # syncperf-obs
//!
//! Zero-dependency observability for the syncperf stack: structured
//! trace events, counters/gauges, and exportable sinks.
//!
//! The design centers on a cheap [`Recorder`] handle that every
//! instrumented component holds (or reaches via [`global()`]). A
//! disabled recorder is a `None` — every recording call is a single
//! branch and the instrumented hot paths cost nothing measurable.
//! An enabled recorder writes [`Event`]s into per-thread ring buffers
//! (each thread appends under its own uncontended mutex; buffers are
//! bounded and count drops instead of blocking) and bumps shared
//! [`Counter`]/[`Gauge`] cells.
//!
//! Observation is paid for only where it is kept. The `*_with` methods
//! ([`Recorder::instant_with`], [`Recorder::span_with`]) take a closure
//! that builds the event's name and arguments, and run it only when the
//! thread's ring has room; a full ring counts the drop and builds
//! nothing. Looking up an already-registered counter, gauge or
//! histogram by name takes a shared read lock and allocates nothing;
//! hot paths resolve their handles once per run and then touch only
//! atomics.
//!
//! At the end of a run, [`Recorder::drain_events`] merges the rings
//! into one time-ordered stream and [`Recorder::snapshot`] freezes the
//! counter registry; [`sink`] turns either into JSONL, Chrome
//! `trace_event` JSON (loadable in `chrome://tracing` or Perfetto), or
//! feeds the ASCII summary rendered by `syncperf-core`.
//!
//! ## Example
//!
//! ```
//! use syncperf_obs::{sink, Recorder};
//!
//! let rec = Recorder::enabled();
//! let attempts = rec.counter("protocol.attempts");
//! {
//!     let _span = rec.span("protocol", "measure");
//!     attempts.inc();
//!     rec.instant("protocol", "attempt_rejected");
//! }
//! let events = rec.drain_events();
//! assert_eq!(events.len(), 2);
//! let json = sink::chrome_trace_json(&events, &rec.snapshot());
//! assert!(json.contains("\"traceEvents\""));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod flight;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod sink;

pub use flight::{FlightEntry, FlightRecorder};
pub use hist::{Histogram, HistogramSnapshot};

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::time::Instant;

/// Default per-thread event capacity (events beyond it are dropped and
/// counted, never blocking the instrumented thread).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// One argument value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// String.
    Str(Cow<'static, str>),
}

impl fmt::Display for ArgValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgValue::U64(v) => write!(f, "{v}"),
            ArgValue::I64(v) => write!(f, "{v}"),
            ArgValue::F64(v) => write!(f, "{v}"),
            ArgValue::Str(s) => f.write_str(s),
        }
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(u64::from(v))
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<&'static str> for ArgValue {
    fn from(v: &'static str) -> Self {
        ArgValue::Str(Cow::Borrowed(v))
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(Cow::Owned(v))
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Nanoseconds since the recorder was created.
    pub ts_ns: u64,
    /// `Some(duration)` for a completed span, `None` for an instant.
    pub dur_ns: Option<u64>,
    /// Category (e.g. `"protocol"`, `"cpu_sim"`).
    pub cat: &'static str,
    /// Event name.
    pub name: Cow<'static, str>,
    /// Recorder-assigned thread id (dense, starting at 0).
    pub tid: u64,
    /// Structured arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// Per-thread bounded event buffer.
#[derive(Debug)]
struct ThreadRing {
    tid: u64,
    events: Mutex<Vec<Event>>,
    /// Mirror of `events.len()`, so the owning thread sees a full ring
    /// before it builds an event, without taking the lock.
    len: AtomicUsize,
    dropped: AtomicU64,
    capacity: usize,
}

impl ThreadRing {
    fn has_room(&self) -> bool {
        self.len.load(Ordering::Relaxed) < self.capacity
    }

    fn count_drop(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    fn push(&self, event: Event) {
        let mut buf = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        if buf.len() < self.capacity {
            buf.push(event);
            self.len.store(buf.len(), Ordering::Relaxed);
        } else {
            drop(buf);
            self.count_drop();
        }
    }

    /// Moves every buffered event into `out`, leaving the ring empty
    /// (its allocation is kept for the next pass).
    fn drain_into(&self, out: &mut Vec<Event>) {
        let mut buf = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        out.append(&mut buf);
        self.len.store(0, Ordering::Relaxed);
    }
}

/// A name → cell registry. Looking up a registered name takes a shared
/// read lock and allocates nothing; only the first registration of a
/// name copies it, under the write lock.
#[derive(Debug)]
struct Registry<V> {
    map: RwLock<BTreeMap<String, V>>,
}

impl<V: Clone> Registry<V> {
    fn new() -> Self {
        Registry {
            map: RwLock::new(BTreeMap::new()),
        }
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> V) -> V {
        if let Some(v) = self.read().get(name) {
            return v.clone();
        }
        self.map
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name.to_string())
            .or_insert_with(make)
            .clone()
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, V>> {
        self.map.read().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Shared state behind an enabled recorder.
#[derive(Debug)]
struct Inner {
    /// Process-unique recorder id — the TLS ring-cache key. A pointer
    /// would be ambiguous: a new recorder's allocation can reuse a
    /// dropped recorder's address and inherit its stale cache entry.
    id: u64,
    start: Instant,
    capacity: usize,
    next_tid: AtomicU64,
    rings: Mutex<Vec<Arc<ThreadRing>>>,
    counters: Registry<Arc<AtomicU64>>,
    gauges: Registry<(Arc<AtomicU64>, GaugeMode)>,
    histograms: Registry<Arc<hist::HistCells>>,
}

/// Source of process-unique recorder ids.
static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(0);

/// One TLS ring-cache entry: recorder id, liveness probe, ring.
type RingCacheEntry = (u64, std::sync::Weak<Inner>, Arc<ThreadRing>);

thread_local! {
    /// Cache of (recorder id → this thread's ring), so the hot path
    /// avoids the registry lock after the first event. Entries whose
    /// recorder has been dropped are pruned on the next cache miss.
    static TLS_RINGS: RefCell<Vec<RingCacheEntry>> = const { RefCell::new(Vec::new()) };
}

/// A cheap, cloneable handle to a recording session.
///
/// `Recorder::disabled()` (also the `Default`) is a no-op whose every
/// method is one branch on a `None`; `Recorder::enabled()` records.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// The no-op recorder.
    #[must_use]
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// An enabled recorder with the default per-thread capacity.
    #[must_use]
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// An enabled recorder whose per-thread rings hold `capacity`
    /// events (further events are dropped and counted).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
                start: Instant::now(),
                capacity: capacity.max(1),
                next_tid: AtomicU64::new(0),
                rings: Mutex::new(Vec::new()),
                counters: Registry::new(),
                gauges: Registry::new(),
                histograms: Registry::new(),
            })),
        }
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds since this recorder was created (0 when disabled).
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.start.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// This thread's ring, creating and registering it on first use.
    fn ring(inner: &Arc<Inner>) -> Arc<ThreadRing> {
        let key = inner.id;
        TLS_RINGS.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, _, ring)) = cache.iter().find(|(k, _, _)| *k == key) {
                return ring.clone();
            }
            cache.retain(|(_, weak, _)| weak.strong_count() > 0);
            let ring = Arc::new(ThreadRing {
                tid: inner.next_tid.fetch_add(1, Ordering::Relaxed),
                events: Mutex::new(Vec::new()),
                len: AtomicUsize::new(0),
                dropped: AtomicU64::new(0),
                capacity: inner.capacity,
            });
            inner
                .rings
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(ring.clone());
            cache.push((key, Arc::downgrade(inner), ring.clone()));
            ring
        })
    }

    /// Records an instant event with no arguments.
    pub fn instant(&self, cat: &'static str, name: impl Into<Cow<'static, str>>) {
        self.instant_with(cat, || (name, Vec::new()));
    }

    /// Records an instant event with arguments.
    pub fn instant_args(
        &self,
        cat: &'static str,
        name: impl Into<Cow<'static, str>>,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.instant_with(cat, || (name, args));
    }

    /// Records an instant event whose name and arguments `build`
    /// produces. `build` runs only when this thread's ring has room; a
    /// full ring counts the drop without running it, so a dropped
    /// event costs no formatting and no allocation.
    pub fn instant_with<N: Into<Cow<'static, str>>>(
        &self,
        cat: &'static str,
        build: impl FnOnce() -> (N, Vec<(&'static str, ArgValue)>),
    ) {
        if let Some(inner) = &self.inner {
            let ring = Self::ring(inner);
            if !ring.has_room() {
                ring.count_drop();
                return;
            }
            let ts_ns = inner.start.elapsed().as_nanos() as u64;
            let (name, args) = build();
            ring.push(Event {
                ts_ns,
                dur_ns: None,
                cat,
                name: name.into(),
                tid: ring.tid,
                args,
            });
        }
    }

    /// Opens a span; the event is recorded when the guard drops.
    #[must_use = "the span is recorded when the guard drops"]
    pub fn span(&self, cat: &'static str, name: impl Into<Cow<'static, str>>) -> Span {
        self.span_with(cat, || (name, Vec::new()))
    }

    /// Opens a span with arguments attached up front.
    #[must_use = "the span is recorded when the guard drops"]
    pub fn span_args(
        &self,
        cat: &'static str,
        name: impl Into<Cow<'static, str>>,
        args: Vec<(&'static str, ArgValue)>,
    ) -> Span {
        self.span_with(cat, || (name, args))
    }

    /// Opens a span whose name and initial arguments `build` produces.
    /// `build` runs only when this thread's ring has room as the span
    /// opens; otherwise the span is dead — it builds nothing, ignores
    /// [`Span::push_arg`], and counts one drop when it closes.
    #[must_use = "the span is recorded when the guard drops"]
    pub fn span_with<N: Into<Cow<'static, str>>>(
        &self,
        cat: &'static str,
        build: impl FnOnce() -> (N, Vec<(&'static str, ArgValue)>),
    ) -> Span {
        let live = self
            .inner
            .as_ref()
            .is_some_and(|inner| Self::ring(inner).has_room());
        let (name, args) = if live {
            let (name, args) = build();
            (name.into(), args)
        } else {
            (Cow::Borrowed(""), Vec::new())
        };
        Span {
            rec: self.clone(),
            cat,
            name,
            start_ns: self.now_ns(),
            args,
            live,
        }
    }

    /// A handle to the named counter (a no-op handle when disabled).
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self.inner.as_ref().map(|inner| {
                inner
                    .counters
                    .get_or_insert(name, || Arc::new(AtomicU64::new(0)))
            }),
        }
    }

    /// A handle to the named high-water-mark gauge (no-op when
    /// disabled). The first registration of a name fixes its mode;
    /// later handles inherit it.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with_mode(name, GaugeMode::Max)
    }

    /// A handle to the named current-value gauge (no-op when
    /// disabled): [`Gauge::set`] overwrites, [`Gauge::add`] /
    /// [`Gauge::sub`] adjust — for live quantities like queue depth
    /// or inflight requests, where the high-water mark is not enough.
    #[must_use]
    pub fn gauge_set(&self, name: &str) -> Gauge {
        self.gauge_with_mode(name, GaugeMode::Set)
    }

    fn gauge_with_mode(&self, name: &str, want: GaugeMode) -> Gauge {
        match &self.inner {
            Some(inner) => {
                let (cell, mode) = inner
                    .gauges
                    .get_or_insert(name, || (Arc::new(AtomicU64::new(0)), want));
                Gauge {
                    cell: Some(cell),
                    mode,
                }
            }
            None => Gauge {
                cell: None,
                mode: want,
            },
        }
    }

    /// A handle to the named latency histogram (no-op when disabled).
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram {
            cells: self.inner.as_ref().map(|inner| {
                inner
                    .histograms
                    .get_or_insert(name, || Arc::new(hist::HistCells::new()))
            }),
        }
    }

    /// Freezes the current counter and gauge values.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        if let Some(inner) = &self.inner {
            for (name, cell) in inner.counters.read().iter() {
                snap.counters
                    .insert(name.clone(), cell.load(Ordering::Relaxed));
            }
            for (name, (cell, mode)) in inner.gauges.read().iter() {
                snap.gauges
                    .insert(name.clone(), cell.load(Ordering::Relaxed));
                snap.gauge_modes.insert(name.clone(), *mode);
            }
            for (name, cells) in inner.histograms.read().iter() {
                snap.histograms.insert(name.clone(), cells.snapshot());
            }
            for ring in inner
                .rings
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
            {
                let dropped = ring.dropped.load(Ordering::Relaxed);
                if dropped > 0 {
                    snap.dropped_by_thread.insert(ring.tid, dropped);
                }
            }
            snap.dropped_events = snap.dropped_by_thread.values().sum();
        }
        snap
    }

    /// Merges and clears every thread's ring, returning all events in
    /// timestamp order.
    #[must_use]
    pub fn drain_events(&self) -> Vec<Event> {
        let mut all = Vec::new();
        if let Some(inner) = &self.inner {
            for ring in inner
                .rings
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
            {
                ring.drain_into(&mut all);
            }
        }
        all.sort_by_key(|e| e.ts_ns);
        all
    }

    /// Total events dropped because a ring was full.
    #[must_use]
    pub fn dropped_events(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner
                .rings
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|r| r.dropped.load(Ordering::Relaxed))
                .sum(),
            None => 0,
        }
    }
}

/// RAII guard recording a complete (`ph: "X"`) event on drop.
#[derive(Debug)]
pub struct Span {
    rec: Recorder,
    cat: &'static str,
    name: Cow<'static, str>,
    start_ns: u64,
    args: Vec<(&'static str, ArgValue)>,
    /// Whether the event was built (the recorder is enabled and the
    /// ring had room when the span opened).
    live: bool,
}

impl Span {
    /// Attaches an argument to the span before it closes (a no-op on a
    /// disabled or dead span).
    pub fn push_arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if self.live {
            self.args.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = &self.rec.inner {
            let end = inner.start.elapsed().as_nanos() as u64;
            let ring = Recorder::ring(inner);
            if !self.live || !ring.has_room() {
                ring.count_drop();
                return;
            }
            ring.push(Event {
                ts_ns: self.start_ns,
                dur_ns: Some(end.saturating_sub(self.start_ns)),
                cat: self.cat,
                name: std::mem::replace(&mut self.name, Cow::Borrowed("")),
                tid: ring.tid,
                args: std::mem::take(&mut self.args),
            });
        }
    }
}

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// How a [`Gauge`] folds recorded values into its cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GaugeMode {
    /// High-water mark: [`Gauge::record`] keeps the maximum.
    #[default]
    Max,
    /// Current value: [`Gauge::set`] overwrites; [`Gauge::add`] and
    /// [`Gauge::sub`] adjust (for queue depths, inflight counts).
    Set,
}

impl GaugeMode {
    /// Stable lowercase label (used in summaries and exposition).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            GaugeMode::Max => "max",
            GaugeMode::Set => "set",
        }
    }
}

/// A gauge handle; semantics depend on its [`GaugeMode`] (the mode the
/// name was first registered with).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
    mode: GaugeMode,
}

impl Gauge {
    /// Records `v` per the gauge's mode: maximum for
    /// [`GaugeMode::Max`], overwrite for [`GaugeMode::Set`].
    pub fn record(&self, v: u64) {
        if let Some(cell) = &self.cell {
            match self.mode {
                GaugeMode::Max => {
                    cell.fetch_max(v, Ordering::Relaxed);
                }
                GaugeMode::Set => cell.store(v, Ordering::Relaxed),
            }
        }
    }

    /// Overwrites the current value (any mode).
    pub fn set(&self, v: u64) {
        if let Some(cell) = &self.cell {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `n` to the current value.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Subtracts `n` from the current value (saturating at 0).
    pub fn sub(&self, n: u64) {
        if let Some(cell) = &self.cell {
            let mut cur = cell.load(Ordering::Relaxed);
            loop {
                let next = cur.saturating_sub(n);
                match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
    }

    /// The mode this gauge was registered with.
    #[must_use]
    pub fn mode(&self) -> GaugeMode {
        self.mode
    }

    /// Current value (0 when disabled).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Frozen counter/gauge/histogram values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name (high-water mark or current value,
    /// depending on the mode in [`Snapshot::gauge_modes`]).
    pub gauges: BTreeMap<String, u64>,
    /// Each gauge's registered [`GaugeMode`].
    pub gauge_modes: BTreeMap<String, GaugeMode>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Events dropped because a per-thread ring filled up.
    pub dropped_events: u64,
    /// Drop counts by recorder-assigned thread id (only threads that
    /// dropped anything appear).
    pub dropped_by_thread: BTreeMap<u64, u64>,
}

impl Snapshot {
    /// Convenience lookup (0 when the counter never fired).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Convenience lookup (0 when the gauge never fired).
    #[must_use]
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Convenience lookup (empty snapshot when the histogram never
    /// fired).
    #[must_use]
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        self.histograms.get(name).cloned().unwrap_or_default()
    }

    /// Folds `other` into `self`: counters add, `Max` gauges take the
    /// maximum, `Set` gauges add (current values of distinct workers
    /// stack), histograms merge bucket-wise, drop counts add.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            let mode = other.gauge_modes.get(name).copied().unwrap_or_default();
            let mode = *self.gauge_modes.entry(name.clone()).or_insert(mode);
            let cell = self.gauges.entry(name.clone()).or_insert(0);
            match mode {
                GaugeMode::Max => *cell = (*cell).max(*v),
                GaugeMode::Set => *cell += v,
            }
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
        self.dropped_events += other.dropped_events;
        for (tid, v) in &other.dropped_by_thread {
            *self.dropped_by_thread.entry(*tid).or_insert(0) += v;
        }
    }
}

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// Installs `rec` as the process-global recorder consulted by
/// components that were not handed an explicit one. Returns `false` if
/// a global recorder was already installed (the existing one stays).
pub fn install(rec: Recorder) -> bool {
    GLOBAL.set(rec).is_ok()
}

/// The process-global recorder (disabled unless [`install`]ed).
#[must_use]
pub fn global() -> &'static Recorder {
    static DISABLED: Recorder = Recorder { inner: None };
    GLOBAL.get().unwrap_or(&DISABLED)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.instant("t", "x");
        let c = rec.counter("n");
        c.inc();
        assert_eq!(c.get(), 0);
        let g = rec.gauge("g");
        g.record(9);
        assert_eq!(g.get(), 0);
        {
            let _s = rec.span("t", "s");
        }
        assert!(rec.drain_events().is_empty());
        assert_eq!(rec.snapshot(), Snapshot::default());
    }

    #[test]
    fn events_merge_in_timestamp_order() {
        let rec = Recorder::enabled();
        rec.instant("a", "first");
        {
            let mut s = rec.span("a", "mid");
            s.push_arg("k", 3u64);
            rec.instant("a", "inside");
        }
        let events = rec.drain_events();
        assert_eq!(events.len(), 3);
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        let span = events.iter().find(|e| e.name == "mid").unwrap();
        assert!(span.dur_ns.is_some());
        assert_eq!(span.args, vec![("k", ArgValue::U64(3))]);
        // Draining clears the rings.
        assert!(rec.drain_events().is_empty());
    }

    #[test]
    fn counters_shared_across_handles_and_threads() {
        let rec = Recorder::enabled();
        let c = rec.counter("shared.count");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let rec = rec.clone();
                s.spawn(move || {
                    let c = rec.counter("shared.count");
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(rec.snapshot().counter("shared.count"), 4000);
    }

    #[test]
    fn gauge_keeps_maximum() {
        let rec = Recorder::enabled();
        let g = rec.gauge("depth");
        g.record(3);
        g.record(7);
        g.record(5);
        assert_eq!(g.get(), 7);
        assert_eq!(rec.snapshot().gauge("depth"), 7);
    }

    #[test]
    fn per_thread_rings_get_distinct_tids() {
        let rec = Recorder::enabled();
        std::thread::scope(|s| {
            for _ in 0..3 {
                let rec = rec.clone();
                s.spawn(move || rec.instant("t", "hello"));
            }
        });
        let events = rec.drain_events();
        let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3, "each thread has its own tid");
    }

    #[test]
    fn full_ring_drops_and_counts() {
        let rec = Recorder::with_capacity(8);
        for _ in 0..20 {
            rec.instant("t", "e");
        }
        assert_eq!(rec.drain_events().len(), 8);
        assert_eq!(rec.dropped_events(), 12);
        assert_eq!(rec.snapshot().dropped_events, 12);
    }

    #[test]
    fn full_ring_never_builds_the_event() {
        let rec = Recorder::with_capacity(2);
        let mut built = 0;
        for _ in 0..5 {
            rec.instant_with("t", || {
                built += 1;
                ("e", vec![("k", ArgValue::U64(1))])
            });
        }
        assert_eq!(built, 2, "only events that fit are built");
        assert_eq!(rec.dropped_events(), 3);
        // A span opened on a full ring is dead: its closure never runs,
        // pushed args are ignored, and closing it counts one drop.
        let mut span = rec.span_with("t", || -> (&'static str, Vec<_>) {
            panic!("a full ring must not build the span")
        });
        span.push_arg("ignored", 1u64);
        drop(span);
        assert_eq!(rec.dropped_events(), 4);
        // Draining frees the room again.
        assert_eq!(rec.drain_events().len(), 2);
        rec.instant_with("t", || ("again", Vec::new()));
        assert_eq!(rec.drain_events().len(), 1);
    }

    #[test]
    fn registered_names_resolve_to_the_same_cell() {
        let rec = Recorder::enabled();
        let a = rec.counter("x");
        let b = rec.counter("x");
        a.add(2);
        b.add(3);
        assert_eq!(a.get(), 5);
        assert_eq!(rec.snapshot().counters.len(), 1);
    }

    #[test]
    fn global_defaults_to_disabled() {
        // Never install in this test binary; other tests rely on the
        // default too.
        assert!(!global().is_enabled());
    }

    #[test]
    fn successive_recorders_on_one_thread_each_capture_their_events() {
        // Regression: the TLS ring cache was keyed by the recorder's
        // allocation address, so a recorder allocated at a dropped
        // recorder's address inherited its stale (unregistered) ring
        // and silently lost every event.
        for i in 0..64 {
            let rec = Recorder::enabled();
            rec.instant("t", "e");
            assert_eq!(rec.drain_events().len(), 1, "iteration {i} lost its event");
        }
    }

    #[test]
    fn set_gauge_tracks_current_value() {
        let rec = Recorder::enabled();
        let g = rec.gauge_set("queue.depth");
        g.add(5);
        g.sub(2);
        assert_eq!(g.get(), 3);
        g.record(9);
        g.record(1);
        assert_eq!(g.get(), 1, "set mode overwrites instead of keeping max");
        g.sub(10);
        assert_eq!(g.get(), 0, "sub saturates at zero");
        let snap = rec.snapshot();
        assert_eq!(snap.gauge("queue.depth"), 0);
        assert_eq!(snap.gauge_modes["queue.depth"], GaugeMode::Set);
    }

    #[test]
    fn gauge_mode_fixed_by_first_registration() {
        let rec = Recorder::enabled();
        let first = rec.gauge("depth");
        let second = rec.gauge_set("depth");
        assert_eq!(second.mode(), GaugeMode::Max, "first registration wins");
        first.record(7);
        second.record(3);
        assert_eq!(first.get(), 7);
    }

    #[test]
    fn histograms_appear_in_snapshot() {
        let rec = Recorder::enabled();
        let h = rec.histogram("lat_us");
        h.observe(10);
        h.observe(20);
        let snap = rec.snapshot();
        assert_eq!(snap.histogram("lat_us").count(), 2);
        assert_eq!(snap.histogram("lat_us").sum, 30);
        assert_eq!(snap.histogram("absent").count(), 0);
        // Disabled recorders hand out inert histograms.
        let off = Recorder::disabled().histogram("lat_us");
        off.observe(5);
        assert_eq!(off.snapshot().count(), 0);
    }

    #[test]
    fn snapshot_merge_folds_all_sections() {
        let a = Recorder::enabled();
        let b = Recorder::enabled();
        a.counter("c").add(2);
        b.counter("c").add(3);
        a.gauge("hw").record(5);
        b.gauge("hw").record(9);
        a.gauge_set("depth").set(4);
        b.gauge_set("depth").set(6);
        a.histogram("h").observe(1);
        b.histogram("h").observe(100);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("c"), 5);
        assert_eq!(merged.gauge("hw"), 9, "max gauges take the maximum");
        assert_eq!(merged.gauge("depth"), 10, "set gauges stack");
        assert_eq!(merged.histogram("h").count(), 2);
        assert_eq!(merged.histogram("h").max(), 100);
    }

    #[test]
    fn snapshot_reports_drops_per_thread() {
        let rec = Recorder::with_capacity(4);
        for _ in 0..10 {
            rec.instant("t", "e");
        }
        let snap = rec.snapshot();
        assert_eq!(snap.dropped_events, 6);
        assert_eq!(snap.dropped_by_thread.values().sum::<u64>(), 6);
        assert_eq!(snap.dropped_by_thread.len(), 1);
    }

    #[test]
    fn two_recorders_do_not_share_state() {
        let a = Recorder::enabled();
        let b = Recorder::enabled();
        a.counter("x").inc();
        a.instant("t", "only-a");
        assert_eq!(b.snapshot().counter("x"), 0);
        assert!(b.drain_events().is_empty());
        assert_eq!(a.drain_events().len(), 1);
    }
}
