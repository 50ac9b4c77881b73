//! The scheduler proper: lowers a batch of [`JobSpec`]s onto the
//! work-stealing pool, consulting the content-addressed cache and the
//! checkpoint manifest first, and retrying faulty measurements with
//! backoff.
//!
//! A process-global scheduler can be installed with [`install`]; the
//! bench sweep helpers branch on [`current`], so the serial legacy
//! path (no scheduler) stays byte-for-byte what it always was, while
//! any binary that installs a scheduler gets caching and parallelism
//! for every measurement it triggers.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use syncperf_core::obs::{self, Counter, Gauge, Histogram, Recorder, Snapshot};
use syncperf_core::{Measurement, Result, SyncPerfError};

use crate::cache::Cache;
use crate::checkpoint::Checkpoint;
use crate::hash::fnv1a;
use crate::job::{CanonicalCache, JobSpec, PrimedEngine};
use crate::pool::{self, PoolWorkerStats};

/// Code-version salt folded into every job hash. Bump whenever a
/// change alters measurement semantics without changing any job field
/// (e.g. a simulator engine fix): every cached result is then invalid
/// at once.
pub const SCHED_SALT: &str = "syncperf-sched-v2";

/// Attempt budget per job: the initial execution plus up to two
/// reattempts (for transient errors or runs that exhausted the
/// protocol's own attempt budget). Real-thread jobs and I/O errors back
/// off exponentially between attempts; a simulator job's reattempt is
/// a deterministic reseed and runs at once.
pub const MAX_EXECUTE_ATTEMPTS: u32 = 3;

/// The scheduler's metric handles in the global recorder, resolved once
/// per [`Scheduler::run_jobs`] call so the per-job path touches only
/// atomics.
#[derive(Debug, Clone)]
struct Metrics {
    jobs: Counter,
    jobs_executed: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_stores: Counter,
    resumed: Counter,
    retries: Counter,
    steals: Counter,
    queue_depth: Gauge,
    queue_depth_peak: Gauge,
    wait_us: Histogram,
    service_hit_us: Histogram,
    service_miss_us: Histogram,
    batch_size: Histogram,
}

impl Metrics {
    fn new(rec: &Recorder) -> Self {
        Metrics {
            jobs: rec.counter("sched.jobs"),
            jobs_executed: rec.counter("sched.jobs_executed"),
            cache_hits: rec.counter("sched.cache_hits"),
            cache_misses: rec.counter("sched.cache_misses"),
            cache_stores: rec.counter("sched.cache_stores"),
            resumed: rec.counter("sched.resumed"),
            retries: rec.counter("sched.retries"),
            steals: rec.counter("sched.steals"),
            queue_depth: rec.gauge_set("sched.queue_depth"),
            queue_depth_peak: rec.gauge("sched.queue_depth_peak"),
            wait_us: rec.histogram("sched.wait_us"),
            service_hit_us: rec.histogram("sched.service_us.hit"),
            service_miss_us: rec.histogram("sched.service_us.miss"),
            batch_size: rec.histogram("plan.batch_size"),
        }
    }
}

/// The content hash of `job` under the scheduler's hashing scheme:
/// FNV-1a over the canonical form plus [`SCHED_SALT`] and
/// `salt_extra`. Exposed as a free function so distributed workers can
/// re-key a job received over the wire and verify it against the
/// coordinator's hash before executing it.
#[must_use]
pub fn job_hash_with_salt(job: &JobSpec, salt_extra: u64) -> u64 {
    let mut s = job.canonical();
    s.push_str(&format!("salt={SCHED_SALT}/{salt_extra}\n"));
    fnv1a(s.as_bytes())
}

/// [`job_hash_with_salt`] with a [`CanonicalCache`] memoizing the
/// expensive kernel/system formatting — and the FNV-1a hash state of
/// that shared head — across the jobs of one batch. Produces the same
/// hash bit for bit ([`JobSpec::hash_with`]): only each job's short
/// params/protocol/salt tail is formatted and hashed per call.
#[must_use]
pub fn job_hash_with_salt_cached(
    job: &JobSpec,
    salt_extra: u64,
    cache: &mut CanonicalCache,
) -> u64 {
    job.hash_with(cache, &format!("salt={SCHED_SALT}/{salt_extra}\n"))
}

/// Executes one job under the scheduler's retry policy: up to
/// [`MAX_EXECUTE_ATTEMPTS`] attempts, retrying when the result looks
/// faulty (exhausted protocol runs) or the error is transient. Only
/// real-thread jobs and I/O errors sleep `2^k` ms before reattempt
/// `k + 1`: they wait on the host, while a simulator reattempt is a
/// pure reseed. Attempt `k` perturbs the jitter seed as
/// `hash ^ k · 0x9E37_79B9_7F4A_7C15`, so the outcome depends only on
/// (hash, attempt) — never on which process or worker ran it — which is
/// what lets a distributed worker reproduce the coordinator's results
/// bit for bit. `on_retry` is called with the failed attempt number
/// before each reattempt.
///
/// # Errors
///
/// Returns the final attempt's error when the budget is exhausted.
pub fn execute_job_with_retry(
    job: &JobSpec,
    hash: u64,
    on_retry: impl FnMut(u32),
) -> Result<Measurement> {
    execute_job_with_retry_primed(job, hash, None, on_retry)
}

/// [`execute_job_with_retry`] with an optional batch-primed engine
/// result pair. When `primed` is `Some`, every attempt reuses the
/// pre-evaluated engine results (they depend only on the job, never on
/// the seed), so retries stay bit-identical to the unprimed path.
///
/// # Errors
///
/// Returns the final attempt's error when the budget is exhausted.
pub fn execute_job_with_retry_primed(
    job: &JobSpec,
    hash: u64,
    primed: Option<&PrimedEngine>,
    mut on_retry: impl FnMut(u32),
) -> Result<Measurement> {
    let real_threads = matches!(job, JobSpec::RealOmp { .. });
    let mut attempt = 0u32;
    loop {
        let seed = hash ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut reattempt = |a: u32, backoff: bool| {
            on_retry(a);
            if backoff {
                std::thread::sleep(std::time::Duration::from_millis(1 << a));
            }
        };
        let run = match primed {
            Some(pe) => job.execute_primed(seed, pe),
            None => job.execute(seed),
        };
        match run {
            Ok(m) => {
                if m.exhausted_runs > 0 && attempt + 1 < MAX_EXECUTE_ATTEMPTS {
                    reattempt(attempt, real_threads);
                    attempt += 1;
                    continue;
                }
                return Ok(m);
            }
            Err(e) => {
                let transient = matches!(
                    e,
                    SyncPerfError::MeasurementUnstable { .. } | SyncPerfError::Io(_)
                );
                if transient && attempt + 1 < MAX_EXECUTE_ATTEMPTS {
                    reattempt(attempt, real_threads || matches!(e, SyncPerfError::Io(_)));
                    attempt += 1;
                    continue;
                }
                return Err(e);
            }
        }
    }
}

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Worker threads for the pool (1 = serial on the calling thread).
    pub workers: usize,
    /// Whether the on-disk result cache is consulted and filled.
    pub cache: bool,
    /// Cache directory (also holds checkpoint manifests).
    pub cache_dir: PathBuf,
    /// Whether to resume from the run label's checkpoint manifest.
    pub resume: bool,
    /// Run label for the checkpoint manifest (usually the binary
    /// name).
    pub label: String,
    /// Extra salt folded into every job hash on top of [`SCHED_SALT`]
    /// (test hook: bumping it must invalidate the whole cache).
    pub salt_extra: u64,
}

impl SchedConfig {
    /// A config with `workers` workers, caching on, under
    /// `<results>/.cache` — where `<results>` is `results/` or the
    /// `SYNCPERF_RESULTS` override, matching where the figure CSVs go.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let results = std::env::var_os("SYNCPERF_RESULTS")
            .map_or_else(|| PathBuf::from("results"), PathBuf::from);
        SchedConfig {
            workers: workers.max(1),
            cache: true,
            cache_dir: results.join(".cache"),
            resume: false,
            label: "run".to_string(),
            salt_extra: 0,
        }
    }

    /// Replaces the cache directory.
    #[must_use]
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = dir.into();
        self
    }

    /// Disables the result cache (jobs always execute; nothing is
    /// stored).
    #[must_use]
    pub fn without_cache(mut self) -> Self {
        self.cache = false;
        self
    }

    /// Enables resuming from the label's checkpoint manifest.
    #[must_use]
    pub fn with_resume(mut self) -> Self {
        self.resume = true;
        self
    }

    /// Replaces the run label.
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Replaces the extra hash salt.
    #[must_use]
    pub fn with_salt_extra(mut self, salt: u64) -> Self {
        self.salt_extra = salt;
        self
    }
}

/// Internal atomic tally cells (mirrored into `sched.*` obs counters).
#[derive(Debug, Default)]
struct StatCells {
    jobs: AtomicU64,
    executed: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_stores: AtomicU64,
    steals: AtomicU64,
    retries: AtomicU64,
    resumed: AtomicU64,
    plan_batches: AtomicU64,
    plan_batch_points: AtomicU64,
    plan_primed_jobs: AtomicU64,
    plan_compile_us: AtomicU64,
}

/// Always-on scheduler profile: latency histograms, live queue depth,
/// and per-worker execution tallies — kept standalone (not behind the
/// global recorder) so a server that never installs a global recorder
/// still gets scheduler telemetry via [`Scheduler::export_into`].
#[derive(Debug)]
struct Profile {
    /// Miss wait time: batch submission → a worker picking the job up
    /// (microseconds).
    wait_us: Histogram,
    /// Hit service time: how long the cache load took (microseconds).
    service_hit_us: Histogram,
    /// Miss service time: how long the execution took (microseconds).
    service_miss_us: Histogram,
    /// Jobs currently dispatched to the pool and not yet finished.
    pending: AtomicU64,
    /// High-water mark of `pending`.
    pending_peak: AtomicU64,
    /// Per-worker tallies accumulated across batches (indexed by the
    /// pool's worker number; the serial path is worker 0).
    workers: Mutex<Vec<PoolWorkerStats>>,
}

impl Profile {
    /// Adds a dispatched batch of `n` jobs to the live depth (batches
    /// on a shared scheduler may overlap); returns the new depth.
    fn enqueue(&self, n: u64) -> u64 {
        let depth = self.pending.fetch_add(n, Ordering::Relaxed) + n;
        self.pending_peak.fetch_max(depth, Ordering::Relaxed);
        depth
    }

    /// Removes `n` finished jobs from the live depth; returns the rest.
    fn dequeue(&self, n: u64) -> u64 {
        self.pending.fetch_sub(n, Ordering::Relaxed) - n
    }
}

impl Default for Profile {
    fn default() -> Self {
        Profile {
            wait_us: Histogram::standalone(),
            service_hit_us: Histogram::standalone(),
            service_miss_us: Histogram::standalone(),
            pending: AtomicU64::new(0),
            pending_peak: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
        }
    }
}

/// A point-in-time view of a scheduler's counters — also recoverable
/// from any obs [`Snapshot`] via [`SchedStats::from_snapshot`], the
/// way `RetrySummary` mirrors the `protocol.*` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedStats {
    /// Jobs submitted (hits + misses when caching, else all executed).
    pub jobs: u64,
    /// Jobs actually executed (first attempts only).
    pub executed: u64,
    /// Jobs served from the cache.
    pub cache_hits: u64,
    /// Jobs that missed the cache (including corrupt entries).
    pub cache_misses: u64,
    /// Fresh results written to the cache.
    pub cache_stores: u64,
    /// Successful steals in the work-stealing pool.
    pub steals: u64,
    /// Reattempts after a transient error or an exhausted-run result.
    pub retries: u64,
    /// Cache hits whose hash was recorded by the resumed checkpoint.
    pub resumed: u64,
    /// Median miss wait (batch submission → pickup), microseconds.
    pub wait_us_p50: u64,
    /// p99 miss wait, microseconds.
    pub wait_us_p99: u64,
    /// Median cache-hit service time (cache load), microseconds.
    pub service_hit_us_p50: u64,
    /// p99 cache-hit service time, microseconds.
    pub service_hit_us_p99: u64,
    /// Median cache-miss service time (execution), microseconds.
    pub service_miss_us_p50: u64,
    /// p99 cache-miss service time, microseconds.
    pub service_miss_us_p99: u64,
    /// High-water mark of jobs pending in the pool at once.
    pub queue_depth_peak: u64,
    /// Same-shape parameter groups (≥ 2 jobs) detected in miss sets.
    pub plan_batches: u64,
    /// Jobs covered by those same-shape groups.
    pub plan_batch_points: u64,
    /// Jobs whose engine results were primed from a batched
    /// struct-of-arrays plan-table evaluation (0 while a global
    /// recorder is live: observed runs keep the interpreter path).
    pub plan_primed_jobs: u64,
    /// Time spent grouping the miss set and batch-evaluating plan
    /// tables, microseconds.
    pub plan_compile_us: u64,
}

impl SchedStats {
    /// Extracts the `sched.*` counters, histograms, and gauges from an
    /// obs snapshot.
    #[must_use]
    pub fn from_snapshot(snap: &Snapshot) -> Self {
        let wait = snap.histogram("sched.wait_us");
        let hit = snap.histogram("sched.service_us.hit");
        let miss = snap.histogram("sched.service_us.miss");
        SchedStats {
            jobs: snap.counter("sched.jobs"),
            executed: snap.counter("sched.jobs_executed"),
            cache_hits: snap.counter("sched.cache_hits"),
            cache_misses: snap.counter("sched.cache_misses"),
            cache_stores: snap.counter("sched.cache_stores"),
            steals: snap.counter("sched.steals"),
            retries: snap.counter("sched.retries"),
            resumed: snap.counter("sched.resumed"),
            wait_us_p50: wait.quantile(0.50),
            wait_us_p99: wait.quantile(0.99),
            service_hit_us_p50: hit.quantile(0.50),
            service_hit_us_p99: hit.quantile(0.99),
            service_miss_us_p50: miss.quantile(0.50),
            service_miss_us_p99: miss.quantile(0.99),
            queue_depth_peak: snap.gauge("sched.queue_depth_peak"),
            plan_batches: snap.counter("sched.plan_batches"),
            plan_batch_points: snap.counter("sched.plan_batch_points"),
            plan_primed_jobs: snap.counter("sched.plan_primed_jobs"),
            plan_compile_us: snap.counter("sched.plan_compile_us"),
        }
    }

    /// Fraction of submitted jobs served from the cache (0 when no
    /// jobs ran).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.jobs as f64
        }
    }
}

/// Callback invoked after every successful cache store, with the job's
/// content hash and the stored measurement. The serving layer uses it
/// to update its in-memory index incrementally and to trigger cache
/// eviction; it runs on the worker thread that stored the entry.
pub type StoreHook = Box<dyn Fn(u64, &Measurement) + Send + Sync>;

/// One job's outcome as reported by an [`ExecBackend`].
#[derive(Debug)]
pub struct BackendExec {
    /// Submission index of the job within the batch handed to the
    /// backend (positions results for the deterministic merge).
    pub index: usize,
    /// The job's content hash under the scheduler's salt.
    pub hash: u64,
    /// The measurement, or the error after the backend's own retry
    /// budget was exhausted.
    pub result: Result<Measurement>,
    /// Whether the backend already persisted the entry into this
    /// scheduler's cache directory (e.g. a coordinator storing raw
    /// wire bytes); when set the scheduler skips its own store but
    /// still counts it and fires the store hook.
    pub stored: bool,
}

/// Alternative execution strategy for cache misses: given the batch's
/// missing jobs as `(submission index, job, hash)` triples, produce one
/// [`BackendExec`] per job (in any order). The distributed coordinator
/// installs itself here; without a backend, misses run on the in-process
/// work-stealing pool.
pub type ExecBackend = Box<dyn Fn(&[(usize, JobSpec, u64)]) -> Vec<BackendExec> + Send + Sync>;

/// Extra telemetry exporter appended to [`Scheduler::export_into`]:
/// lets a subsystem attached to the scheduler (like the distributed
/// coordinator's `dist.*` metrics) ride along every `/metrics` and
/// `--cache-stats` export without the host knowing about it.
pub type ExportHook = Box<dyn Fn(&mut Snapshot) + Send + Sync>;

/// The sweep scheduler: cache consultation, work-stealing execution,
/// deterministic index-ordered merge, checkpointing.
pub struct Scheduler {
    cfg: SchedConfig,
    cache: Option<Cache>,
    /// Hashes known to be present in the cache directory: seeded by
    /// one directory scan on first consultation, then kept current by
    /// this scheduler's own stores. Probing a cold cache costs a
    /// failed `open()` per job otherwise — real kernel time at sweep
    /// scale. Entries added by *other* processes mid-run are simply
    /// recomputed (a conservative miss is always correct).
    present: Mutex<Option<std::collections::HashSet<u64>>>,
    checkpoint: Mutex<Checkpoint>,
    resumed_hashes: std::collections::BTreeSet<u64>,
    stats: StatCells,
    profile: Profile,
    store_hook: RwLock<Option<StoreHook>>,
    backend: RwLock<Option<ExecBackend>>,
    export_hook: RwLock<Option<ExportHook>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("cfg", &self.cfg)
            .field("cache", &self.cache)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Scheduler {
    /// Builds a scheduler from `cfg`, loading the checkpoint manifest
    /// when resuming.
    #[must_use]
    pub fn new(cfg: SchedConfig) -> Self {
        let cache = cfg.cache.then(|| Cache::new(&cfg.cache_dir));
        let checkpoint = if cfg.resume {
            Checkpoint::load(&cfg.cache_dir, &cfg.label)
        } else {
            Checkpoint::fresh(&cfg.cache_dir, &cfg.label)
        };
        // Remember what the manifest already contained so hits caused
        // by resume can be told apart from ordinary warm-cache hits.
        let resumed_hashes = checkpoint.hashes().collect();
        Scheduler {
            cfg,
            cache,
            present: Mutex::new(None),
            checkpoint: Mutex::new(checkpoint),
            resumed_hashes,
            stats: StatCells::default(),
            profile: Profile::default(),
            store_hook: RwLock::new(None),
            backend: RwLock::new(None),
            export_hook: RwLock::new(None),
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &SchedConfig {
        &self.cfg
    }

    /// Worker threads actually spawned per batch: the configured count
    /// clamped to the machine's available parallelism. Results are
    /// worker-count independent (each job seeds its own RNG from its
    /// content hash), so oversubscribing a small machine only buys
    /// thread-spawn and context-switch overhead — never throughput.
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        let avail =
            std::thread::available_parallelism().map_or(usize::MAX, std::num::NonZeroUsize::get);
        self.cfg.workers.min(avail).max(1)
    }

    /// The content-addressed cache, when caching is enabled (the
    /// serving layer iterates/evicts through this handle).
    #[must_use]
    pub fn cache(&self) -> Option<&Cache> {
        self.cache.as_ref()
    }

    /// Registers (or replaces) the post-store hook; see [`StoreHook`].
    pub fn set_store_hook(&self, hook: impl Fn(u64, &Measurement) + Send + Sync + 'static) {
        *self.store_hook.write().unwrap() = Some(Box::new(hook));
    }

    /// Registers (or replaces) the miss-execution backend; see
    /// [`ExecBackend`]. Pass-through telemetry (executed counts, retry
    /// counts, wait/service histograms) becomes the backend's job.
    pub fn set_exec_backend(
        &self,
        backend: impl Fn(&[(usize, JobSpec, u64)]) -> Vec<BackendExec> + Send + Sync + 'static,
    ) {
        *self.backend.write().unwrap() = Some(Box::new(backend));
    }

    /// Removes the miss-execution backend; misses run on the pool
    /// again.
    pub fn clear_exec_backend(&self) {
        *self.backend.write().unwrap() = None;
    }

    /// Registers (or replaces) the extra telemetry exporter; see
    /// [`ExportHook`].
    pub fn set_export_hook(&self, hook: impl Fn(&mut Snapshot) + Send + Sync + 'static) {
        *self.export_hook.write().unwrap() = Some(Box::new(hook));
    }

    /// The content hash of `job` under this scheduler's salt.
    #[must_use]
    pub fn job_hash(&self, job: &JobSpec) -> u64 {
        job_hash_with_salt(job, self.cfg.salt_extra)
    }

    /// A point-in-time view of the counters and latency quantiles.
    #[must_use]
    pub fn stats(&self) -> SchedStats {
        let wait = self.profile.wait_us.snapshot();
        let hit = self.profile.service_hit_us.snapshot();
        let miss = self.profile.service_miss_us.snapshot();
        SchedStats {
            jobs: self.stats.jobs.load(Ordering::Relaxed),
            executed: self.stats.executed.load(Ordering::Relaxed),
            cache_hits: self.stats.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.stats.cache_misses.load(Ordering::Relaxed),
            cache_stores: self.stats.cache_stores.load(Ordering::Relaxed),
            steals: self.stats.steals.load(Ordering::Relaxed),
            retries: self.stats.retries.load(Ordering::Relaxed),
            resumed: self.stats.resumed.load(Ordering::Relaxed),
            wait_us_p50: wait.quantile(0.50),
            wait_us_p99: wait.quantile(0.99),
            service_hit_us_p50: hit.quantile(0.50),
            service_hit_us_p99: hit.quantile(0.99),
            service_miss_us_p50: miss.quantile(0.50),
            service_miss_us_p99: miss.quantile(0.99),
            queue_depth_peak: self.profile.pending_peak.load(Ordering::Relaxed),
            plan_batches: self.stats.plan_batches.load(Ordering::Relaxed),
            plan_batch_points: self.stats.plan_batch_points.load(Ordering::Relaxed),
            plan_primed_jobs: self.stats.plan_primed_jobs.load(Ordering::Relaxed),
            plan_compile_us: self.stats.plan_compile_us.load(Ordering::Relaxed),
        }
    }

    /// Per-worker execution tallies accumulated across every batch
    /// this scheduler ran (index = pool worker number; the serial path
    /// accumulates onto worker 0).
    #[must_use]
    pub fn worker_stats(&self) -> Vec<PoolWorkerStats> {
        self.profile.workers.lock().unwrap().clone()
    }

    /// Injects this scheduler's live telemetry — `sched.*` counters,
    /// queue-depth gauges, wait/service histograms, and per-worker
    /// tallies — into `snap`, so a process that never installed a
    /// global recorder (like `syncperf-serve`) can still expose
    /// scheduler metrics.
    pub fn export_into(&self, snap: &mut Snapshot) {
        use syncperf_core::obs::GaugeMode;
        let st = self.stats();
        for (name, v) in [
            ("sched.jobs", st.jobs),
            ("sched.jobs_executed", st.executed),
            ("sched.cache_hits", st.cache_hits),
            ("sched.cache_misses", st.cache_misses),
            ("sched.cache_stores", st.cache_stores),
            ("sched.steals", st.steals),
            ("sched.retries", st.retries),
            ("sched.resumed", st.resumed),
            ("sched.plan_batches", st.plan_batches),
            ("sched.plan_batch_points", st.plan_batch_points),
            ("sched.plan_primed_jobs", st.plan_primed_jobs),
            ("sched.plan_compile_us", st.plan_compile_us),
        ] {
            snap.counters.insert(name.to_string(), v);
        }
        snap.gauges.insert(
            "sched.queue_depth".to_string(),
            self.profile.pending.load(Ordering::Relaxed),
        );
        snap.gauge_modes
            .insert("sched.queue_depth".to_string(), GaugeMode::Set);
        snap.gauges.insert(
            "sched.queue_depth_peak".to_string(),
            self.profile.pending_peak.load(Ordering::Relaxed),
        );
        snap.gauge_modes
            .insert("sched.queue_depth_peak".to_string(), GaugeMode::Max);
        snap.histograms
            .insert("sched.wait_us".to_string(), self.profile.wait_us.snapshot());
        snap.histograms.insert(
            "sched.service_us.hit".to_string(),
            self.profile.service_hit_us.snapshot(),
        );
        snap.histograms.insert(
            "sched.service_us.miss".to_string(),
            self.profile.service_miss_us.snapshot(),
        );
        for (w, p) in self.worker_stats().iter().enumerate() {
            snap.counters
                .insert(format!("sched.worker.{w}.executed"), p.executed);
            snap.counters
                .insert(format!("sched.worker.{w}.stolen"), p.stolen);
            snap.counters
                .insert(format!("sched.worker.{w}.busy_us"), p.busy_ns / 1_000);
        }
        if let Some(hook) = self.export_hook.read().unwrap().as_ref() {
            hook(snap);
        }
    }

    /// Whether `hash` is plausibly on disk, per the presence set (one
    /// directory scan on first use, plus every store this scheduler
    /// made since). A `false` is authoritative for entries this
    /// process owns; entries racing in from other processes read as
    /// absent and are recomputed, which is always correct.
    fn cache_may_contain(&self, cache: &Cache, hash: u64) -> bool {
        let mut present = self.present.lock().unwrap();
        present
            .get_or_insert_with(|| cache.hashes().into_iter().collect())
            .contains(&hash)
    }

    /// Records that this scheduler stored `hash`, keeping the presence
    /// set current.
    fn note_stored(&self, hash: u64) {
        if let Some(set) = self.present.lock().unwrap().as_mut() {
            set.insert(hash);
        }
    }

    /// Runs a batch of jobs: cache hits are served immediately, misses
    /// run on the work-stealing pool, and the merged results come back
    /// in submission order — so N-worker output is byte-identical to
    /// 1-worker output.
    ///
    /// # Errors
    ///
    /// Returns the lowest-index job error after the whole batch has
    /// been attempted (completed siblings are still cached, so a rerun
    /// only recomputes the failures).
    pub fn run_jobs(&self, jobs: Vec<JobSpec>) -> Result<Vec<Measurement>> {
        let n = jobs.len();
        let metrics = Metrics::new(obs::global());
        self.stats.jobs.fetch_add(n as u64, Ordering::Relaxed);
        metrics.jobs.add(n as u64);

        let mut results: Vec<Option<Measurement>> = Vec::new();
        results.resize_with(n, || None);
        let mut todo: Vec<(usize, JobSpec, u64)> = Vec::new();
        let mut hits = 0u64;
        let mut resumed = 0u64;
        let mut canon = CanonicalCache::default();
        let salt_line = format!("salt={SCHED_SALT}/{}\n", self.cfg.salt_extra);
        for (i, job) in jobs.into_iter().enumerate() {
            let h = job.hash_with(&mut canon, &salt_line);
            if let Some(cache) = &self.cache {
                let load_start = Instant::now();
                let loaded = if self.cache_may_contain(cache, h) {
                    cache.load(h)
                } else {
                    None
                };
                if let Some(m) = loaded {
                    // Guard against a (vanishingly unlikely) hash
                    // collision: the entry must describe this job.
                    if m.kernel_name == job.kernel_name() && m.params == *job.params() {
                        let load_us = load_start.elapsed().as_micros() as u64;
                        self.profile.service_hit_us.observe(load_us);
                        metrics.service_hit_us.observe(load_us);
                        hits += 1;
                        if self.resumed_hashes.contains(&h) {
                            resumed += 1;
                        }
                        self.checkpoint.lock().unwrap().record(h);
                        results[i] = Some(m);
                        continue;
                    }
                }
            }
            todo.push((i, job, h));
        }
        self.stats.cache_hits.fetch_add(hits, Ordering::Relaxed);
        metrics.cache_hits.add(hits);
        self.stats.resumed.fetch_add(resumed, Ordering::Relaxed);
        metrics.resumed.add(resumed);
        if self.cache.is_some() {
            self.stats
                .cache_misses
                .fetch_add(todo.len() as u64, Ordering::Relaxed);
            metrics.cache_misses.add(todo.len() as u64);
        }

        // Backend path: an installed [`ExecBackend`] (the distributed
        // coordinator) takes the whole miss set at once; results come
        // back unordered and are merged by submission index, with the
        // same lowest-index-error-wins contract as the pool path.
        let backend_guard = self.backend.read().unwrap();
        if let Some(backend) = backend_guard.as_ref() {
            self.stats
                .executed
                .fetch_add(todo.len() as u64, Ordering::Relaxed);
            metrics.jobs_executed.add(todo.len() as u64);
            let depth = self.profile.enqueue(todo.len() as u64);
            metrics.queue_depth.set(depth);
            metrics.queue_depth_peak.record(depth);
            let mut execs = backend(&todo);
            metrics
                .queue_depth
                .set(self.profile.dequeue(todo.len() as u64));
            execs.sort_by_key(|e| e.index);
            let mut first_err: Option<SyncPerfError> = None;
            for e in execs {
                match e.result {
                    Ok(m) => {
                        if let Some(cache) = &self.cache {
                            // `stored` means the backend already wrote
                            // the entry (raw wire bytes); either way it
                            // counts and the store hook fires.
                            let ok = e.stored || cache.store(e.hash, &m).is_ok();
                            if ok {
                                self.note_stored(e.hash);
                                self.stats.cache_stores.fetch_add(1, Ordering::Relaxed);
                                metrics.cache_stores.inc();
                                if let Some(hook) = self.store_hook.read().unwrap().as_ref() {
                                    hook(e.hash, &m);
                                }
                            }
                        }
                        self.checkpoint.lock().unwrap().record(e.hash);
                        results[e.index] = Some(m);
                    }
                    // Finish persisting siblings before failing, so a
                    // rerun only recomputes the failures.
                    Err(err) => first_err = first_err.or(Some(err)),
                }
            }
            if let Some(err) = first_err {
                return Err(err);
            }
            return Ok(results
                .into_iter()
                .map(|m| m.expect("every job either hit the cache or ran on the backend"))
                .collect());
        }
        drop(backend_guard);

        // Batch pass: group the miss set by kernel shape and evaluate
        // each parameter sweep through one struct-of-arrays plan table,
        // so workers start from pre-primed engine memos.
        let primed = self.prepare_primed(&todo, &metrics);

        // Dispatch: track live queue depth and per-job wait/service
        // latency, mirroring into the global recorder's telemetry.
        let dispatched = Instant::now();
        let depth = self.profile.enqueue(todo.len() as u64);
        metrics.queue_depth.set(depth);
        metrics.queue_depth_peak.record(depth);

        let items: Vec<((usize, JobSpec, u64), Option<PrimedEngine>)> =
            todo.into_iter().zip(primed).collect();
        let outcome = pool::run_indexed(
            self.effective_workers(),
            items,
            |_, ((i, job, h), primed)| {
                let wait_us = dispatched.elapsed().as_micros() as u64;
                self.profile.wait_us.observe(wait_us);
                metrics.wait_us.observe(wait_us);
                let exec_start = Instant::now();
                let r = self.execute_with_retry(&job, h, primed.as_ref(), &metrics);
                let exec_us = exec_start.elapsed().as_micros() as u64;
                self.profile.service_miss_us.observe(exec_us);
                metrics.service_miss_us.observe(exec_us);
                if let Ok(m) = &r {
                    if let Some(cache) = &self.cache {
                        // A read-only cache directory must not fail the
                        // run; the result is simply not reusable.
                        if cache.store(h, m).is_ok() {
                            self.note_stored(h);
                            self.stats.cache_stores.fetch_add(1, Ordering::Relaxed);
                            metrics.cache_stores.inc();
                            if let Some(hook) = self.store_hook.read().unwrap().as_ref() {
                                hook(h, m);
                            }
                        }
                    }
                    self.checkpoint.lock().unwrap().record(h);
                }
                metrics.queue_depth.set(self.profile.dequeue(1));
                (i, r)
            },
        );
        self.stats
            .steals
            .fetch_add(outcome.steals, Ordering::Relaxed);
        metrics.steals.add(outcome.steals);
        {
            let mut workers = self.profile.workers.lock().unwrap();
            if workers.len() < outcome.per_worker.len() {
                workers.resize_with(outcome.per_worker.len(), PoolWorkerStats::default);
            }
            for (acc, batch) in workers.iter_mut().zip(&outcome.per_worker) {
                acc.absorb(batch);
            }
        }

        for (i, r) in outcome.results {
            match r {
                Ok(m) => results[i] = Some(m),
                // `outcome.results` is in submission (= index) order,
                // so the first error seen is the lowest-index one —
                // matching what the serial path would have returned.
                Err(e) => return Err(e),
            }
        }
        Ok(results
            .into_iter()
            .map(|m| m.expect("every job either hit the cache or executed"))
            .collect())
    }

    /// [`Scheduler::run_jobs`] for a single job.
    ///
    /// # Errors
    ///
    /// Propagates the job's error.
    pub fn measure(&self, job: JobSpec) -> Result<Measurement> {
        Ok(self
            .run_jobs(vec![job])?
            .pop()
            .expect("one job in, one measurement out"))
    }

    /// Executes one job under [`execute_job_with_retry_primed`]'s
    /// policy, counting the execution and its retries. The retry seed
    /// differs per attempt but depends only on (hash, attempt), keeping
    /// the outcome independent of worker count and execution order.
    fn execute_with_retry(
        &self,
        job: &JobSpec,
        hash: u64,
        primed: Option<&PrimedEngine>,
        metrics: &Metrics,
    ) -> Result<Measurement> {
        self.stats.executed.fetch_add(1, Ordering::Relaxed);
        metrics.jobs_executed.inc();
        execute_job_with_retry_primed(job, hash, primed, |_| {
            self.stats.retries.fetch_add(1, Ordering::Relaxed);
            metrics.retries.inc();
        })
    }

    /// Groups the miss set by kernel shape ([`JobSpec::same_shape`])
    /// and batch-evaluates each parameter-sweep group of ≥ 2 jobs
    /// through one struct-of-arrays plan table, returning one optional
    /// primed engine pair per `todo` entry (in order). Group detection
    /// is always counted, but priming is skipped entirely while a
    /// global recorder is live: a primed executor runs no engine, so an
    /// observed run would record no engine events or counters. A group whose
    /// batch evaluation fails primes nothing, so the per-job path
    /// reproduces the exact error.
    fn prepare_primed(
        &self,
        todo: &[(usize, JobSpec, u64)],
        metrics: &Metrics,
    ) -> Vec<Option<PrimedEngine>> {
        let observed = obs::global().is_enabled();
        let start = Instant::now();
        let mut primed: Vec<Option<PrimedEngine>> = Vec::new();
        primed.resize_with(todo.len(), || None);
        let mut grouped = vec![false; todo.len()];
        let (mut batches, mut batch_points, mut primed_jobs) = (0u64, 0u64, 0u64);
        for lead in 0..todo.len() {
            if grouped[lead] {
                continue;
            }
            grouped[lead] = true;
            let mut members = vec![lead];
            for other in lead + 1..todo.len() {
                if !grouped[other] && todo[lead].1.same_shape(&todo[other].1) {
                    grouped[other] = true;
                    members.push(other);
                }
            }
            if members.len() < 2 {
                continue;
            }
            batches += 1;
            batch_points += members.len() as u64;
            metrics.batch_size.observe(members.len() as u64);
            if observed {
                continue;
            }
            let group: Vec<&JobSpec> = members.iter().map(|&m| &todo[m].1).collect();
            if let Some(engines) = JobSpec::batch_prime(&group) {
                primed_jobs += engines.len() as u64;
                for (&m, pe) in members.iter().zip(engines) {
                    primed[m] = Some(pe);
                }
            }
        }
        let us = start.elapsed().as_micros() as u64;
        self.stats
            .plan_batches
            .fetch_add(batches, Ordering::Relaxed);
        self.stats
            .plan_batch_points
            .fetch_add(batch_points, Ordering::Relaxed);
        self.stats
            .plan_primed_jobs
            .fetch_add(primed_jobs, Ordering::Relaxed);
        self.stats.plan_compile_us.fetch_add(us, Ordering::Relaxed);
        primed
    }

    /// Marks the run's checkpoint complete and flushes it.
    pub fn finish(&self) {
        self.checkpoint.lock().unwrap().finish();
    }
}

static CURRENT: RwLock<Option<Arc<Scheduler>>> = RwLock::new(None);

/// Installs `s` as the process-global scheduler (replacing any earlier
/// one) and returns a handle to it.
pub fn install(s: Scheduler) -> Arc<Scheduler> {
    let arc = Arc::new(s);
    *CURRENT.write().unwrap() = Some(Arc::clone(&arc));
    arc
}

/// Removes the process-global scheduler; measurement helpers fall back
/// to the serial legacy path.
pub fn uninstall() {
    *CURRENT.write().unwrap() = None;
}

/// The process-global scheduler, if one is installed.
#[must_use]
pub fn current() -> Option<Arc<Scheduler>> {
    CURRENT.read().unwrap().clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncperf_core::{kernel, DType, ExecParams, Protocol, SYSTEM3};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("syncperf-sched-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sim_jobs() -> Vec<JobSpec> {
        [2u32, 4, 8]
            .iter()
            .map(|&t| {
                JobSpec::cpu_sim(
                    &SYSTEM3,
                    kernel::omp_atomic_update_scalar(DType::I32),
                    ExecParams::new(t).with_loops(50, 4),
                    Protocol::SIM,
                )
            })
            .collect()
    }

    #[test]
    fn warm_cache_executes_nothing_and_matches_cold() {
        let dir = tmp_dir("warm");
        let s = Scheduler::new(SchedConfig::new(1).with_cache_dir(&dir));
        let cold = s.run_jobs(sim_jobs()).unwrap();
        let st = s.stats();
        assert_eq!((st.jobs, st.executed, st.cache_hits), (3, 3, 0));
        assert_eq!(st.cache_stores, 3);

        let warm = s.run_jobs(sim_jobs()).unwrap();
        let st = s.stats();
        assert_eq!((st.jobs, st.executed, st.cache_hits), (6, 3, 3));
        assert_eq!(warm, cold, "cached results must be bit-identical");
        assert!((s.stats().hit_rate() - 0.5).abs() < 1e-12);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let dir1 = tmp_dir("w1");
        let dir4 = tmp_dir("w4");
        let s1 = Scheduler::new(SchedConfig::new(1).with_cache_dir(&dir1));
        let s4 = Scheduler::new(SchedConfig::new(4).with_cache_dir(&dir4));
        let a = s1.run_jobs(sim_jobs()).unwrap();
        let b = s4.run_jobs(sim_jobs()).unwrap();
        assert_eq!(a, b);
        let _ = std::fs::remove_dir_all(&dir1);
        let _ = std::fs::remove_dir_all(&dir4);
    }

    #[test]
    fn salt_bump_invalidates_cache() {
        let dir = tmp_dir("salt");
        let s = Scheduler::new(SchedConfig::new(1).with_cache_dir(&dir));
        s.run_jobs(sim_jobs()).unwrap();
        assert_eq!(s.stats().cache_stores, 3);

        let bumped = Scheduler::new(SchedConfig::new(1).with_cache_dir(&dir).with_salt_extra(1));
        bumped.run_jobs(sim_jobs()).unwrap();
        let st = bumped.stats();
        assert_eq!((st.cache_hits, st.executed), (0, 3), "salt must invalidate");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_entry_recomputes() {
        let dir = tmp_dir("corrupt");
        let s = Scheduler::new(SchedConfig::new(1).with_cache_dir(&dir));
        let jobs = sim_jobs();
        let good = s.run_jobs(jobs.clone()).unwrap();
        let victim = s.cache.as_ref().unwrap().entry_path(s.job_hash(&jobs[1]));
        std::fs::write(&victim, "garbage").unwrap();

        let again = s.run_jobs(jobs).unwrap();
        assert_eq!(again, good, "recomputed entry must match");
        let st = s.stats();
        assert_eq!(st.cache_hits, 2, "two intact entries hit");
        assert_eq!(st.executed, 4, "one recompute after the corruption");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn no_cache_always_executes() {
        let dir = tmp_dir("nocache");
        let s = Scheduler::new(SchedConfig::new(2).with_cache_dir(&dir).without_cache());
        s.run_jobs(sim_jobs()).unwrap();
        s.run_jobs(sim_jobs()).unwrap();
        let st = s.stats();
        assert_eq!((st.executed, st.cache_hits, st.cache_misses), (6, 0, 0));
        assert!(!dir.exists(), "no cache directory without caching");
    }

    #[test]
    fn resume_counts_manifest_hits() {
        let dir = tmp_dir("resume");
        let first = Scheduler::new(SchedConfig::new(1).with_cache_dir(&dir).with_label("t"));
        first.run_jobs(sim_jobs()).unwrap();
        // Simulate an interruption: the manifest flushes on finish.
        first.finish();

        let resumed = Scheduler::new(
            SchedConfig::new(1)
                .with_cache_dir(&dir)
                .with_label("t")
                .with_resume(),
        );
        resumed.run_jobs(sim_jobs()).unwrap();
        let st = resumed.stats();
        assert_eq!(st.resumed, 3, "all three hits were checkpointed work");

        // Without --resume the same hits are plain cache hits.
        let fresh = Scheduler::new(SchedConfig::new(1).with_cache_dir(&dir).with_label("t"));
        fresh.run_jobs(sim_jobs()).unwrap();
        assert_eq!(fresh.stats().resumed, 0);
        assert_eq!(fresh.stats().cache_hits, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_batches_on_one_scheduler_keep_the_queue_depth() {
        // Both batches are dispatched before either finishes (the
        // backend waits for the other), so their depths must add up
        // and drain back to zero.
        let s = Arc::new(Scheduler::new(SchedConfig::new(1).without_cache()));
        let both = Arc::new(std::sync::Barrier::new(2));
        s.set_exec_backend(move |todo| {
            both.wait();
            todo.iter()
                .map(|(index, job, hash)| crate::BackendExec {
                    index: *index,
                    hash: *hash,
                    result: job.execute(*hash),
                    stored: false,
                })
                .collect()
        });
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let s = Arc::clone(&s);
                scope.spawn(move || s.run_jobs(sim_jobs()).unwrap());
            }
        });
        assert_eq!(
            s.stats().queue_depth_peak,
            6,
            "both batches were pending at once"
        );
        let mut snap = Snapshot::default();
        s.export_into(&mut snap);
        assert_eq!(
            snap.gauge("sched.queue_depth"),
            0,
            "the depth drains to zero"
        );

        // The pool path: overlapping batches on a shared scheduler.
        s.clear_exec_backend();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    for _ in 0..4 {
                        s.run_jobs(sim_jobs()).unwrap();
                    }
                });
            }
        });
        let mut snap = Snapshot::default();
        s.export_into(&mut snap);
        assert_eq!(snap.gauge("sched.queue_depth"), 0);
        assert_eq!(s.stats().executed, 6 + 2 * 4 * 3);
    }

    #[test]
    fn profiling_tracks_service_split_and_workers() {
        let dir = tmp_dir("profile");
        let s = Scheduler::new(SchedConfig::new(2).with_cache_dir(&dir));
        s.run_jobs(sim_jobs()).unwrap();
        let cold = s.stats();
        assert!(
            cold.service_miss_us_p99 >= cold.service_miss_us_p50,
            "miss service quantiles are ordered"
        );
        assert_eq!(cold.service_hit_us_p50, 0, "no hits yet");
        assert_eq!(cold.queue_depth_peak, 3, "all three jobs were pending");

        s.run_jobs(sim_jobs()).unwrap();
        let warm = s.stats();
        assert!(
            warm.service_hit_us_p99 >= warm.service_hit_us_p50,
            "hit service quantiles populated after the warm pass"
        );

        let workers = s.worker_stats();
        assert!(!workers.is_empty());
        let executed: u64 = workers.iter().map(|w| w.executed).sum();
        assert_eq!(executed, 3, "only the cold batch executed jobs");

        let mut snap = Snapshot::default();
        s.export_into(&mut snap);
        assert_eq!(snap.counter("sched.jobs"), 6);
        assert_eq!(snap.counter("sched.cache_hits"), 3);
        assert_eq!(snap.gauge("sched.queue_depth"), 0, "nothing pending now");
        assert_eq!(snap.gauge("sched.queue_depth_peak"), 3);
        assert_eq!(snap.histogram("sched.service_us.miss").count(), 3);
        assert_eq!(snap.histogram("sched.service_us.hit").count(), 3);
        assert_eq!(snap.histogram("sched.wait_us").count(), 3);
        let per_worker_exec: u64 = (0..workers.len())
            .map(|w| snap.counter(&format!("sched.worker.{w}.executed")))
            .sum();
        assert_eq!(per_worker_exec, 3);
        // The exported snapshot round-trips through SchedStats.
        let st = SchedStats::from_snapshot(&snap);
        assert_eq!(st.jobs, 6);
        assert_eq!(st.queue_depth_peak, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cached_job_hash_matches_uncached() {
        let mut canon = CanonicalCache::default();
        for salt in [0u64, 7] {
            for job in sim_jobs() {
                assert_eq!(
                    job_hash_with_salt_cached(&job, salt, &mut canon),
                    job_hash_with_salt(&job, salt),
                    "memoized canonical text must hash identically"
                );
            }
        }
    }

    #[test]
    fn batching_counts_groups_and_matches_direct_execution() {
        let dir = tmp_dir("batch");
        let s = Scheduler::new(SchedConfig::new(2).with_cache_dir(&dir));
        let jobs = sim_jobs();
        let got = s.run_jobs(jobs.clone()).unwrap();
        let st = s.stats();
        assert_eq!(st.plan_batches, 1, "three same-shape jobs form one group");
        assert_eq!(st.plan_batch_points, 3);
        // Priming only happens while the global recorder is disabled
        // (another test may have installed one in this process), but
        // either path must be byte-identical to direct execution.
        assert!(st.plan_primed_jobs == 0 || st.plan_primed_jobs == 3);
        let direct: Vec<Measurement> = jobs
            .iter()
            .map(|j| execute_job_with_retry(j, s.job_hash(j), |_| {}).unwrap())
            .collect();
        assert_eq!(got, direct, "batched results must match the unprimed path");

        // A mixed-shape batch: the lone GPU job stays ungrouped.
        let mut mixed = sim_jobs();
        mixed.push(JobSpec::gpu_sim(
            &SYSTEM3,
            kernel::cuda_syncthreads(),
            ExecParams::new(64).with_blocks(2).with_loops(50, 4),
            Protocol::SIM,
        ));
        let s2 = Scheduler::new(SchedConfig::new(1).with_cache_dir(tmp_dir("batch2")));
        s2.run_jobs(mixed).unwrap();
        let st2 = s2.stats();
        assert_eq!((st2.plan_batches, st2.plan_batch_points), (1, 3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_mirror_obs_counters() {
        // The global recorder may be disabled in the test process, so
        // only check the struct round-trips through a snapshot shape.
        let st = SchedStats {
            jobs: 10,
            cache_hits: 9,
            ..SchedStats::default()
        };
        assert!((st.hit_rate() - 0.9).abs() < 1e-12);
        assert_eq!(SchedStats::default().hit_rate(), 0.0);
    }
}
