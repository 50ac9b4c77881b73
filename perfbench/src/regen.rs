//! The three regeneration workloads: `regen_nocache`, `regen_warm` and
//! `regen_observed`.
//!
//! An untraced op is exactly what `all_figures --jobs 1` does: install
//! a one-worker scheduler, run the figure generators, write each
//! figure as CSV and SVG, mark the checkpoint complete. `regen_nocache`
//! and `regen_observed` run with the cache off (`--no-cache`), so
//! every point executes; `regen_warm` reads a cache filled at set-up.
//!
//! A traced op runs the same generators over a scheduler whose exec
//! backend is [`Replay`]: the scheduler hands every batch of jobs to
//! it with its cache switched off, and the replay performs the
//! scheduler's own steps on the op's real cache directory, one layer
//! at a time, each inside a span — hashing, the presence scan, cache
//! reads, batch priming, the simulators, cache writes and checkpoint
//! records. The scheduler still hashes each job and records a shadow
//! checkpoint of its own before calling the backend; that duplicate
//! work lands in `bench.other` (see the README).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use syncperf_bench::{figures_cpu as cpu, figures_gpu as gpu};
use syncperf_core::obs;
use syncperf_core::{FigureData, Measurement, Result};
use syncperf_sched::checkpoint::FLUSH_EVERY;
use syncperf_sched::job::{CanonicalCache, PrimedEngine};
use syncperf_sched::scheduler::execute_job_with_retry_primed;
use syncperf_sched::{
    encode_measurement, BackendExec, Cache, Checkpoint, JobSpec, SchedConfig, SchedStats,
    Scheduler, SCHED_SALT,
};

use crate::oracle;
use crate::tracer::Tracer;
use crate::{Counts, Op, Workload};

type Generator = fn() -> Result<Vec<FigureData>>;

/// The figures `regen_observed` regenerates: fig01, fig02, fig05 and
/// fig07–fig15.
const OBSERVED: [Generator; 12] = [
    cpu::fig01_barrier,
    cpu::fig02_atomic_update_scalar,
    cpu::fig05_critical,
    gpu::fig07_syncthreads,
    gpu::fig08_syncwarp,
    gpu::fig09_atomicadd_scalar,
    gpu::fig10_atomicadd_array,
    gpu::fig11_atomiccas_scalar,
    gpu::fig12_atomiccas_array,
    gpu::fig13_atomicexch,
    gpu::fig14_threadfence,
    gpu::fig15_shfl,
];

/// Which figures a pass regenerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// `syncperf_bench::all_figures()`: 42 figures, 84 files.
    All,
    /// The [`OBSERVED`] subset.
    Observed,
}

impl Sweep {
    fn generate(self) -> Result<Vec<FigureData>> {
        match self {
            Sweep::All => syncperf_bench::all_figures(),
            Sweep::Observed => {
                let mut figs = Vec::new();
                for g in OBSERVED {
                    figs.extend(g()?);
                }
                Ok(figs)
            }
        }
    }

    fn label(self) -> &'static str {
        match self {
            Sweep::All => "all_figures",
            Sweep::Observed => "observed",
        }
    }
}

fn config(sweep: Sweep, cache_dir: &Path, cache: bool) -> SchedConfig {
    let cfg = SchedConfig::new(1)
        .with_cache_dir(cache_dir)
        .with_label(sweep.label());
    if cache {
        cfg
    } else {
        cfg.without_cache()
    }
}

/// Writes every figure as CSV and SVG; returns the file names.
fn emit(figs: &[FigureData], dir: &Path) -> Result<Vec<String>> {
    let mut names = Vec::with_capacity(2 * figs.len());
    for fig in figs {
        fig.write_csv(dir)?;
        fig.write_svg(dir)?;
        names.push(format!("{}.csv", fig.id));
        names.push(format!("{}.svg", fig.id));
    }
    Ok(names)
}

/// One untraced regeneration pass, as `all_figures --jobs 1` runs it;
/// returns the scheduler's counters and the emitted file names.
fn pass(
    sweep: Sweep,
    cache_dir: &Path,
    out_dir: &Path,
    cache: bool,
) -> Result<(SchedStats, Vec<String>)> {
    let sched = syncperf_sched::install(Scheduler::new(config(sweep, cache_dir, cache)));
    let out = sweep.generate().and_then(|figs| emit(&figs, out_dir));
    if out.is_ok() {
        sched.finish();
    }
    syncperf_sched::uninstall();
    out.map(|names| (sched.stats(), names))
}

/// Fills `cache_dir` with a cold pass of the whole sweep and writes
/// its figures to `out_dir`.
pub fn fill_cache(cache_dir: &Path, out_dir: &Path) -> std::result::Result<SchedStats, String> {
    pass(Sweep::All, cache_dir, out_dir, true)
        .map(|(stats, _)| stats)
        .map_err(|e| format!("cache fill failed: {e}"))
}

/// What `--cache-stats` and `--metrics` render at the end of a run,
/// plus the event drain; returns (bytes rendered, events drained).
fn render_observation(stats: &SchedStats, dir: &Path) -> std::io::Result<(u64, u64)> {
    let rec = obs::global();
    let metrics = obs::metrics::render(&rec.snapshot());
    let cache_stats = syncperf_bench::runner::cache_stats_json(stats, None);
    std::fs::write(dir.join("metrics.prom"), &metrics)?;
    std::fs::write(dir.join("cache_stats.json"), &cache_stats)?;
    let events = rec.drain_events().len() as u64;
    Ok(((metrics.len() + cache_stats.len()) as u64, events))
}

fn sched_counts(st: &SchedStats) -> Counts {
    Counts::from([
        ("sched.jobs", st.jobs),
        ("sched.executed", st.executed),
        ("sched.cache_hits", st.cache_hits),
        ("sched.store.files", st.cache_stores),
        ("sched.retries", st.retries),
        ("plan.batches", st.plan_batches),
        ("plan.primed_jobs", st.plan_primed_jobs),
    ])
}

/// Checks the emitted files against the pinned oracle and counts them.
/// `emitted` names the files this op wrote; any other file in
/// `out_dir` is a stale one from an earlier op.
fn check_outputs(
    sweep: Sweep,
    out_dir: &Path,
    mut emitted: Vec<String>,
    counts: &mut Counts,
) -> std::result::Result<(), String> {
    let files = oracle::read_outputs(out_dir).map_err(|e| format!("reading outputs: {e}"))?;
    emitted.sort();
    if files.iter().map(|f| &f.0).ne(emitted.iter()) {
        return Err(format!(
            "{} files on disk but this op emitted {}",
            files.len(),
            emitted.len()
        ));
    }
    counts.insert("bench.emit.files", files.len() as u64);
    counts.insert(
        "bench.emit.bytes",
        files.iter().map(|f| f.1.len() as u64).sum(),
    );
    oracle::check_pinned(&files, sweep == Sweep::All)
}

/// A regeneration workload.
#[derive(Debug)]
pub struct Regen {
    sweep: Sweep,
    warm: bool,
    observed: bool,
    /// Whether this run is traced; a traced `regen_warm` also traces
    /// its cache fill, the one pass that writes cache entries.
    trace: bool,
    base: PathBuf,
    /// The current set-up's directory under `base`.
    root: PathBuf,
    /// The filled cache a warm op reads (warm workload only).
    fill: Option<PathBuf>,
    /// Per-layer metrics of the traced cache fill.
    fill_ledger: BTreeMap<&'static str, f64>,
    /// Entry sizes of the filled cache, for `sched.load.bytes`.
    fill_sizes: HashMap<u64, u64>,
    /// Scheduler counters of the set-up warm-up op: the reference the
    /// traced replay must reproduce.
    reference: Option<SchedStats>,
    tracer: Option<Tracer>,
}

impl Regen {
    /// `regen_nocache`, `regen_warm` or `regen_observed`, working under `base`.
    pub fn new(sweep: Sweep, warm: bool, observed: bool, base: PathBuf, trace: bool) -> Self {
        Regen {
            sweep,
            warm,
            observed,
            trace,
            root: base.clone(),
            base,
            fill: None,
            fill_ledger: BTreeMap::new(),
            fill_sizes: HashMap::new(),
            reference: None,
            tracer: Some(Tracer::default()),
        }
    }

    /// The directories of the next op. Every op of a set-up writes into
    /// the same ones, overwriting the previous op's files: removing
    /// files between ops, or creating new ones each op, makes the
    /// disk's cost swing between runs (see `remove_dir`).
    fn op_dirs(&self) -> (PathBuf, PathBuf) {
        let op = self.root.join("op");
        let cache = match &self.fill {
            Some(fill) => fill.clone(),
            None => op.join("cache"),
        };
        (cache, op.join("out"))
    }

    fn untraced(&mut self) -> std::result::Result<Op, String> {
        let (cache, out) = self.op_dirs();
        let dropped_before = obs::global().dropped_events();
        let start = Instant::now();
        let (stats, emitted) =
            pass(self.sweep, &cache, &out, self.warm).map_err(|e| format!("pass failed: {e}"))?;
        let rendered = if self.observed {
            Some(render_observation(&stats, &out).map_err(|e| e.to_string())?)
        } else {
            None
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let mut counts = sched_counts(&stats);
        let mut amounts = BTreeMap::new();
        if let Some((bytes, events)) = rendered {
            amounts.insert("obs.render.bytes", bytes as f64);
            counts.insert("obs.events.recorded", events);
        }
        counts.insert(
            "obs.events.dropped",
            obs::global().dropped_events() - dropped_before,
        );
        let error = check_outputs(self.sweep, &out, emitted, &mut counts).err();
        // The scheduler's own clock around its plan step: grouping the
        // misses by shape and batch-priming each group.
        let program_ms = BTreeMap::from([("plan.batch", stats.plan_compile_us as f64 / 1e3)]);
        self.reference.get_or_insert(stats);
        Ok(Op {
            ms,
            error,
            counts,
            times: BTreeMap::new(),
            amounts,
            program_ms,
        })
    }

    fn traced(&mut self, op_id: u64) -> std::result::Result<Op, String> {
        let (cache_dir, out) = self.op_dirs();
        let mut op = self.traced_pass(op_id, &cache_dir, &out, self.warm)?;
        let reference = sched_counts(self.reference.as_ref().expect("set-up ran an untraced op"));
        for (k, v) in &reference {
            let got = op.counts.get(k).copied().unwrap_or(0);
            if got != *v {
                op.error.get_or_insert(format!(
                    "traced {k} = {got} but the untraced pass counted {v}"
                ));
            }
        }
        Ok(op)
    }

    /// One traced pass of the sweep through the [`Replay`] backend.
    fn traced_pass(
        &mut self,
        op_id: u64,
        cache_dir: &Path,
        out: &Path,
        use_cache: bool,
    ) -> std::result::Result<Op, String> {
        let shadow = out.with_file_name("shadow");
        let mut tracer = self
            .tracer
            .take()
            .expect("tracer is returned after every op");
        tracer.start_op(op_id);
        let replay = Arc::new(Mutex::new(Replay {
            tracer,
            cache: use_cache.then(|| Cache::new(cache_dir)),
            present: None,
            sizes: self.fill_sizes.clone(),
            checkpoint: Checkpoint::fresh(cache_dir, self.sweep.label()),
            checkpoint_path: Checkpoint::path_for(cache_dir, self.sweep.label()),
            checkpoint_dirty: 0,
            salt_line: format!("salt={SCHED_SALT}/0\n"),
            counts: Counts::new(),
            failures: Vec::new(),
        }));
        let dropped_before = obs::global().dropped_events();

        let sched = Scheduler::new(config(self.sweep, &shadow, false));
        {
            let replay = Arc::clone(&replay);
            sched.set_exec_backend(move |todo| lock(&replay).run_batch(todo));
        }
        let sched = syncperf_sched::install(sched);
        let root = lock(&replay).tracer.begin("bench.op");
        let assemble = lock(&replay).tracer.begin("bench.assemble");
        let figs = self.sweep.generate();
        let mut r = lock(&replay);
        r.tracer.end(assemble);
        let emitted = figs.and_then(|figs| r.tracer.time("bench.emit", || emit(&figs, out)));
        if emitted.is_ok() {
            r.finish_checkpoint();
            sched.finish();
        }
        syncperf_sched::uninstall();
        let rendered = if self.observed {
            let stats = sched.stats();
            let rendered = r
                .tracer
                .time("obs.render", || render_observation(&stats, out));
            Some(rendered)
        } else {
            None
        };
        r.tracer.end(root);
        drop(r);
        drop(sched);
        let Replay {
            mut tracer,
            mut counts,
            failures,
            ..
        } = Arc::try_unwrap(replay)
            .expect("the uninstalled scheduler dropped its backend")
            .into_inner()
            .expect("replay lock is not poisoned");
        let mut times = tracer.finish_op();
        self.tracer = Some(tracer);
        let emitted = emitted.map_err(|e| format!("traced pass failed: {e}"))?;
        let rendered = rendered
            .transpose()
            .map_err(|e| format!("rendering observations: {e}"))?;

        let ms = times.values().sum::<f64>();
        let other =
            times.remove("bench.op").unwrap_or(0.0) + times.remove("bench.assemble").unwrap_or(0.0);
        times.insert("bench.other", other);
        let mut amounts = BTreeMap::new();
        if let Some((bytes, events)) = rendered {
            amounts.insert("obs.render.bytes", bytes as f64);
            counts.insert("obs.events.recorded", events);
        }
        counts.insert(
            "obs.events.dropped",
            obs::global().dropped_events() - dropped_before,
        );
        let mut error = check_outputs(self.sweep, out, emitted, &mut counts).err();
        if let Some(f) = failures.first() {
            error = Some(f.clone());
        }
        Ok(Op {
            ms,
            error,
            counts,
            times,
            amounts,
            program_ms: BTreeMap::new(),
        })
    }
}

/// The cache-write layer as the traced fill measured it.
fn fill_ledger(op: &Op) -> BTreeMap<&'static str, f64> {
    let count = |k| op.counts.get(k).copied().unwrap_or(0) as f64;
    BTreeMap::from([
        ("fill.op_ms", op.ms),
        (
            "fill.sched.store.ms",
            op.times.get("sched.store").copied().unwrap_or(0.0),
        ),
        ("fill.sched.store.files", count("sched.store.files")),
        ("fill.sched.store.bytes", count("sched.store.bytes")),
    ])
}

fn lock(r: &Arc<Mutex<Replay>>) -> MutexGuard<'_, Replay> {
    r.lock().expect("replay lock is not poisoned")
}

impl Workload for Regen {
    fn setup(&mut self, rep: usize) -> std::result::Result<(), String> {
        self.root = self.base.join(format!("setup{rep}"));
        if self.observed && rep == 0 {
            obs::install(obs::Recorder::enabled());
        }
        if self.warm && self.fill.is_none() {
            let fill = self.base.join("fill");
            let (cache, out) = (fill.join("cache"), fill.join("out"));
            if self.trace {
                let op = self.traced_pass(u64::MAX, &cache, &out, true)?;
                if let Some(e) = op.error {
                    return Err(format!("traced cache fill failed: {e}"));
                }
                self.fill_ledger = fill_ledger(&op);
            } else {
                fill_cache(&cache, &out)?;
            }
            self.fill_sizes = Cache::new(&cache)
                .entries()
                .into_iter()
                .map(|e| (e.hash, e.bytes))
                .collect();
            self.fill = Some(cache);
        }
        self.reference = None;
        match self.untraced()?.error {
            Some(e) => Err(format!("warm-up op failed: {e}")),
            None => Ok(()),
        }
    }

    fn op(&mut self, traced: bool, op_id: u64) -> Op {
        let op = if traced {
            self.traced(op_id)
        } else {
            self.untraced()
        };
        op.unwrap_or_else(Op::failed)
    }

    fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    fn teardown(&mut self) -> std::io::Result<()> {
        crate::remove_dir(&self.root)
    }

    fn run_metrics(
        &mut self,
        _traced: bool,
    ) -> std::result::Result<BTreeMap<&'static str, f64>, String> {
        Ok(self.fill_ledger.clone())
    }
}

/// The traced exec backend: performs the scheduler's per-batch steps
/// on the op's cache directory, each inside a span.
#[derive(Debug)]
struct Replay {
    tracer: Tracer,
    /// The op's cache; `None` when the pass runs with the cache off.
    cache: Option<Cache>,
    /// Hashes known to be on disk: the presence scan plus this op's stores.
    present: Option<HashSet<u64>>,
    /// Entry sizes by hash, for `sched.load.bytes`.
    sizes: HashMap<u64, u64>,
    checkpoint: Checkpoint,
    checkpoint_path: PathBuf,
    /// Mirrors the checkpoint's unsaved-record count, to count saves.
    checkpoint_dirty: usize,
    salt_line: String,
    counts: Counts,
    failures: Vec<String>,
}

impl Replay {
    fn add(&mut self, key: &'static str, n: u64) {
        *self.counts.entry(key).or_insert(0) += n;
    }

    fn run_batch(&mut self, todo: &[(usize, JobSpec, u64)]) -> Vec<BackendExec> {
        let n = todo.len();
        self.add("sched.jobs", n as u64);

        let salt_line = &self.salt_line;
        let hashes: Vec<u64> = self.tracer.time("sched.hash", || {
            let mut canon = CanonicalCache::default();
            todo.iter()
                .map(|(_, job, _)| job.hash_with(&mut canon, salt_line))
                .collect()
        });
        self.add("sched.hash.calls", n as u64);
        if todo.iter().zip(&hashes).any(|((_, _, h), mine)| h != mine) {
            self.failures
                .push("replayed hash differs from the scheduler's".into());
        }

        let mut results: Vec<Option<Result<Measurement>>> = Vec::new();
        results.resize_with(n, || None);
        let misses = match &self.cache {
            Some(cache) => {
                if self.present.is_none() {
                    let found = self.tracer.time("sched.scan", || cache.hashes());
                    *self.counts.entry("sched.scan.entries").or_insert(0) += found.len() as u64;
                    self.present = Some(found.into_iter().collect());
                }
                let (present, sizes) = (self.present.as_ref().expect("scanned"), &self.sizes);
                let (misses, loads, load_bytes) = self.tracer.time("sched.load", || {
                    let (mut misses, mut loads, mut bytes) = (Vec::new(), 0u64, 0u64);
                    for (k, (_, job, h)) in todo.iter().enumerate() {
                        if present.contains(h) {
                            loads += 1;
                            if let Some(m) = cache.load(*h) {
                                if m.kernel_name == job.kernel_name() && m.params == *job.params() {
                                    bytes += sizes.get(h).copied().unwrap_or(0);
                                    results[k] = Some(Ok(m));
                                    continue;
                                }
                            }
                        }
                        misses.push(k);
                    }
                    (misses, loads, bytes)
                });
                self.add("sched.load.calls", loads);
                self.add("sched.load.bytes", load_bytes);
                misses
            }
            None => (0..n).collect(),
        };
        self.add("sched.cache_hits", (n - misses.len()) as u64);

        let (primed, batches, primed_jobs) = plan(&mut self.tracer, todo, &misses);
        self.add("plan.batches", batches);
        self.add("plan.primed_jobs", primed_jobs);

        for (&k, primed) in misses.iter().zip(&primed) {
            let (_, job, h) = &todo[k];
            let (span, jobs_key) = match job {
                JobSpec::CpuSim { .. } => ("cpu_sim.exec", "cpu_sim.exec.jobs"),
                JobSpec::GpuSim { .. } => ("gpu_sim.exec", "gpu_sim.exec.jobs"),
                JobSpec::RealOmp { .. } => ("omp.exec", "omp.exec.jobs"),
            };
            let mut retries = 0u64;
            let r = self.tracer.time(span, || {
                execute_job_with_retry_primed(job, *h, primed.as_ref(), |_| retries += 1)
            });
            self.add("sched.executed", 1);
            self.add(jobs_key, 1);
            self.add("sched.retries", retries);
            if let (Ok(m), Some(cache)) = (&r, &self.cache) {
                let stored = self.tracer.time("sched.store", || {
                    let encoded = encode_measurement(*h, m);
                    cache.store_raw(*h, &encoded).map(|()| encoded.len() as u64)
                });
                if let Ok(bytes) = stored {
                    self.add("sched.store.files", 1);
                    self.add("sched.store.bytes", bytes);
                    self.sizes.insert(*h, bytes);
                    self.present.as_mut().expect("scanned").insert(*h);
                }
            }
            results[k] = Some(r);
        }

        for (k, r) in results.iter().enumerate() {
            if matches!(r, Some(Ok(_))) {
                self.record_checkpoint(todo[k].2);
            }
        }

        todo.iter()
            .zip(results)
            .map(|((index, _, hash), r)| BackendExec {
                index: *index,
                hash: *hash,
                result: r.expect("every job hit or ran"),
                stored: true,
            })
            .collect()
    }

    fn record_checkpoint(&mut self, hash: u64) {
        if self.checkpoint.contains(hash) {
            return;
        }
        let cp = &mut self.checkpoint;
        self.tracer.time("sched.checkpoint", || cp.record(hash));
        self.checkpoint_dirty += 1;
        if self.checkpoint_dirty >= FLUSH_EVERY.max(self.checkpoint.len() / 8) {
            self.checkpoint_dirty = 0;
            self.count_save();
        }
    }

    fn finish_checkpoint(&mut self) {
        let cp = &mut self.checkpoint;
        self.tracer.time("sched.checkpoint", || cp.finish());
        self.count_save();
    }

    fn count_save(&mut self) {
        let bytes = std::fs::metadata(&self.checkpoint_path).map_or(0, |m| m.len());
        self.add("sched.checkpoint.saves", 1);
        self.add("sched.checkpoint.bytes", bytes);
    }
}

/// The scheduler's plan step over the misses of one batch: group
/// same-shape jobs and batch-prime each group of two or more, except
/// while a recorder is installed (the scheduler skips priming then).
/// The grouping copies the scheduler's private `prepare_primed` and is
/// not a span of its own (it lands in `bench.other`); only the public
/// `JobSpec::batch_prime` calls are timed, as `plan.prime`. Returns the
/// primed engines in `misses` order, the group count and the
/// primed-job count.
fn plan(
    tracer: &mut Tracer,
    todo: &[(usize, JobSpec, u64)],
    misses: &[usize],
) -> (Vec<Option<PrimedEngine>>, u64, u64) {
    let mut primed: Vec<Option<PrimedEngine>> = Vec::new();
    primed.resize_with(misses.len(), || None);
    let mut grouped = vec![false; misses.len()];
    let (mut batches, mut primed_jobs) = (0u64, 0u64);
    let skip = obs::global().is_enabled();
    for lead in 0..misses.len() {
        if grouped[lead] {
            continue;
        }
        grouped[lead] = true;
        let mut members = vec![lead];
        for other in lead + 1..misses.len() {
            if !grouped[other] && todo[misses[lead]].1.same_shape(&todo[misses[other]].1) {
                grouped[other] = true;
                members.push(other);
            }
        }
        if members.len() < 2 {
            continue;
        }
        batches += 1;
        if skip {
            continue;
        }
        let group: Vec<&JobSpec> = members.iter().map(|&m| &todo[misses[m]].1).collect();
        if let Some(engines) = tracer.time("plan.prime", || JobSpec::batch_prime(&group)) {
            primed_jobs += engines.len() as u64;
            for (&m, pe) in members.iter().zip(engines) {
                primed[m] = Some(pe);
            }
        }
    }
    (primed, batches, primed_jobs)
}
