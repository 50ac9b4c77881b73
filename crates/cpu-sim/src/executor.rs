//! The CPU-simulator [`Executor`]: plugs the engine into the
//! measurement protocol, adding deterministic per-run timing jitter.

use syncperf_core::rng::SplitMix64;
use syncperf_core::{
    Affinity, CpuOp, ExecParams, Executor, Result, SyncPerfError, SystemSpec, ThreadTimes, TimeUnit,
};

use crate::config::CpuModel;
use crate::engine::{self, EngineResult};
use crate::topology::Placement;

/// How many recent engine results the executor memoizes. The protocol
/// alternates between a kernel's baseline and test bodies 6–18 times
/// per measurement with identical parameters; two entries would
/// suffice, four absorbs interleaved kernels too.
const ENGINE_CACHE_CAP: usize = 4;

/// One memoized deterministic engine run.
#[derive(Debug, Clone)]
struct CacheEntry {
    body: Vec<CpuOp>,
    threads: u32,
    affinity: Affinity,
    reps: u64,
    result: EngineResult,
    uses_hyperthreads: bool,
}

/// Simulates the CPU of one of the paper's systems.
///
/// Virtual times are reported in seconds (the engine's nanoseconds
/// divided by 10⁹), so measurements read exactly like the real-thread
/// executor's. Every run perturbs the result with the system's jitter
/// model — System 3's AMD CPU gets a visibly larger amplitude (Fig. 4a)
/// — deterministically from the constructor seed.
///
/// # Examples
///
/// ```
/// use syncperf_core::{kernel, DType, ExecParams, Protocol, SYSTEM3};
/// use syncperf_cpu_sim::CpuSimExecutor;
///
/// # fn main() -> syncperf_core::Result<()> {
/// let mut sim = CpuSimExecutor::new(&SYSTEM3);
/// let m = Protocol::SIM.measure(
///     &mut sim,
///     &kernel::omp_atomic_update_scalar(DType::I32),
///     &ExecParams::new(16).with_loops(50, 4),
/// )?;
/// assert!(m.throughput().unwrap() > 1e5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CpuSimExecutor {
    system: SystemSpec,
    model: CpuModel,
    rng: SplitMix64,
    recorder: syncperf_core::obs::Recorder,
    /// Most-recent-first memo of engine runs. The engine is fully
    /// deterministic given `(body, threads, affinity, reps)` — the
    /// model and system are fixed at construction — so the protocol's
    /// repeated identical executions reuse one simulation, observed or
    /// not: an observed executor's trace events and `cpu_sim.*`
    /// counters describe the engine runs it actually performed. The
    /// scheduler builds one executor per job, so what is recorded
    /// depends only on the job.
    cache: Vec<CacheEntry>,
}

impl CpuSimExecutor {
    /// Default deterministic seed.
    pub const DEFAULT_SEED: u64 = 0x12345;

    /// Creates a simulator for `system`'s CPU with the default seed.
    #[must_use]
    pub fn new(system: &SystemSpec) -> Self {
        Self::with_seed(system, Self::DEFAULT_SEED)
    }

    /// Creates a simulator with an explicit jitter seed.
    #[must_use]
    pub fn with_seed(system: &SystemSpec, seed: u64) -> Self {
        CpuSimExecutor {
            system: system.clone(),
            model: CpuModel::for_system(&system.cpu, system.cpu_jitter),
            rng: SplitMix64::seed_from_u64(seed),
            recorder: syncperf_core::obs::Recorder::disabled(),
            cache: Vec::new(),
        }
    }

    /// Creates a simulator with a custom latency model (used by the
    /// ablation benches).
    #[must_use]
    pub fn with_model(system: &SystemSpec, model: CpuModel) -> Self {
        CpuSimExecutor {
            system: system.clone(),
            model,
            rng: SplitMix64::seed_from_u64(Self::DEFAULT_SEED),
            recorder: syncperf_core::obs::Recorder::disabled(),
            cache: Vec::new(),
        }
    }

    /// Replaces the jitter RNG seed, leaving system and model intact.
    /// The sweep scheduler seeds each job's executor from the job's
    /// content hash so a measurement depends only on its own identity,
    /// never on execution order.
    #[must_use]
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.rng = SplitMix64::seed_from_u64(seed);
        self
    }

    /// The active latency model.
    #[must_use]
    pub fn model(&self) -> &CpuModel {
        &self.model
    }

    /// The simulated system.
    #[must_use]
    pub fn system(&self) -> &SystemSpec {
        &self.system
    }

    /// Attaches a [`Recorder`](syncperf_core::obs::Recorder); engine
    /// runs then emit `cpu_sim.*` events/counters into it. Without one,
    /// the executor falls back to the globally installed recorder.
    #[must_use]
    pub fn with_recorder(mut self, rec: syncperf_core::obs::Recorder) -> Self {
        self.recorder = rec;
        self
    }

    /// The recorder engine runs observe into: this executor's own if
    /// enabled, otherwise the global one.
    fn effective_recorder(&self) -> &syncperf_core::obs::Recorder {
        if self.recorder.is_enabled() {
            &self.recorder
        } else {
            syncperf_core::obs::global()
        }
    }

    /// Runs the engine through the memo cache. Hits move to the front;
    /// misses evict the oldest entry beyond [`ENGINE_CACHE_CAP`].
    fn cached_run(&mut self, body: &[CpuOp], params: &ExecParams) -> Result<(EngineResult, bool)> {
        let reps = params.timed_reps();
        if let Some(pos) = self.cache.iter().position(|e| {
            e.threads == params.threads
                && e.affinity == params.affinity
                && e.reps == reps
                && e.body == body
        }) {
            let hit = self.cache.remove(pos);
            let out = (hit.result.clone(), hit.uses_hyperthreads);
            self.cache.insert(0, hit);
            return Ok(out);
        }
        let placement = Placement::new(&self.system.cpu, params.affinity, params.threads);
        let result = engine::run_observed(
            &self.model,
            &placement,
            body,
            reps,
            self.effective_recorder(),
        )?;
        let uses_hyperthreads = placement.uses_hyperthreads();
        self.cache.insert(
            0,
            CacheEntry {
                body: body.to_vec(),
                threads: params.threads,
                affinity: params.affinity,
                reps,
                result: result.clone(),
                uses_hyperthreads,
            },
        );
        self.cache.truncate(ENGINE_CACHE_CAP);
        Ok((result, uses_hyperthreads))
    }

    /// Empties the engine memo, so the next execution re-runs the
    /// engine.
    #[cfg(test)]
    fn clear_memo(&mut self) {
        self.cache.clear();
    }

    /// Seeds the engine memo with a precomputed result for
    /// `(body, params)`. The scheduler's batched sweep evaluation
    /// computes many same-shape engine runs in one struct-of-arrays
    /// pass ([`crate::trace::run_batch`]) and hands each job its
    /// slice; the protocol's executions then hit the memo instead of
    /// re-simulating. Priming is invisible to results: the engine is
    /// deterministic and jitter is drawn after the (possibly memoized)
    /// run. A primed executor records no engine runs for the primed
    /// bodies, so the scheduler does not prime under a recorder.
    pub fn prime_engine(&mut self, body: &[CpuOp], params: &ExecParams, result: EngineResult) {
        let placement = Placement::new(&self.system.cpu, params.affinity, params.threads);
        self.cache.insert(
            0,
            CacheEntry {
                body: body.to_vec(),
                threads: params.threads,
                affinity: params.affinity,
                reps: params.timed_reps(),
                result,
                uses_hyperthreads: placement.uses_hyperthreads(),
            },
        );
        self.cache.truncate(ENGINE_CACHE_CAP);
    }
}

impl Executor for CpuSimExecutor {
    type Op = CpuOp;

    fn name(&self) -> &str {
        "cpu-sim"
    }

    fn time_unit(&self) -> TimeUnit {
        TimeUnit::Seconds
    }

    fn execute(&mut self, body: &[CpuOp], params: &ExecParams) -> Result<ThreadTimes> {
        params.validate()?;
        if params.blocks != 1 {
            return Err(SyncPerfError::InvalidParams(
                "the CPU simulator runs a single team (blocks must be 1)".into(),
            ));
        }
        let (result, uses_hyperthreads) = self.cached_run(body, params)?;

        // Timing jitter: one run-wide component (OS/system noise hits
        // the whole measurement — it survives the max-across-threads)
        // plus a small per-thread component. Hyperthreading adds
        // variability (Section V-A2 observes exactly that). Drawn after
        // the (possibly memoized) engine run so the RNG sequence is
        // independent of cache hits.
        let amp = self.model.jitter_amplitude
            + if uses_hyperthreads {
                self.model.smt_jitter_boost
            } else {
                0.0
            };
        let run_noise: f64 = 1.0 + amp * self.rng.gen_symmetric();
        let per_thread = result
            .per_thread_ns
            .iter()
            .map(|&ns| {
                let u: f64 = self.rng.gen_symmetric();
                ns * 1e-9 * run_noise * (1.0 + 0.1 * amp * u)
            })
            .collect();
        Ok(ThreadTimes::per_thread(per_thread))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncperf_core::{kernel, DType, Protocol, SYSTEM1, SYSTEM2, SYSTEM3};

    fn quick(threads: u32) -> ExecParams {
        ExecParams::new(threads).with_loops(50, 4)
    }

    #[test]
    fn reports_per_thread_seconds() {
        let mut sim = CpuSimExecutor::new(&SYSTEM3);
        let t = sim
            .execute(&kernel::omp_barrier().baseline, &quick(8))
            .unwrap();
        assert_eq!(t.len(), 8);
        for v in &t {
            assert!(v > 0.0 && v < 1.0, "unreasonable virtual time {v}");
        }
    }

    #[test]
    fn rejects_blocks() {
        let mut sim = CpuSimExecutor::new(&SYSTEM3);
        assert!(sim
            .execute(&kernel::omp_barrier().baseline, &quick(2).with_blocks(2))
            .is_err());
    }

    #[test]
    fn seeded_runs_reproduce() {
        let mut a = CpuSimExecutor::with_seed(&SYSTEM3, 42);
        let mut b = CpuSimExecutor::with_seed(&SYSTEM3, 42);
        let body = kernel::omp_atomic_update_scalar(DType::F32).test;
        assert_eq!(
            a.execute(&body, &quick(8)).unwrap(),
            b.execute(&body, &quick(8)).unwrap()
        );
    }

    #[test]
    fn jitter_varies_between_runs() {
        let mut sim = CpuSimExecutor::new(&SYSTEM3);
        let body = kernel::omp_atomic_update_scalar(DType::I32).baseline;
        let a = sim.execute(&body, &quick(4)).unwrap();
        let b = sim.execute(&body, &quick(4)).unwrap();
        assert_ne!(a, b, "jitter should perturb consecutive runs");
    }

    #[test]
    fn amd_system_noisier_than_intel() {
        let s3 = CpuSimExecutor::new(&SYSTEM3);
        let s2 = CpuSimExecutor::new(&SYSTEM2);
        assert!(s3.model().jitter_amplitude > s2.model().jitter_amplitude);
    }

    #[test]
    fn full_protocol_produces_positive_atomic_cost() {
        let mut sim = CpuSimExecutor::new(&SYSTEM3);
        let m = Protocol::PAPER
            .measure(
                &mut sim,
                &kernel::omp_atomic_update_scalar(DType::I32),
                &quick(8),
            )
            .unwrap();
        assert!(m.per_op > 0.0);
        // ~6.5 ns modeled base + contention; sanity-range check.
        let ns = m.runtime_seconds() * 1e9;
        assert!(ns > 10.0 && ns < 1000.0, "atomic cost {ns} ns out of range");
    }

    #[test]
    fn atomic_read_measures_negligible() {
        let mut sim = CpuSimExecutor::new(&SYSTEM2);
        let m = Protocol::PAPER
            .measure(&mut sim, &kernel::omp_atomic_read(DType::I32), &quick(8))
            .unwrap();
        assert!(
            m.is_negligible(),
            "atomic reads must be free (§V-A2): {}",
            m.per_op
        );
        assert!(m.throughput().is_none());
    }

    #[test]
    fn attached_recorder_observes_engine_counters() {
        let rec = syncperf_core::obs::Recorder::enabled();
        let mut sim = CpuSimExecutor::new(&SYSTEM3).with_recorder(rec.clone());
        sim.execute(&kernel::omp_barrier().test, &quick(4)).unwrap();
        sim.execute(
            &kernel::omp_atomic_update_scalar(DType::I32).baseline,
            &quick(8),
        )
        .unwrap();
        let snap = rec.snapshot();
        assert!(snap.counter("cpu_sim.engine_runs") >= 2);
        assert!(snap.counter("cpu_sim.barrier_rounds") > 0);
        assert!(
            snap.counter("cpu_sim.mesi_transitions") > 0,
            "contended atomics move lines"
        );
        assert!(snap.gauge("cpu_sim.arb_queue_depth_max") > 0);
    }

    #[test]
    fn engine_memo_is_invisible_to_results() {
        // A memoizing executor, an observed (also memoizing) one and one
        // whose memo is emptied before every execution, so it re-runs
        // the engine each time, must agree bit-for-bit at the same
        // jitter seed.
        let body_a = kernel::omp_atomic_update_scalar(DType::I32).baseline;
        let body_b = kernel::omp_atomic_update_scalar(DType::I32).test;
        let mut cached = CpuSimExecutor::with_seed(&SYSTEM3, 7);
        let mut observed = CpuSimExecutor::with_seed(&SYSTEM3, 7)
            .with_recorder(syncperf_core::obs::Recorder::enabled());
        let mut fresh = CpuSimExecutor::with_seed(&SYSTEM3, 7);
        for _ in 0..3 {
            for body in [&body_a, &body_b] {
                fresh.clear_memo();
                let expect = fresh.execute(body, &quick(8)).unwrap();
                assert_eq!(cached.execute(body, &quick(8)).unwrap(), expect);
                assert_eq!(observed.execute(body, &quick(8)).unwrap(), expect);
            }
        }
        assert_eq!(fresh.cache.len(), 1);
        assert_eq!(cached.cache.len(), 2, "both bodies memoized");
    }

    #[test]
    fn all_three_systems_run() {
        for sys in [&SYSTEM1, &SYSTEM2, &SYSTEM3] {
            let mut sim = CpuSimExecutor::new(sys);
            let m = Protocol::SIM
                .measure(&mut sim, &kernel::omp_barrier(), &quick(4))
                .unwrap();
            assert!(m.per_op > 0.0, "{}", sys);
        }
    }
}
