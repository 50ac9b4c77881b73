//! The GPU-simulator [`Executor`]: plugs the engine into the
//! measurement protocol with `clock64()`-style cycle reporting.

use syncperf_core::rng::SplitMix64;
use syncperf_core::{ExecParams, Executor, GpuOp, Result, SystemSpec, ThreadTimes, TimeUnit};

use crate::config::GpuModel;
use crate::engine::{self, GpuEngineResult};
use crate::occupancy::Occupancy;

/// How many recent engine results the executor memoizes (mirrors the
/// CPU executor's memo: the protocol alternates between a kernel's two
/// bodies with identical parameters many times per measurement).
const ENGINE_CACHE_CAP: usize = 4;

/// One memoized deterministic engine run.
#[derive(Debug, Clone)]
struct CacheEntry {
    body: Vec<GpuOp>,
    blocks: u32,
    threads: u32,
    reps: u64,
    result: GpuEngineResult,
}

/// Simulates the GPU of one of the paper's systems.
///
/// Times are reported in cycles at the device's clock (the paper reads
/// the cycle counter and divides by the clock frequency). Runs are
/// exactly reproducible — like the paper's GPU measurements ("many of
/// the GPU tests yield the exact same runtime for all nine runs") —
/// except when the body contains a `__threadfence_system()`, whose
/// PCIe crossing makes it "more erratic" (§V-B3); those runs get
/// deterministic seeded jitter.
///
/// # Examples
///
/// ```
/// use syncperf_core::{kernel, DType, ExecParams, Protocol, SYSTEM3};
/// use syncperf_gpu_sim::GpuSimExecutor;
///
/// # fn main() -> syncperf_core::Result<()> {
/// let mut gpu = GpuSimExecutor::new(&SYSTEM3);
/// let m = Protocol::SIM.measure(
///     &mut gpu,
///     &kernel::cuda_syncthreads(),
///     &ExecParams::new(256).with_blocks(64).with_loops(50, 4),
/// )?;
/// assert!(m.throughput().unwrap() > 1e6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GpuSimExecutor {
    system: SystemSpec,
    model: GpuModel,
    rng: SplitMix64,
    recorder: syncperf_core::obs::Recorder,
    /// Most-recent-first memo of engine runs. The engine is fully
    /// deterministic given `(body, blocks, threads, reps)`, so the
    /// memo is used observed or not: launch spans and `gpu_sim.*`
    /// counters describe the engine runs actually performed. The
    /// jitter RNG is only consumed for system-fence bodies and draws
    /// from the memoized result exactly as from a fresh run, so
    /// memoization never changes measurements.
    cache: Vec<CacheEntry>,
}

impl GpuSimExecutor {
    /// Default deterministic seed.
    pub const DEFAULT_SEED: u64 = 0x6E_0C_0D_E5;

    /// Creates a simulator for `system`'s GPU.
    #[must_use]
    pub fn new(system: &SystemSpec) -> Self {
        Self::with_seed(system, Self::DEFAULT_SEED)
    }

    /// Creates a simulator with an explicit seed for the system-fence
    /// jitter.
    #[must_use]
    pub fn with_seed(system: &SystemSpec, seed: u64) -> Self {
        GpuSimExecutor {
            system: system.clone(),
            model: GpuModel::for_spec(&system.gpu),
            rng: SplitMix64::seed_from_u64(seed),
            recorder: syncperf_core::obs::Recorder::disabled(),
            cache: Vec::new(),
        }
    }

    /// Creates a simulator with a custom model (ablation benches).
    #[must_use]
    pub fn with_model(system: &SystemSpec, model: GpuModel) -> Self {
        GpuSimExecutor {
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

    /// The active model.
    #[must_use]
    pub fn model(&self) -> &GpuModel {
        &self.model
    }

    /// Mutable access to the model, for ablations.
    pub fn model_mut(&mut self) -> &mut GpuModel {
        &mut self.model
    }

    /// The simulated system.
    #[must_use]
    pub fn system(&self) -> &SystemSpec {
        &self.system
    }

    /// Attaches a [`Recorder`](syncperf_core::obs::Recorder); engine
    /// runs then emit `gpu_sim.*` events/counters into it. Without one,
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
    fn cached_run(&mut self, body: &[GpuOp], params: &ExecParams) -> Result<GpuEngineResult> {
        let reps = params.timed_reps();
        if let Some(pos) = self.cache.iter().position(|e| {
            e.blocks == params.blocks
                && e.threads == params.threads
                && e.reps == reps
                && e.body == body
        }) {
            let hit = self.cache.remove(pos);
            let result = hit.result.clone();
            self.cache.insert(0, hit);
            return Ok(result);
        }
        let occ = Occupancy::compute(&self.system.gpu, params.blocks, params.threads)?;
        let result =
            engine::run_observed(&self.model, &occ, body, reps, self.effective_recorder())?;
        self.cache.insert(
            0,
            CacheEntry {
                body: body.to_vec(),
                blocks: params.blocks,
                threads: params.threads,
                reps,
                result: result.clone(),
            },
        );
        self.cache.truncate(ENGINE_CACHE_CAP);
        Ok(result)
    }

    /// Empties the engine memo, so the next execution re-runs the
    /// engine.
    #[cfg(test)]
    fn clear_memo(&mut self) {
        self.cache.clear();
    }

    /// Seeds the engine memo with a precomputed result for
    /// `(body, params)`. The scheduler's batched sweep evaluation
    /// computes many same-shape points in one struct-of-arrays pass
    /// ([`crate::batch::run_batch`]) and hands each job its slice; the
    /// protocol's executions then hit the memo instead of re-running
    /// the engine. Invisible to results for the same reasons the memo
    /// itself is (see the `cache` field docs).
    pub fn prime_engine(&mut self, body: &[GpuOp], params: &ExecParams, result: GpuEngineResult) {
        self.cache.insert(
            0,
            CacheEntry {
                body: body.to_vec(),
                blocks: params.blocks,
                threads: params.threads,
                reps: params.timed_reps(),
                result,
            },
        );
        self.cache.truncate(ENGINE_CACHE_CAP);
    }
}

impl Executor for GpuSimExecutor {
    type Op = GpuOp;

    fn name(&self) -> &str {
        "gpu-sim"
    }

    fn time_unit(&self) -> TimeUnit {
        TimeUnit::Cycles {
            clock_ghz: self.system.gpu.clock_ghz,
        }
    }

    fn execute(&mut self, body: &[GpuOp], params: &ExecParams) -> Result<ThreadTimes> {
        params.validate()?;
        let result = self.cached_run(body, params)?;
        let total = result.total_cycles();
        #[allow(clippy::cast_possible_truncation)]
        let n = result.total_threads as usize;
        if result.has_system_fence {
            let amp = self.model.fence_system_jitter;
            let per_thread = (0..n)
                .map(|_| {
                    let u: f64 = self.rng.gen_symmetric();
                    total * (1.0 + amp * u)
                })
                .collect();
            Ok(ThreadTimes::per_thread(per_thread))
        } else {
            Ok(ThreadTimes::uniform(total, n))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncperf_core::{kernel, DType, Protocol, Scope, SYSTEM1, SYSTEM2, SYSTEM3};

    fn quick(blocks: u32, threads: u32) -> ExecParams {
        ExecParams::new(threads)
            .with_blocks(blocks)
            .with_loops(50, 4)
    }

    #[test]
    fn cycle_unit_uses_device_clock() {
        let gpu = GpuSimExecutor::new(&SYSTEM3);
        match gpu.time_unit() {
            TimeUnit::Cycles { clock_ghz } => assert_eq!(clock_ghz, 2.625),
            TimeUnit::Seconds => panic!("GPU must report cycles"),
        }
    }

    #[test]
    fn per_thread_length_is_total_threads() {
        let mut gpu = GpuSimExecutor::new(&SYSTEM3);
        let t = gpu
            .execute(&kernel::cuda_syncwarp().baseline, &quick(4, 64))
            .unwrap();
        assert_eq!(t.len(), 256);
    }

    #[test]
    fn deterministic_without_system_fence() {
        let mut gpu = GpuSimExecutor::new(&SYSTEM3);
        let body = kernel::cuda_atomic_add_scalar(DType::I32).test;
        let a = gpu.execute(&body, &quick(2, 128)).unwrap();
        let b = gpu.execute(&body, &quick(2, 128)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn system_fence_is_erratic() {
        let mut gpu = GpuSimExecutor::new(&SYSTEM3);
        let body = kernel::cuda_threadfence(Scope::System, DType::I32, 1).test;
        let a = gpu.execute(&body, &quick(1, 64)).unwrap();
        let b = gpu.execute(&body, &quick(1, 64)).unwrap();
        assert_ne!(a, b, "§V-B3: system fences involve the PCIe bus");
    }

    #[test]
    fn protocol_end_to_end_syncthreads() {
        let mut gpu = GpuSimExecutor::new(&SYSTEM3);
        let m = Protocol::PAPER
            .measure(&mut gpu, &kernel::cuda_syncthreads(), &quick(64, 256))
            .unwrap();
        // 8 warps per block: base + 7×per-warp cycles.
        let expect = 25.0 + 9.0 * 7.0;
        assert!(
            (m.per_op - expect).abs() < 1e-6,
            "per_op {} vs {expect}",
            m.per_op
        );
    }

    #[test]
    fn all_three_gpus_run() {
        for sys in [&SYSTEM1, &SYSTEM2, &SYSTEM3] {
            let mut gpu = GpuSimExecutor::new(sys);
            let m = Protocol::SIM
                .measure(&mut gpu, &kernel::cuda_syncwarp(), &quick(2, 64))
                .unwrap();
            assert!(m.per_op > 0.0, "{}", sys);
        }
    }

    #[test]
    fn throughput_conversion_uses_clock() {
        let mut gpu = GpuSimExecutor::new(&SYSTEM3);
        let m = Protocol::SIM
            .measure(&mut gpu, &kernel::cuda_syncwarp(), &quick(1, 32))
            .unwrap();
        let expected = 2.625e9 / m.per_op;
        assert!((m.throughput().unwrap() - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn attached_recorder_observes_scheduling_and_conflicts() {
        let rec = syncperf_core::obs::Recorder::enabled();
        let mut gpu = GpuSimExecutor::new(&SYSTEM3).with_recorder(rec.clone());
        gpu.execute(
            &kernel::cuda_atomic_add_scalar(DType::I32).baseline,
            &quick(4, 64),
        )
        .unwrap();
        let snap = rec.snapshot();
        assert_eq!(snap.counter("gpu_sim.launches"), 1);
        assert_eq!(snap.counter("gpu_sim.blocks_scheduled"), 4);
        assert_eq!(snap.counter("gpu_sim.warps_scheduled"), 8);
        assert!(
            snap.counter("gpu_sim.atomic_conflicts") > 0,
            "shared-scalar atomics conflict"
        );
    }

    #[test]
    fn engine_memo_is_invisible_to_results() {
        // A memoizing executor, an observed (also memoizing) one and one
        // whose memo is emptied before every execution, so it re-runs
        // the engine each time, must agree bit-for-bit at the same
        // jitter seed — including for system-fence bodies, whose
        // jitter RNG draws from the memoized result exactly as from a
        // fresh run.
        let fenced = kernel::cuda_threadfence(Scope::System, DType::I32, 1).test;
        let plain = kernel::cuda_atomic_add_scalar(DType::I32).baseline;
        let mut cached = GpuSimExecutor::with_seed(&SYSTEM3, 7);
        let mut observed = GpuSimExecutor::with_seed(&SYSTEM3, 7)
            .with_recorder(syncperf_core::obs::Recorder::enabled());
        let mut fresh = GpuSimExecutor::with_seed(&SYSTEM3, 7);
        for _ in 0..3 {
            for body in [&fenced, &plain] {
                fresh.clear_memo();
                let expect = fresh.execute(body, &quick(2, 64)).unwrap();
                assert_eq!(cached.execute(body, &quick(2, 64)).unwrap(), expect);
                assert_eq!(observed.execute(body, &quick(2, 64)).unwrap(), expect);
            }
        }
        assert_eq!(fresh.cache.len(), 1);
        assert_eq!(cached.cache.len(), 2, "both bodies memoized");
    }

    #[test]
    fn primed_engine_result_is_used_and_exact() {
        let body = kernel::cuda_syncthreads().test;
        let params = quick(8, 128);
        let mut fresh = GpuSimExecutor::new(&SYSTEM3);
        let expect = fresh.execute(&body, &params).unwrap();

        let mut primed = GpuSimExecutor::new(&SYSTEM3);
        let occ = Occupancy::compute(&SYSTEM3.gpu, params.blocks, params.threads).unwrap();
        let batch = crate::batch::run_batch(
            primed.model(),
            std::slice::from_ref(&occ),
            &body,
            params.timed_reps(),
        )
        .unwrap();
        primed.prime_engine(&body, &params, batch[0].clone());
        assert_eq!(primed.execute(&body, &params).unwrap(), expect);
    }

    #[test]
    fn rejects_oversized_launches() {
        let mut gpu = GpuSimExecutor::new(&SYSTEM3);
        assert!(gpu
            .execute(&kernel::cuda_syncwarp().baseline, &quick(1, 2000))
            .is_err());
    }
}
