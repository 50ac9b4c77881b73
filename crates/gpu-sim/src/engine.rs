//! The GPU simulation engine: interprets a kernel body at warp
//! granularity and returns `clock64()`-style cycle counts.
//!
//! All threads execute the identical body (the paper's kernels have no
//! divergence in the timed loop), so a warp is the unit of progress and
//! every resident warp accrues the same per-repetition cost; block-wide
//! barriers add their rendezvous cost in place. Because every thread
//! finishes at the same instant, the result stores one scalar total
//! instead of a per-thread vector (the old `vec![total; 131072]` was
//! the dominant allocation of a sweep).
//!
//! Per-op cycle costs are quantized once to integer fixed-point units
//! (2²⁰ units per cycle); the total over `reps` repetitions is one
//! exact integer multiply, bit-identical to stepping every repetition
//! ([`run_full_stepping`] is the oracle that does exactly that).

use syncperf_core::obs::{ArgValue, Recorder};
use syncperf_core::{DType, GpuOp, Result, Scope, SyncPerfError, Target};

use crate::config::GpuModel;
use crate::cost::{self, AtomicKind};
use crate::occupancy::Occupancy;

/// `atomic_conflict` instants one observed engine run may emit (the
/// first contended atomic ops of the body, in body order). The count
/// is a pure function of the body, so identical passes record
/// identical events; the `gpu_sim.atomic_conflicts` counter still
/// counts every conflict.
pub const OP_EVENT_BUDGET: u64 = 2;

/// log₂ of the number of fixed-point units per cycle.
pub const SCALE_BITS: u32 = 20;

/// Fixed-point units per cycle (2²⁰).
pub const SCALE: f64 = (1u64 << SCALE_BITS) as f64;

/// Quantizes a cost in cycles to fixed-point units.
#[must_use]
pub fn quantize_cycles(cycles: f64) -> u64 {
    debug_assert!(cycles >= 0.0, "negative cost {cycles}");
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    {
        (cycles * SCALE).round() as u64
    }
}

/// Converts fixed-point units back to cycles. Exact for any total below
/// 2⁵³ units.
#[must_use]
pub fn units_to_cycles(units: u64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    {
        units as f64 / SCALE
    }
}

/// Outcome of one engine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GpuEngineResult {
    /// Total elapsed time of the run in fixed-point units
    /// ([`SCALE`] units per cycle); identical for every thread.
    pub total_units: u64,
    /// Quantized cost of one body repetition, fixed-point units.
    pub units_per_rep: u64,
    /// Number of launched threads (blocks × threads per block).
    pub total_threads: u64,
    /// Whether the body contains a system-scope fence (the executor
    /// adds PCIe jitter for those).
    pub has_system_fence: bool,
}

impl GpuEngineResult {
    /// Total elapsed cycles (every thread finishes together).
    #[must_use]
    pub fn total_cycles(&self) -> f64 {
        units_to_cycles(self.total_units)
    }

    /// Cycles of one body repetition (before multiplying by reps).
    #[must_use]
    pub fn cycles_per_rep(&self) -> f64 {
        units_to_cycles(self.units_per_rep)
    }
}

/// Validates dtype support for CAS/Exch ops (`atomicCAS()` has no
/// native floating-point overloads — Section V-B2).
fn check_dtype(kind: AtomicKind, dtype: DType) -> Result<()> {
    let needs_integer = matches!(kind, AtomicKind::Cas | AtomicKind::Exch);
    if needs_integer && dtype.is_float() {
        return Err(SyncPerfError::UnsupportedDType {
            dtype: dtype.label(),
            primitive: match kind {
                AtomicKind::Cas => "atomicCAS".into(),
                AtomicKind::Exch => "atomicExch".into(),
                _ => unreachable!(),
            },
        });
    }
    Ok(())
}

/// Cost of one op, in cycles.
///
/// # Errors
///
/// Returns an error for ops the modeled device cannot execute
/// (unsupported data type or compute capability).
pub fn op_cycles(m: &GpuModel, occ: &Occupancy, op: &GpuOp) -> Result<f64> {
    if let GpuOp::AtomicRmw { op: rmw, dtype, .. } = *op {
        // atomicSub/Min/And/Or/Xor exist only for integer types.
        if dtype.is_float() {
            return Err(SyncPerfError::UnsupportedDType {
                dtype: dtype.label(),
                primitive: rmw.cuda_name().into(),
            });
        }
    }
    if let Some((kind, dtype, scope, target)) = cost::atomic_kind(op) {
        check_dtype(kind, dtype)?;
        if scope == Scope::Block && !m.has_block_atomics() {
            return Err(SyncPerfError::UnsupportedOp {
                op: "block-scoped atomic".into(),
                platform: format!("gpu-sim cc {}", m.compute_capability),
            });
        }
        return Ok(cost::atomic(m, occ, kind, dtype, scope, target));
    }
    Ok(match *op {
        GpuOp::SyncThreads => cost::syncthreads(m, occ),
        GpuOp::SyncWarp => cost::syncwarp(m, occ),
        GpuOp::SyncThreadsReduce { .. } => cost::syncthreads_reduce(m, occ),
        GpuOp::ThreadFence { scope } => cost::fence(m, scope),
        GpuOp::Shfl { dtype, .. } => cost::shfl(m, occ, dtype),
        GpuOp::Vote { .. } => cost::vote(m, occ),
        GpuOp::WarpReduce { dtype } => cost::warp_reduce(m, occ, dtype)?,
        GpuOp::Update { .. } => m.update_cy,
        GpuOp::Read { .. } => m.read_cy,
        GpuOp::Alu { .. } => m.alu_cy,
        GpuOp::Diverge { dtype, paths } => cost::diverge(m, occ, dtype, paths),
        _ => unreachable!("atomics handled above"),
    })
}

/// Runs `body` for `reps` repetitions under the given occupancy.
///
/// # Errors
///
/// Propagates unsupported-op errors and rejects `reps == 0`.
pub fn run(m: &GpuModel, occ: &Occupancy, body: &[GpuOp], reps: u64) -> Result<GpuEngineResult> {
    run_observed(m, occ, body, reps, syncperf_core::obs::global())
}

/// [`run`] with an explicit [`Recorder`]. With recording enabled this
/// emits, under category `gpu_sim`: a `kernel_launch` span carrying
/// block/warp scheduling arguments, and an `atomic_conflict` instant
/// per device-wide-contended atomic op in the body (at most
/// [`OP_EVENT_BUDGET`]) — plus the
/// `gpu_sim.launches`, `gpu_sim.blocks_scheduled`,
/// `gpu_sim.warps_scheduled` and `gpu_sim.atomic_conflicts` counters.
/// A disabled recorder costs one branch per site.
///
/// # Errors
///
/// Propagates unsupported-op errors and rejects `reps == 0`.
pub fn run_observed(
    m: &GpuModel,
    occ: &Occupancy,
    body: &[GpuOp],
    reps: u64,
    rec: &Recorder,
) -> Result<GpuEngineResult> {
    let mut r = analyze_body(m, occ, body, reps, rec)?;
    // One exact integer multiply extrapolates all repetitions — every
    // rep costs the same quantized units, so this is bit-identical to
    // stepping them (u64 addition is associative).
    r.total_units = r.units_per_rep * reps;
    Ok(r)
}

/// The reference path: identical to [`run_observed`] but charges every
/// repetition op-by-op in a stepping loop instead of multiplying. The
/// property tests assert the fast path is bit-exact against this
/// oracle.
///
/// # Errors
///
/// Propagates unsupported-op errors and rejects `reps == 0`.
pub fn run_full_stepping(
    m: &GpuModel,
    occ: &Occupancy,
    body: &[GpuOp],
    reps: u64,
    rec: &Recorder,
) -> Result<GpuEngineResult> {
    let mut r = analyze_body(m, occ, body, reps, rec)?;
    let mut op_units = Vec::with_capacity(body.len());
    for op in body {
        op_units.push(quantize_cycles(op_cycles(m, occ, op)?));
    }
    let mut total = 0u64;
    for _ in 0..reps {
        for &u in &op_units {
            total += u;
        }
    }
    r.total_units = total;
    Ok(r)
}

/// Shared per-run analysis: validates the body, sums the quantized
/// per-repetition cost, flags system fences, and emits the launch span
/// plus scheduling/conflict counters. `total_units` is left at zero for
/// the caller to fill in.
fn analyze_body(
    m: &GpuModel,
    occ: &Occupancy,
    body: &[GpuOp],
    reps: u64,
    rec: &Recorder,
) -> Result<GpuEngineResult> {
    if reps == 0 {
        return Err(SyncPerfError::InvalidParams("reps must be > 0".into()));
    }
    let mut span = rec.span_with("gpu_sim", || {
        (
            "kernel_launch",
            vec![
                ("blocks", ArgValue::from(occ.blocks)),
                ("threads_per_block", ArgValue::from(occ.threads_per_block)),
                ("resident_warps", ArgValue::from(occ.total_resident_warps)),
                ("waves", ArgValue::from(occ.waves)),
            ],
        )
    });
    rec.counter("gpu_sim.launches").inc();
    rec.counter("gpu_sim.blocks_scheduled")
        .add(u64::from(occ.blocks));
    rec.counter("gpu_sim.warps_scheduled")
        .add(u64::from(occ.blocks) * u64::from(occ.warps_per_block));
    let mut events_left = OP_EVENT_BUDGET;
    let mut conflicts = 0u64;

    let total_threads = u64::from(occ.blocks) * u64::from(occ.threads_per_block);
    let mut units_per_rep = 0u64;
    let mut has_system_fence = false;
    for (idx, op) in body.iter().enumerate() {
        units_per_rep += quantize_cycles(op_cycles(m, occ, op)?);
        if matches!(
            op,
            GpuOp::ThreadFence {
                scope: Scope::System
            }
        ) {
            has_system_fence = true;
        }
        // Every thread RMW-ing the same address serializes at the
        // atomic unit: all but one of the `total_threads` accesses
        // conflict, every repetition.
        if let Some((_, _, _, target)) = cost::atomic_kind(op) {
            if matches!(target, Target::SharedScalar(_)) && total_threads > 1 {
                conflicts += (total_threads - 1) * reps;
                if rec.is_enabled() && events_left > 0 {
                    events_left -= 1;
                    rec.instant_with("gpu_sim", || {
                        (
                            "atomic_conflict",
                            vec![
                                ("op_idx", ArgValue::from(idx)),
                                ("threads", ArgValue::U64(total_threads)),
                                ("reps", ArgValue::U64(reps)),
                            ],
                        )
                    });
                }
            }
        }
    }
    if conflicts > 0 {
        rec.counter("gpu_sim.atomic_conflicts").add(conflicts);
    }
    span.push_arg("cycles_per_rep", units_to_cycles(units_per_rep));
    Ok(GpuEngineResult {
        total_units: 0,
        units_per_rep,
        total_threads,
        has_system_fence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncperf_core::{kernel, ShflVariant, Target, SYSTEM1, SYSTEM3};

    fn m() -> GpuModel {
        GpuModel::for_spec(&SYSTEM3.gpu)
    }

    fn occ(blocks: u32, threads: u32) -> Occupancy {
        Occupancy::compute(&SYSTEM3.gpu, blocks, threads).unwrap()
    }

    #[test]
    fn run_multiplies_reps() {
        let body = kernel::cuda_syncwarp().baseline;
        let r1 = run(&m(), &occ(1, 32), &body, 1).unwrap();
        let r10 = run(&m(), &occ(1, 32), &body, 10).unwrap();
        assert!((r10.total_cycles() - 10.0 * r1.total_cycles()).abs() < 1e-9);
        assert_eq!(r1.total_threads, 32);
    }

    #[test]
    fn fast_path_matches_full_stepping_bit_exactly() {
        let model = m();
        let rec = Recorder::disabled();
        for k in [
            kernel::cuda_syncthreads(),
            kernel::cuda_atomic_add_scalar(DType::F64),
            kernel::cuda_threadfence(Scope::System, DType::I32, 1),
            kernel::cuda_shfl(DType::I32, ShflVariant::Down),
        ] {
            for (blocks, threads) in [(1, 32), (4, 256), (128, 1024)] {
                let o = occ(blocks, threads);
                for reps in [1, 7, 100, 10_000] {
                    let fast = run_observed(&model, &o, &k.test, reps, &rec).unwrap();
                    let full = run_full_stepping(&model, &o, &k.test, reps, &rec).unwrap();
                    assert_eq!(fast, full, "{} b={blocks} t={threads} r={reps}", k.name);
                }
            }
        }
    }

    #[test]
    fn rejects_zero_reps() {
        assert!(run(&m(), &occ(1, 32), &kernel::cuda_syncwarp().baseline, 0).is_err());
    }

    #[test]
    fn cas_rejects_floats() {
        let body = kernel::cuda_atomic_cas_scalar(DType::F32).baseline;
        let err = run(&m(), &occ(1, 32), &body, 1).unwrap_err();
        assert!(matches!(err, SyncPerfError::UnsupportedDType { .. }));
    }

    #[test]
    fn exch_rejects_doubles_allows_ints() {
        let bad = vec![GpuOp::AtomicExch {
            dtype: DType::F64,
            scope: Scope::Device,
            target: Target::SHARED,
        }];
        assert!(run(&m(), &occ(1, 32), &bad, 1).is_err());
        let ok = kernel::cuda_atomic_exch(DType::U64).baseline;
        assert!(run(&m(), &occ(1, 32), &ok, 1).is_ok());
    }

    #[test]
    fn warp_reduce_unsupported_on_cc75() {
        let m1 = GpuModel::for_spec(&SYSTEM1.gpu);
        let o = Occupancy::compute(&SYSTEM1.gpu, 1, 32).unwrap();
        let body = vec![GpuOp::WarpReduce { dtype: DType::I32 }];
        assert!(run(&m1, &o, &body, 1).is_err());
    }

    #[test]
    fn system_fence_flagged() {
        let body = kernel::cuda_threadfence(Scope::System, DType::I32, 1).test;
        let r = run(&m(), &occ(1, 32), &body, 1).unwrap();
        assert!(r.has_system_fence);
        let body = kernel::cuda_threadfence(Scope::Device, DType::I32, 1).test;
        let r = run(&m(), &occ(1, 32), &body, 1).unwrap();
        assert!(!r.has_system_fence);
    }

    #[test]
    fn fence_difference_constant_across_conditions() {
        // Fig. 14: test − baseline ≈ fence cost everywhere.
        let model = m();
        for (blocks, threads, stride) in [(1, 32, 1), (1, 1024, 32), (128, 256, 1), (128, 1024, 32)]
        {
            let k = kernel::cuda_threadfence(Scope::Device, DType::I32, stride);
            let o = occ(blocks, threads);
            let base = run(&model, &o, &k.baseline, 1).unwrap().cycles_per_rep();
            let test = run(&model, &o, &k.test, 1).unwrap().cycles_per_rep();
            assert!(
                ((test - base) - model.fence_device_cy).abs() < 1e-9,
                "blocks={blocks} threads={threads} stride={stride}"
            );
        }
    }

    #[test]
    fn block_fence_nearly_free() {
        let model = m();
        let k = kernel::cuda_threadfence(Scope::Block, DType::I32, 4);
        let o = occ(1, 64);
        let base = run(&model, &o, &k.baseline, 1).unwrap().cycles_per_rep();
        let test = run(&model, &o, &k.test, 1).unwrap().cycles_per_rep();
        // 2 cycles on a 16-cycle baseline — within measurement noise of
        // the real experiment ("runtimes at or near zero").
        assert!(test - base < 0.15 * base, "§V-B3: at or near zero");
    }

    #[test]
    fn shfl_variants_identical() {
        let model = m();
        let o = occ(128, 256);
        let costs: Vec<f64> = [
            ShflVariant::Idx,
            ShflVariant::Up,
            ShflVariant::Down,
            ShflVariant::Xor,
        ]
        .iter()
        .map(|&v| {
            run(&model, &o, &kernel::cuda_shfl(DType::I32, v).baseline, 1)
                .unwrap()
                .cycles_per_rep()
        })
        .collect();
        for w in costs.windows(2) {
            assert_eq!(
                w[0], w[1],
                "§V-B4: variants differ only in data movement pattern"
            );
        }
    }

    #[test]
    fn every_gpu_kernel_runs() {
        let model = m();
        let o = occ(2, 64);
        let kernels = vec![
            kernel::cuda_syncthreads(),
            kernel::cuda_syncwarp(),
            kernel::cuda_atomic_add_scalar(DType::F64),
            kernel::cuda_atomic_add_array(DType::I32, 32),
            kernel::cuda_atomic_cas_scalar(DType::I32),
            kernel::cuda_atomic_cas_array(DType::U64, 1),
            kernel::cuda_atomic_exch(DType::I32),
            kernel::cuda_threadfence(Scope::Device, DType::F32, 1),
            kernel::cuda_shfl(DType::F64, ShflVariant::Xor),
            kernel::cuda_vote(syncperf_core::VoteKind::Any),
        ];
        for k in kernels {
            let base = run(&model, &o, &k.baseline, 5).unwrap();
            let test = run(&model, &o, &k.test, 5).unwrap();
            assert!(
                test.cycles_per_rep() > base.cycles_per_rep(),
                "{}: test must cost more",
                k.name
            );
        }
    }

    #[test]
    fn rmw_family_integer_only_and_add_shaped() {
        use syncperf_core::RmwOp;
        let model = m();
        let o = occ(2, 64);
        for op in RmwOp::ALL {
            // Floats rejected, like nvcc would.
            let bad = kernel::cuda_atomic_rmw_scalar(op, DType::F32).baseline;
            assert!(run(&model, &o, &bad, 1).is_err(), "{op:?}");
            // Integers cost exactly what atomicAdd costs (same
            // datapath, same aggregation).
            let rmw = kernel::cuda_atomic_rmw_scalar(op, DType::I32).baseline;
            let add = kernel::cuda_atomic_add_scalar(DType::I32).baseline;
            assert_eq!(
                run(&model, &o, &rmw, 1).unwrap().cycles_per_rep(),
                run(&model, &o, &add, 1).unwrap().cycles_per_rep(),
                "{op:?}"
            );
        }
    }

    #[test]
    fn divergence_cost_constant_per_extra_path() {
        // Bialas & Strzelecki: the cost of a diverging branch is
        // essentially constant — marginal cost per path is flat.
        let model = m();
        let o = occ(1, 32);
        let cost = |paths| {
            run(
                &model,
                &o,
                &[GpuOp::Diverge {
                    dtype: DType::I32,
                    paths,
                }],
                1,
            )
            .unwrap()
            .cycles_per_rep()
        };
        let marginal_2 = cost(2) - cost(1);
        let marginal_16 = (cost(16) - cost(8)) / 8.0;
        let marginal_32 = (cost(32) - cost(31)) / 1.0;
        assert!((marginal_2 - marginal_16).abs() < 1e-9);
        assert!((marginal_2 - marginal_32).abs() < 1e-9);
        // A fully divergent warp costs far more than a uniform one.
        assert!(cost(32) > 20.0 * cost(1));
    }

    #[test]
    fn divergence_paths_capped_at_warp_size() {
        let model = m();
        let o = occ(1, 32);
        let a = run(
            &model,
            &o,
            &[GpuOp::Diverge {
                dtype: DType::I32,
                paths: 32,
            }],
            1,
        )
        .unwrap();
        let b = run(
            &model,
            &o,
            &[GpuOp::Diverge {
                dtype: DType::I32,
                paths: 64,
            }],
            1,
        )
        .unwrap();
        assert_eq!(
            a.cycles_per_rep(),
            b.cycles_per_rep(),
            "a warp has only 32 lanes"
        );
    }

    #[test]
    fn deterministic_like_real_gpu_runs() {
        // Section IV: "many of the GPU tests yield the exact same
        // runtime for all nine runs".
        let model = m();
        let o = occ(64, 512);
        let body = kernel::cuda_atomic_add_scalar(DType::I32).test;
        assert_eq!(
            run(&model, &o, &body, 7).unwrap(),
            run(&model, &o, &body, 7).unwrap()
        );
    }
}
