//! The CPU simulation engine: advances every thread through
//! `reps` repetitions of a kernel body, charging coherence-aware costs
//! per operation and rendezvousing at barriers.
//!
//! The model is *cycle-approximate, mechanism-faithful*: per-op latency
//! is `service + contention(line)` where the contention term saturates
//! (a bounded coherence-arbitration queue), store buffers hide part of
//! a store's coherence latency until a fence drains them, hyperthread
//! pairs share issue bandwidth and an L1, and barriers release all
//! arrivals together after a participant-count-dependent cost.
//!
//! Time is integer fixed-point (2²⁰ units per nanosecond, see
//! [`crate::plan`]): every `(thread, op)` cost is quantized once per run
//! by the compiled [`RunPlan`], and the engine detects the per-thread
//! *steady state* — consecutive repetitions with identical per-thread
//! deltas, barrier offsets, and store-buffer horizons — after which the
//! remaining repetitions are extrapolated with one exact integer
//! multiply instead of being stepped. [`run_full_stepping`] is the
//! oracle that never extrapolates; the fast path is bit-exact against
//! it by construction (property-tested in `tests/property_based.rs`).

use syncperf_core::obs::{ArgValue, Recorder};
use syncperf_core::{CpuOp, Result, SyncPerfError};

use crate::config::CpuModel;
use crate::memline::{classify, line_of, Access, ContentionMap};
use crate::plan::{units_to_ns, PlanOp, RunPlan};
use crate::topology::Placement;
use crate::trace::OpTrace;

/// With a live recorder the first `OBSERVED_REPS` repetitions are
/// always stepped with per-op event emission (bounding trace volume the
/// same way the previous engine's warm-rep window did); steady-state
/// extrapolation is only allowed past this window.
pub const OBSERVED_REPS: u64 = 4;

/// Per-op events (`cpu_sim.op` and `store_buffer_drain` instants) one
/// observed engine run may emit. The engine narrates whole rows — one
/// thread's ops in one of the [`OBSERVED_REPS`] stepped repetitions —
/// thread 0 first and, within a thread, the latest (steady) repetition
/// first, as many rows as fit and always at least one: a body whose
/// row alone exceeds the budget still has that row narrated whole. The
/// count is a pure function of the run's inputs, so identical passes
/// record identical events; and a full observed `all_figures --jobs 1`
/// pass stays inside one thread's event ring.
pub const OP_EVENT_BUDGET: u64 = 8;

/// Which per-op events an observed run emits (see [`OP_EVENT_BUDGET`]).
struct Narration<'a> {
    rec: &'a Recorder,
    /// Stepped repetitions of the run.
    emit_reps: u64,
    /// Rows narrated, counted thread-major, latest repetition first.
    rows: u64,
    /// Store-buffer drains seen in the stepped repetitions (all
    /// threads), added to the counter once at the end of the run.
    drains: u64,
}

impl<'a> Narration<'a> {
    fn new(rec: &'a Recorder, body: &[CpuOp], emit_reps: u64) -> Self {
        let flushes = body.iter().filter(|op| matches!(op, CpuOp::Flush)).count() as u64;
        let row_events = (body.len() as u64 + flushes).max(1);
        Narration {
            rec,
            emit_reps,
            rows: (OP_EVENT_BUDGET / row_events).max(1),
            drains: 0,
        }
    }

    /// Whether thread `tid`'s events in `rep` are emitted.
    fn narrates(&self, tid: usize, rep: u64) -> bool {
        tid as u64 * self.emit_reps + (self.emit_reps - 1 - rep) < self.rows
    }
}

/// Outcome of one engine run: per-thread virtual nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineResult {
    /// Elapsed virtual time per thread for the whole timed region.
    pub per_thread_ns: Vec<f64>,
    /// Number of barrier episodes executed.
    pub barrier_episodes: u64,
}

/// Runs `body` for `reps` repetitions on every placed thread.
///
/// # Errors
///
/// Returns [`SyncPerfError::InvalidParams`] if `reps` is zero.
pub fn run(
    model: &CpuModel,
    placement: &Placement,
    body: &[CpuOp],
    reps: u64,
) -> Result<EngineResult> {
    run_observed(model, placement, body, reps, syncperf_core::obs::global())
}

/// [`run`] with an explicit [`Recorder`]. With recording enabled this
/// emits, under category `cpu_sim`: an `engine_run` span, and per-op
/// instants (tagged `tid`/`rep`/`idx`/`cost_ns`) and
/// `store_buffer_drain` instants at fences for the first
/// [`OBSERVED_REPS`] repetitions, within [`OP_EVENT_BUDGET`] — plus
/// the `cpu_sim.barrier_rounds`,
/// `cpu_sim.mesi_transitions` (analytic coherence-transaction count
/// derived from the contention map) and `cpu_sim.store_buffer_drains`
/// counters and the `cpu_sim.arb_queue_depth_max` high-water gauge. A
/// disabled recorder costs one branch per site. Recording never changes
/// the simulated times: the steady-state fast path is exact, so
/// observed and unobserved runs return bit-identical results.
///
/// # Errors
///
/// Returns [`SyncPerfError::InvalidParams`] if `reps` is zero.
pub fn run_observed(
    model: &CpuModel,
    placement: &Placement,
    body: &[CpuOp],
    reps: u64,
    rec: &Recorder,
) -> Result<EngineResult> {
    run_impl(model, placement, body, reps, rec, false)
}

/// The reference path: identical to [`run_observed`] but steps every
/// repetition, never extrapolating. The property tests assert the fast
/// path is bit-exact against this oracle.
///
/// # Errors
///
/// Returns [`SyncPerfError::InvalidParams`] if `reps` is zero.
pub fn run_full_stepping(
    model: &CpuModel,
    placement: &Placement,
    body: &[CpuOp],
    reps: u64,
    rec: &Recorder,
) -> Result<EngineResult> {
    run_impl(model, placement, body, reps, rec, true)
}

/// Reusable per-run scratch: thread clocks, store-buffer horizons, the
/// barrier release order, and the steady-state detector's previous-rep
/// snapshot. One allocation set per run, none per rep or per op.
struct Scratch {
    /// Per-thread clock, fixed-point units.
    t: Vec<u64>,
    /// Per-thread store-buffer drain horizon, fixed-point units.
    pending: Vec<u64>,
    /// Barrier release order (reused across rendezvous).
    order: Vec<usize>,
    /// Previous rep boundary: per-thread clock.
    prev_t: Vec<u64>,
    /// Previous rep: per-thread delta.
    prev_delta: Vec<u64>,
    /// Previous rep boundary: clock offset above the slowest thread.
    prev_off: Vec<u64>,
    /// Previous rep boundary: `pending − t` (saturating).
    prev_pend: Vec<u64>,
}

fn run_impl(
    model: &CpuModel,
    placement: &Placement,
    body: &[CpuOp],
    reps: u64,
    rec: &Recorder,
    force_full: bool,
) -> Result<EngineResult> {
    if reps == 0 {
        return Err(SyncPerfError::InvalidParams("reps must be > 0".into()));
    }
    let n = placement.len();
    let contention = ContentionMap::analyze(body, placement, 64);
    let plan = RunPlan::compile(model, placement, &contention, body);

    let _span = rec.span_with("cpu_sim", || {
        (
            "engine_run",
            vec![
                ("threads", ArgValue::from(n)),
                ("ops", ArgValue::from(body.len())),
                ("reps", ArgValue::from(reps)),
            ],
        )
    });
    let enabled = rec.is_enabled();
    rec.counter("cpu_sim.engine_runs").inc();
    if enabled {
        record_coherence_profile(model, placement, &contention, body, reps, rec);
    }

    let mut s = Scratch {
        t: vec![0u64; n],
        pending: vec![0u64; n],
        order: Vec::with_capacity(n),
        prev_t: vec![0u64; n],
        prev_delta: vec![0u64; n],
        prev_off: vec![0u64; n],
        prev_pend: vec![0u64; n],
    };
    let mut barrier_episodes = 0u64;
    let emit_reps = if enabled { OBSERVED_REPS.min(reps) } else { 0 };
    let mut narration = Narration::new(rec, body, emit_reps);
    let has_barriers = plan.barriers_per_rep() > 0;
    let mut have_prev = false;

    // Reps inside the emit window (and the full-stepping oracle) run
    // the op-by-op interpreter, which can narrate per-op events. Every
    // other rep runs the lowered branchless trace — bit-exact against
    // the interpreter (see [`crate::trace`]) and compiled lazily on
    // first use.
    let mut trace: Option<OpTrace> = None;
    let mut rep = 0u64;
    while rep < reps {
        if force_full || rep < emit_reps {
            let narrate = (rep < emit_reps).then_some(&mut narration);
            step_rep(&plan, body, &mut s, narrate, rep, &mut barrier_episodes);
        } else {
            let tr = trace.get_or_insert_with(|| compile_trace(&plan, rec, enabled));
            barrier_episodes += tr.step_rep(&mut s.t, &mut s.pending, &mut s.order);
        }
        rep += 1;
        if force_full {
            continue;
        }
        // Steady-state detection at the rep boundary: the stepping
        // relation is invariant under a uniform clock shift, so if this
        // rep's per-thread deltas, store-buffer horizons, and (when
        // barriers couple the threads) relative clock offsets all match
        // the previous rep's, every later rep repeats exactly — one
        // integer multiply extrapolates the rest bit-exactly.
        let min_t = s.t.iter().copied().min().unwrap_or(0);
        let mut steady = have_prev && rep >= emit_reps;
        for tid in 0..n {
            let delta = s.t[tid] - s.prev_t[tid];
            let off = s.t[tid] - min_t;
            let pend = s.pending[tid].saturating_sub(s.t[tid]);
            if steady
                && (delta != s.prev_delta[tid]
                    || pend != s.prev_pend[tid]
                    || (has_barriers && off != s.prev_off[tid]))
            {
                steady = false;
            }
            s.prev_delta[tid] = delta;
            s.prev_off[tid] = off;
            s.prev_pend[tid] = pend;
            s.prev_t[tid] = s.t[tid];
        }
        have_prev = true;
        if steady && rep < reps {
            let remaining = reps - rep;
            for tid in 0..n {
                s.t[tid] += s.prev_delta[tid] * remaining;
                s.pending[tid] = s.t[tid] + s.prev_pend[tid];
            }
            barrier_episodes += plan.barriers_per_rep() * remaining;
            break;
        }
    }
    rec.counter("cpu_sim.barrier_rounds").add(barrier_episodes);
    if narration.drains > 0 {
        rec.counter("cpu_sim.store_buffer_drains")
            .add(narration.drains);
    }

    Ok(EngineResult {
        per_thread_ns: s.t.iter().map(|&u| units_to_ns(u)).collect(),
        barrier_episodes,
    })
}

/// Lowers the plan to a flat trace, recording `plan.compile_us` and
/// `plan.trace_ops` when observation is on.
fn compile_trace(plan: &RunPlan, rec: &Recorder, enabled: bool) -> OpTrace {
    if !enabled {
        return OpTrace::compile(plan);
    }
    let start = std::time::Instant::now();
    let tr = OpTrace::compile(plan);
    rec.histogram("plan.compile_us")
        .observe(start.elapsed().as_micros() as u64);
    rec.counter("plan.trace_ops").add(tr.trace_ops() as u64);
    tr
}

/// Steps one full repetition for all threads: segment by segment with a
/// rendezvous after every segment but the last. `narrate` is set for
/// the stepped repetitions of an observed run.
fn step_rep(
    plan: &RunPlan,
    body: &[CpuOp],
    s: &mut Scratch,
    mut narrate: Option<&mut Narration>,
    rep: u64,
    barrier_episodes: &mut u64,
) {
    let segments = plan.segments();
    let last = segments.len() - 1;
    for (seg_idx, &(start, end)) in segments.iter().enumerate() {
        for tid in 0..plan.threads() {
            step_ops(plan, body, tid, start, end, s, narrate.as_deref_mut(), rep);
        }
        if seg_idx < last {
            rendezvous(plan, &mut s.t, &mut s.order);
            *barrier_episodes += 1;
        }
    }
}

/// Executes a straight-line (barrier-free) op range for one thread.
#[allow(clippy::too_many_arguments)]
fn step_ops(
    plan: &RunPlan,
    body: &[CpuOp],
    tid: usize,
    start: usize,
    end: usize,
    s: &mut Scratch,
    mut narrate: Option<&mut Narration>,
    rep: u64,
) {
    let t = &mut s.t[tid];
    let pending = &mut s.pending[tid];
    for (idx, op) in body.iter().enumerate().take(end).skip(start) {
        let before = *t;
        match plan.op(tid, idx) {
            PlanOp::Barrier => unreachable!("barriers handled by rendezvous"),
            PlanOp::Fixed(cost) => *t += cost,
            PlanOp::Store {
                visible,
                pending_extra,
            } => {
                *t += visible;
                *pending = (*pending).max(*t + pending_extra);
            }
            PlanOp::Flush { base } => {
                let drain = pending.saturating_sub(*t);
                *t += base + drain;
                *pending = *t;
                if let Some(n) = narrate.as_deref_mut() {
                    if drain > 0 {
                        n.drains += 1;
                        if n.narrates(tid, rep) {
                            n.rec.instant_with("cpu_sim", || {
                                (
                                    "store_buffer_drain",
                                    vec![
                                        ("tid", ArgValue::from(tid)),
                                        ("drain_ns", ArgValue::F64(units_to_ns(drain))),
                                    ],
                                )
                            });
                        }
                    }
                }
            }
        }
        if let Some(n) = narrate.as_deref_mut() {
            if n.narrates(tid, rep) {
                let cost = *t - before;
                n.rec.instant_with("cpu_sim.op", || {
                    (
                        format!("{op:?}"),
                        vec![
                            ("tid", ArgValue::from(tid)),
                            ("rep", ArgValue::from(rep)),
                            ("idx", ArgValue::from(idx)),
                            ("cost_ns", ArgValue::F64(units_to_ns(cost))),
                        ],
                    )
                });
            }
        }
    }
}

/// Releases all threads from a barrier. Order of release follows order
/// of arrival (stable: ties release in thread-id order).
fn rendezvous(plan: &RunPlan, t: &mut [u64], order: &mut Vec<usize>) {
    let max_arrival = t.iter().copied().max().unwrap_or(0);
    let release = max_arrival + plan.barrier_units();
    order.clear();
    order.extend(0..t.len());
    order.sort_by_key(|&tid| t[tid]);
    for (rank, &tid) in order.iter().enumerate() {
        t[tid] = release + rank as u64 * plan.stagger_units();
    }
}

/// Records the analytic coherence profile of a run: the number of
/// MESI-level coherence transactions the contention map implies (every
/// contended access misses locally and goes through the directory) and
/// the arbitration-queue depth high-water mark. Called only when
/// recording is enabled.
fn record_coherence_profile(
    model: &CpuModel,
    placement: &Placement,
    contention: &ContentionMap,
    body: &[CpuOp],
    reps: u64,
    rec: &Recorder,
) {
    let mut transitions = 0u64;
    let mut depth_max = 0u64;
    let mut lines: Vec<(crate::memline::LineId, bool)> = Vec::with_capacity(2);
    for tid in 0..placement.len() {
        let core = placement.slot(tid).core;
        for op in body {
            lines.clear();
            match classify(op) {
                Access::None => {}
                Access::Read(dtype, target) => {
                    lines.push((line_of(dtype, target, tid, contention.line_bytes()), false));
                }
                Access::Write(dtype, target) => {
                    lines.push((line_of(dtype, target, tid, contention.line_bytes()), true));
                }
                Access::CriticalWrite(dtype, target) => {
                    lines.push((crate::memline::lock_line(), true));
                    lines.push((line_of(dtype, target, tid, contention.line_bytes()), true));
                }
            }
            for &(line, write) in &lines {
                let (c, _) = contention.contenders(line, core, write);
                depth_max = depth_max.max(u64::from(c.min(model.contention_sat)));
                if c > 0 {
                    transitions += reps;
                }
            }
        }
    }
    rec.gauge("cpu_sim.arb_queue_depth_max").record(depth_max);
    rec.counter("cpu_sim.mesi_transitions").add(transitions);
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncperf_core::{kernel, Affinity, DType, SYSTEM3};

    fn setup(n: u32) -> (CpuModel, Placement) {
        (
            CpuModel::baseline(),
            Placement::new(&SYSTEM3.cpu, Affinity::Spread, n),
        )
    }

    fn per_op_ns(model: &CpuModel, placement: &Placement, body: &[CpuOp], reps: u64) -> f64 {
        let r = run(model, placement, body, reps).unwrap();
        r.per_thread_ns.iter().fold(f64::MIN, |a, &b| a.max(b)) / reps as f64
    }

    #[test]
    fn rejects_zero_reps() {
        let (m, p) = setup(2);
        assert!(run(&m, &p, &kernel::omp_barrier().baseline, 0).is_err());
    }

    #[test]
    fn barrier_cost_rises_then_plateaus() {
        let m = CpuModel::baseline();
        let body = kernel::omp_barrier().baseline;
        let mut costs = Vec::new();
        for n in [2u32, 4, 8, 16, 32] {
            let p = Placement::new(&SYSTEM3.cpu, Affinity::Spread, n);
            costs.push(per_op_ns(&m, &p, &body, 50));
        }
        assert!(costs[1] > costs[0], "4 threads costlier than 2");
        assert!(costs[2] > costs[1], "8 threads costlier than 4");
        // Beyond saturation the growth is only the small tax+stagger.
        let growth_late = costs[4] / costs[3];
        let growth_early = costs[1] / costs[0];
        assert!(
            growth_late < growth_early,
            "plateau expected beyond ~8 threads"
        );
        assert!(growth_late < 1.25);
    }

    #[test]
    fn shared_atomic_int_beats_float() {
        let (m, p) = setup(8);
        let int_cost = per_op_ns(
            &m,
            &p,
            &kernel::omp_atomic_update_scalar(DType::I32).baseline,
            10,
        );
        let f64_cost = per_op_ns(
            &m,
            &p,
            &kernel::omp_atomic_update_scalar(DType::F64).baseline,
            10,
        );
        assert!(f64_cost > int_cost, "float atomics must be slower (Fig. 2)");
    }

    #[test]
    fn word_size_irrelevant_for_integer_atomics() {
        let (m, p) = setup(8);
        let i = per_op_ns(
            &m,
            &p,
            &kernel::omp_atomic_update_scalar(DType::I32).baseline,
            10,
        );
        let u = per_op_ns(
            &m,
            &p,
            &kernel::omp_atomic_update_scalar(DType::U64).baseline,
            10,
        );
        assert!(
            (i - u).abs() < 1e-9,
            "int and ull identical on a 64-bit CPU (Fig. 2)"
        );
    }

    #[test]
    fn padded_private_atomics_much_faster_than_shared() {
        let (m, p) = setup(16);
        let shared = per_op_ns(
            &m,
            &p,
            &kernel::omp_atomic_update_scalar(DType::I32).baseline,
            10,
        );
        let padded = per_op_ns(
            &m,
            &p,
            &kernel::omp_atomic_update_array(DType::I32, 16).baseline,
            10,
        );
        assert!(
            shared > 4.0 * padded,
            "contended {shared} vs padded {padded}"
        );
    }

    #[test]
    fn false_sharing_vanishes_at_the_padding_stride() {
        let (m, p) = setup(16);
        // 64-bit types: stride 8 × 8 B = 64 B → conflict-free (Fig. 3c)
        let s4 = per_op_ns(
            &m,
            &p,
            &kernel::omp_atomic_update_array(DType::F64, 4).baseline,
            10,
        );
        let s8 = per_op_ns(
            &m,
            &p,
            &kernel::omp_atomic_update_array(DType::F64, 8).baseline,
            10,
        );
        assert!(
            s4 > 2.0 * s8,
            "stride 8 should be dramatically faster for doubles"
        );
        // 32-bit types need stride 16 (Fig. 3d)
        let i8 = per_op_ns(
            &m,
            &p,
            &kernel::omp_atomic_update_array(DType::I32, 8).baseline,
            10,
        );
        let i16 = per_op_ns(
            &m,
            &p,
            &kernel::omp_atomic_update_array(DType::I32, 16).baseline,
            10,
        );
        assert!(
            i8 > 2.0 * i16,
            "stride 16 should be dramatically faster for ints"
        );
    }

    #[test]
    fn four_byte_types_slightly_worse_at_stride_one() {
        let (m, p) = setup(16);
        let i1 = per_op_ns(
            &m,
            &p,
            &kernel::omp_atomic_update_array(DType::I32, 1).baseline,
            10,
        );
        let u1 = per_op_ns(
            &m,
            &p,
            &kernel::omp_atomic_update_array(DType::U64, 1).baseline,
            10,
        );
        assert!(i1 > u1, "twice the words per line → more sharers (Fig. 3a)");
    }

    #[test]
    fn critical_slower_than_atomic() {
        let (m, p) = setup(8);
        let atomic = per_op_ns(
            &m,
            &p,
            &kernel::omp_atomic_update_scalar(DType::I32).baseline,
            10,
        );
        let critical = per_op_ns(&m, &p, &kernel::omp_critical_add(DType::I32).baseline, 10);
        assert!(
            critical > 1.5 * atomic,
            "critical {critical} vs atomic {atomic} (Fig. 5)"
        );
    }

    #[test]
    fn atomic_read_costs_same_as_plain_read() {
        let (m, p) = setup(8);
        let k = kernel::omp_atomic_read(DType::I32);
        let base = per_op_ns(&m, &p, &k.baseline, 10);
        let test = per_op_ns(&m, &p, &k.test, 10);
        // The test substitutes an atomic read for the plain read; the
        // atomicity overhead is zero (§V-A2).
        assert!(
            (test - base).abs() < 0.05 * base,
            "atomic reads are free (§V-A2)"
        );
    }

    #[test]
    fn flush_cheap_without_false_sharing_expensive_with() {
        let (m, p) = setup(16);
        let k1 = kernel::omp_flush(DType::I32, 1);
        let k16 = kernel::omp_flush(DType::I32, 16);
        let fl1 = per_op_ns(&m, &p, &k1.test, 10) - per_op_ns(&m, &p, &k1.baseline, 10);
        let fl16 = per_op_ns(&m, &p, &k16.test, 10) - per_op_ns(&m, &p, &k16.baseline, 10);
        assert!(
            fl1 > 3.0 * fl16,
            "flush with sharing {fl1} vs padded {fl16} (Fig. 6)"
        );
        assert!(
            fl16 < 2.5 * m.fence_base_ns,
            "padded flush ≈ fence base cost"
        );
    }

    #[test]
    fn atomic_write_dtype_independent() {
        let (m, p) = setup(8);
        let costs: Vec<f64> = DType::ALL
            .iter()
            .map(|&dt| per_op_ns(&m, &p, &kernel::omp_atomic_write(dt).baseline, 10))
            .collect();
        for w in costs.windows(2) {
            assert!(
                (w[0] - w[1]).abs() < 1e-9,
                "atomic write is size/type blind (Fig. 4)"
            );
        }
    }

    #[test]
    fn hyperthreads_mild_slowdown() {
        let m = CpuModel::baseline();
        let body = kernel::omp_atomic_update_array(DType::I32, 16).baseline;
        let at_cores = {
            let p = Placement::new(&SYSTEM3.cpu, Affinity::Close, 16);
            per_op_ns(&m, &p, &body, 10)
        };
        let at_max = {
            let p = Placement::new(&SYSTEM3.cpu, Affinity::Close, 32);
            per_op_ns(&m, &p, &body, 10)
        };
        let ratio = at_max / at_cores;
        assert!(
            ratio > 1.0 && ratio < 1.3,
            "hyperthreading is mild: ratio {ratio}"
        );
    }

    #[test]
    fn barrier_episodes_counted() {
        let (m, p) = setup(4);
        let r = run(&m, &p, &kernel::omp_barrier().test, 10).unwrap();
        assert_eq!(r.barrier_episodes, 20);
    }

    #[test]
    fn deterministic() {
        let (m, p) = setup(8);
        let body = kernel::omp_atomic_update_scalar(DType::F32).test;
        let a = run(&m, &p, &body, 25).unwrap();
        let b = run(&m, &p, &body, 25).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fast_path_matches_full_stepping_bit_exactly() {
        let rec = Recorder::disabled();
        for (name, body) in [
            ("barrier", kernel::omp_barrier().test),
            ("flush", kernel::omp_flush(DType::I32, 1).test),
            ("critical", kernel::omp_critical_add(DType::F64).test),
            (
                "atomic",
                kernel::omp_atomic_update_scalar(DType::F32).baseline,
            ),
        ] {
            let (m, p) = setup(8);
            let fast = run(&m, &p, &body, 500).unwrap();
            let full = run_full_stepping(&m, &p, &body, 500, &rec).unwrap();
            assert_eq!(fast, full, "{name}");
        }
    }

    #[test]
    fn recorder_does_not_change_results() {
        let (m, p) = setup(32); // SMT-loaded: differing per-thread deltas
        let body = kernel::omp_flush(DType::I32, 1).test;
        let quiet = run(&m, &p, &body, 200).unwrap();
        let observed = run_observed(&m, &p, &body, 200, &Recorder::enabled()).unwrap();
        assert_eq!(quiet, observed);
    }

    #[test]
    fn a_row_longer_than_the_budget_is_narrated_whole() {
        let (m, p) = setup(4);
        let op = kernel::omp_atomic_update_scalar(DType::I32).test[0];
        let body = vec![op; OP_EVENT_BUDGET as usize + 4];
        let rec = Recorder::enabled();
        run_observed(&m, &p, &body, 10, &rec).unwrap();
        let ops: Vec<_> = rec
            .drain_events()
            .into_iter()
            .filter(|e| e.cat == "cpu_sim.op")
            .collect();
        assert_eq!(ops.len(), body.len(), "exactly one whole row");
        for (idx, e) in ops.iter().enumerate() {
            let arg = |key| e.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
            assert_eq!(arg("tid"), Some(&ArgValue::from(0usize)));
            assert_eq!(arg("rep"), Some(&ArgValue::from(OBSERVED_REPS - 1)));
            assert_eq!(arg("idx"), Some(&ArgValue::from(idx)));
        }
    }
}
