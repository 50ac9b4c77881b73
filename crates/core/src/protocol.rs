//! The paper's measurement procedure (Section IV).
//!
//! For each parameter combination: perform `runs` runs; each run makes
//! up to `max_attempts` attempts to gather a valid measurement, where an
//! attempt executes the baseline and the test function and records the
//! maximum runtime across threads, reattempting whenever the test
//! runtime comes out below the baseline (a faulty measurement caused by
//! system-performance fluctuation). The per-primitive runtime is
//! `median(test) − median(baseline)` divided by `n_iter × N_UNROLL`
//! (× the kernel's extra-op count).
//!
//! Note: the paper says "nine runs" and later "the median runtime of the
//! seven test runs"; we take the run count as authoritative and treat
//! seven as the per-run attempt budget, both configurable here.

use crate::error::Result;
use crate::kernel::Kernel;
use crate::obs::{ArgValue, Recorder, Snapshot};
use crate::params::ExecParams;
use crate::platform::{Executor, TimeUnit};
use crate::stats;

/// Differences whose magnitude (relative to the baseline) falls below
/// this fraction are considered within timer accuracy, as for the
/// paper's atomic-read experiment.
pub const NEGLIGIBLE_FRACTION: f64 = 0.05;

/// Measurement-procedure configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Protocol {
    /// Outer runs per parameter combination (paper: 9).
    pub runs: u32,
    /// Valid-measurement attempts per run (paper: 7).
    pub max_attempts: u32,
}

impl Default for Protocol {
    fn default() -> Self {
        Protocol::PAPER
    }
}

impl Protocol {
    /// The paper's configuration: 9 runs, 7 attempts.
    pub const PAPER: Protocol = Protocol {
        runs: 9,
        max_attempts: 7,
    };

    /// A lighter configuration for the deterministic simulators, where
    /// "many of the GPU tests yield the exact same runtime for all nine
    /// runs" (Section IV) — three runs suffice to get a median.
    pub const SIM: Protocol = Protocol {
        runs: 3,
        max_attempts: 3,
    };

    /// Measures one kernel on one executor at one parameter point.
    ///
    /// # Errors
    ///
    /// Propagates executor errors (unsupported ops, invalid params).
    pub fn measure<E: Executor>(
        &self,
        executor: &mut E,
        kernel: &Kernel<E::Op>,
        params: &ExecParams,
    ) -> Result<Measurement> {
        self.measure_observed(executor, kernel, params, crate::obs::global())
    }

    /// [`Protocol::measure`] with an explicit [`Recorder`]; with a
    /// disabled recorder the only overhead is one branch per event
    /// site. Emits, under category `protocol`: a `measure` span per
    /// call, an `attempt_rejected` instant for every attempt whose
    /// test time came out below the baseline, a `run_exhausted`
    /// instant when a run burns its whole attempt budget, and a
    /// `negligible_verdict` instant when the final difference is
    /// within timer accuracy — plus the matching `protocol.*`
    /// counters.
    ///
    /// # Errors
    ///
    /// Propagates executor errors (unsupported ops, invalid params).
    pub fn measure_observed<E: Executor>(
        &self,
        executor: &mut E,
        kernel: &Kernel<E::Op>,
        params: &ExecParams,
        rec: &Recorder,
    ) -> Result<Measurement> {
        params.validate()?;
        let mut span = rec.span_with("protocol", || {
            (
                format!("measure {}", kernel.name),
                vec![
                    ("kernel", ArgValue::from(kernel.name.clone())),
                    ("threads", ArgValue::from(params.threads)),
                ],
            )
        });
        let c_attempts = rec.counter("protocol.attempts");
        let c_rejected = rec.counter("protocol.attempts_rejected");

        let mut baseline_runs = Vec::with_capacity(self.runs as usize);
        let mut test_runs = Vec::with_capacity(self.runs as usize);
        let mut retries = 0u32;
        let mut exhausted_runs = 0u32;

        for run in 0..self.runs {
            let mut chosen: Option<(f64, f64)> = None;
            for attempt in 0..self.max_attempts {
                let base = executor.execute(&kernel.baseline, params)?.max();
                let test = executor.execute(&kernel.test, params)?.max();
                c_attempts.inc();
                if test >= base {
                    chosen = Some((base, test));
                    break;
                }
                retries += 1;
                c_rejected.inc();
                rec.instant_args(
                    "protocol",
                    "attempt_rejected",
                    vec![
                        ("run", ArgValue::U64(u64::from(run))),
                        ("attempt", ArgValue::U64(u64::from(attempt))),
                        ("baseline", ArgValue::F64(base)),
                        ("test", ArgValue::F64(test)),
                    ],
                );
                if attempt + 1 == self.max_attempts {
                    // Keep the final attempt rather than dropping the
                    // run; flag it so callers can judge stability.
                    chosen = Some((base, test));
                    exhausted_runs += 1;
                    rec.counter("protocol.runs_exhausted").inc();
                    rec.instant_args(
                        "protocol",
                        "run_exhausted",
                        vec![("run", ArgValue::U64(u64::from(run)))],
                    );
                }
            }
            let (base, test) = chosen.expect("at least one attempt ran");
            baseline_runs.push(base);
            test_runs.push(test);
        }
        rec.counter("protocol.runs").add(u64::from(self.runs));

        let median_baseline = stats::median(&baseline_runs);
        let median_test = stats::median(&test_runs);
        let reps = params.timed_reps() as f64 * f64::from(kernel.extra_ops);
        let per_op = (median_test - median_baseline) / reps;

        let m = Measurement {
            kernel_name: kernel.name.clone(),
            params: *params,
            time_unit: executor.time_unit(),
            baseline_runs,
            test_runs,
            median_baseline,
            median_test,
            per_op,
            retries,
            exhausted_runs,
        };
        if m.is_negligible() {
            rec.counter("protocol.negligible_verdicts").inc();
            rec.instant_args(
                "protocol",
                "negligible_verdict",
                vec![
                    ("kernel", ArgValue::from(kernel.name.clone())),
                    ("per_op", ArgValue::F64(per_op)),
                ],
            );
        }
        span.push_arg("per_op", per_op);
        span.push_arg("retries", u64::from(retries));
        Ok(m)
    }
}

/// Aggregate retry/rejection statistics recovered from a recorder's
/// counter [`Snapshot`] — the protocol-health summary the tracing
/// layer surfaces in `trace_report` and the ASCII summary table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrySummary {
    /// Total baseline+test attempt pairs executed.
    pub attempts: u64,
    /// Attempts rejected because test < baseline.
    pub rejected: u64,
    /// Total protocol runs performed.
    pub runs: u64,
    /// Runs that exhausted their attempt budget.
    pub exhausted_runs: u64,
    /// Measurements judged within timer accuracy.
    pub negligible_verdicts: u64,
}

impl RetrySummary {
    /// Extracts the `protocol.*` counters from a snapshot.
    #[must_use]
    pub fn from_snapshot(snap: &Snapshot) -> Self {
        RetrySummary {
            attempts: snap.counter("protocol.attempts"),
            rejected: snap.counter("protocol.attempts_rejected"),
            runs: snap.counter("protocol.runs"),
            exhausted_runs: snap.counter("protocol.runs_exhausted"),
            negligible_verdicts: snap.counter("protocol.negligible_verdicts"),
        }
    }

    /// Fraction of attempts rejected for test < baseline (0 when no
    /// attempts were recorded).
    #[must_use]
    pub fn rejection_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.rejected as f64 / self.attempts as f64
        }
    }
}

/// The outcome of measuring one primitive at one parameter point.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Name of the measured kernel.
    pub kernel_name: String,
    /// The parameters this point was measured at.
    pub params: ExecParams,
    /// Unit of all stored times.
    pub time_unit: TimeUnit,
    /// Max-across-threads baseline time of each run.
    pub baseline_runs: Vec<f64>,
    /// Max-across-threads test time of each run.
    pub test_runs: Vec<f64>,
    /// Median of `baseline_runs`.
    pub median_baseline: f64,
    /// Median of `test_runs`.
    pub median_test: f64,
    /// Runtime of a single primitive, in `time_unit` units
    /// (may be ≈ 0 or slightly negative for free primitives).
    pub per_op: f64,
    /// Total reattempts caused by test < baseline.
    pub retries: u32,
    /// Runs whose attempt budget was exhausted.
    pub exhausted_runs: u32,
}

impl Measurement {
    /// Runtime of a single primitive in seconds.
    #[must_use]
    pub fn runtime_seconds(&self) -> f64 {
        self.time_unit.to_seconds(self.per_op)
    }

    /// Throughput in operations per second per thread (`1 / runtime`,
    /// Section IV), or `None` when the runtime is negligible — in that
    /// case the primitive is effectively free (e.g. atomic read).
    #[must_use]
    pub fn throughput(&self) -> Option<f64> {
        if self.is_negligible() {
            None
        } else {
            Some(1.0 / self.runtime_seconds())
        }
    }

    /// Throughput, treating a negligible runtime as the timer floor —
    /// convenient for plotting (never returns infinities).
    #[must_use]
    pub fn throughput_clamped(&self, floor_seconds: f64) -> f64 {
        1.0 / self.runtime_seconds().max(floor_seconds)
    }

    /// Whether the measured difference is within measurement accuracy —
    /// the paper's criterion for declaring atomic reads free ("within
    /// the timer's accuracy"). A difference counts as negligible when
    /// it is below [`NEGLIGIBLE_FRACTION`] of the baseline per-op cost
    /// *or* below three run-to-run standard deviations of the
    /// difference itself (the retry rule biases a truly-zero difference
    /// positive by about the noise amplitude, so the noise term is the
    /// honest yardstick).
    #[must_use]
    pub fn is_negligible(&self) -> bool {
        let reps = self.params.timed_reps() as f64;
        let baseline_per_op = self.median_baseline / reps;
        self.per_op <= NEGLIGIBLE_FRACTION * baseline_per_op.abs().max(f64::MIN_POSITIVE)
            || self.per_op <= 3.0 * self.run_stddev()
    }

    /// Standard deviation of the per-primitive runtime across runs, in
    /// `time_unit` units (the paper reports ≈ 7.8 ns on System 3's CPU).
    #[must_use]
    pub fn run_stddev(&self) -> f64 {
        let reps = self.params.timed_reps() as f64;
        let diffs: Vec<f64> = self
            .test_runs
            .iter()
            .zip(&self.baseline_runs)
            .map(|(t, b)| (t - b) / reps)
            .collect();
        stats::stddev(&diffs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Result as SpResult;
    use crate::kernel::CpuOp;
    use crate::platform::ThreadTimes;

    /// A deterministic fake executor: every op costs `op_cost` units and
    /// each execution adds `noise` units that alternate in sign.
    struct FakeExec {
        op_cost: f64,
        noise: f64,
        calls: u32,
    }

    impl Executor for FakeExec {
        type Op = CpuOp;

        fn name(&self) -> &str {
            "fake"
        }

        fn time_unit(&self) -> TimeUnit {
            TimeUnit::Seconds
        }

        fn execute(&mut self, body: &[CpuOp], params: &ExecParams) -> SpResult<ThreadTimes> {
            self.calls += 1;
            let reps = params.timed_reps() as f64;
            let jitter = if self.calls.is_multiple_of(2) {
                self.noise
            } else {
                -self.noise
            };
            let t = body.len() as f64 * self.op_cost * reps + jitter;
            Ok(ThreadTimes::uniform(t, params.threads as usize))
        }
    }

    fn barrier_kernel() -> Kernel<CpuOp> {
        crate::kernel::omp_barrier()
    }

    #[test]
    fn measures_exact_cost_without_noise() {
        let mut exec = FakeExec {
            op_cost: 1e-8,
            noise: 0.0,
            calls: 0,
        };
        let params = ExecParams::new(4).with_loops(10, 10);
        let m = Protocol::SIM
            .measure(&mut exec, &barrier_kernel(), &params)
            .unwrap();
        assert!((m.per_op - 1e-8).abs() < 1e-15);
        let tp = m.throughput().expect("non-negligible");
        assert!((tp - 1e8).abs() / 1e8 < 1e-6);
        assert_eq!(m.retries, 0);
        assert_eq!(m.exhausted_runs, 0);
    }

    #[test]
    fn retries_when_test_below_baseline() {
        // Noise large enough that odd-numbered calls (baseline) can beat
        // even-numbered (test); alternation guarantees eventual success.
        let mut exec = FakeExec {
            op_cost: 1e-8,
            noise: 5e-7,
            calls: 0,
        };
        let params = ExecParams::new(2).with_loops(10, 10);
        let m = Protocol::PAPER
            .measure(&mut exec, &barrier_kernel(), &params)
            .unwrap();
        // The sequence baseline(-), test(+) always succeeds first try
        // here because baseline gets -noise and test gets +noise.
        assert_eq!(m.retries, 0);
        assert!(m.per_op > 0.0);
    }

    #[test]
    fn negligible_difference_reports_none() {
        // Baseline of 2 ops vs test of 3 ops where the extra op is free:
        // emulate with op_cost so small the difference is < 2% of
        // baseline per-op cost. Construct directly.
        let m = Measurement {
            kernel_name: "x".into(),
            params: ExecParams::new(2).with_loops(10, 10),
            time_unit: TimeUnit::Seconds,
            baseline_runs: vec![1.0; 3],
            test_runs: vec![1.000_000_1; 3],
            median_baseline: 1.0,
            median_test: 1.000_000_1,
            per_op: 0.000_000_1 / 100.0,
            retries: 0,
            exhausted_runs: 0,
        };
        assert!(m.is_negligible());
        assert!(m.throughput().is_none());
        assert!(m.throughput_clamped(1e-10) > 0.0);
    }

    #[test]
    fn stddev_zero_for_deterministic_runs() {
        let mut exec = FakeExec {
            op_cost: 2e-9,
            noise: 0.0,
            calls: 0,
        };
        let params = ExecParams::new(2).with_loops(10, 10);
        let m = Protocol::SIM
            .measure(&mut exec, &barrier_kernel(), &params)
            .unwrap();
        assert_eq!(m.run_stddev(), 0.0);
    }

    #[test]
    fn extra_ops_divides_difference() {
        #[derive(Clone)]
        struct TwoExtra;
        let k = Kernel::new(
            "two_extra",
            vec![CpuOp::Barrier],
            vec![CpuOp::Barrier, CpuOp::Barrier, CpuOp::Barrier],
            2,
        );
        let mut exec = FakeExec {
            op_cost: 1e-8,
            noise: 0.0,
            calls: 0,
        };
        let params = ExecParams::new(2).with_loops(10, 10);
        let m = Protocol::SIM.measure(&mut exec, &k, &params).unwrap();
        // two extra ops at 1e-8 each, divided by extra_ops=2 → 1e-8
        assert!((m.per_op - 1e-8).abs() < 1e-15);
        let _ = TwoExtra; // silence unused struct in some configs
    }

    #[test]
    fn rejects_invalid_params() {
        let mut exec = FakeExec {
            op_cost: 1e-8,
            noise: 0.0,
            calls: 0,
        };
        let params = ExecParams::new(0);
        assert!(Protocol::SIM
            .measure(&mut exec, &barrier_kernel(), &params)
            .is_err());
    }

    /// An executor that injects below-baseline test attempts: the first
    /// `bad_per_run` test executions of every run undershoot the
    /// baseline (forcing rejections), after which the test runs at
    /// twice the baseline. Baselines are always exactly `base`.
    struct UndershootExec {
        bad_per_run: u32,
        base: f64,
        rejected_so_far: u32,
        next_is_baseline: bool,
        calls: u32,
    }

    impl UndershootExec {
        fn new(bad_per_run: u32) -> Self {
            UndershootExec {
                bad_per_run,
                base: 1.0,
                rejected_so_far: 0,
                next_is_baseline: true,
                calls: 0,
            }
        }
    }

    impl Executor for UndershootExec {
        type Op = CpuOp;

        fn name(&self) -> &str {
            "undershoot"
        }

        fn time_unit(&self) -> TimeUnit {
            TimeUnit::Seconds
        }

        fn execute(&mut self, _body: &[CpuOp], params: &ExecParams) -> SpResult<ThreadTimes> {
            self.calls += 1;
            // The protocol strictly alternates baseline, test.
            let is_baseline = self.next_is_baseline;
            self.next_is_baseline = !is_baseline;
            let t = if is_baseline {
                self.base
            } else if self.rejected_so_far < self.bad_per_run {
                self.rejected_so_far += 1;
                self.base / 2.0
            } else {
                self.rejected_so_far = 0; // good attempt ends the run
                self.base * 2.0
            };
            Ok(ThreadTimes::uniform(t, params.threads as usize))
        }
    }

    #[test]
    fn injected_rejections_hit_counters_and_keep_median_math_clean() {
        let rec = Recorder::enabled();
        let mut exec = UndershootExec::new(2);
        let params = ExecParams::new(2).with_loops(10, 10);
        let m = Protocol::PAPER
            .measure_observed(&mut exec, &barrier_kernel(), &params, &rec)
            .unwrap();

        // 9 runs × (2 rejected + 1 accepted) attempts.
        assert_eq!(m.retries, 18);
        assert_eq!(m.exhausted_runs, 0);
        let snap = rec.snapshot();
        let s = RetrySummary::from_snapshot(&snap);
        assert_eq!(s.attempts, 27);
        assert_eq!(s.rejected, 18);
        assert_eq!(s.runs, 9);
        assert_eq!(s.exhausted_runs, 0);
        assert!((s.rejection_rate() - 18.0 / 27.0).abs() < 1e-12);
        // Each attempt is one baseline + one test execution.
        assert_eq!(exec.calls, 2 * 27);

        // Median math sees only the accepted attempts: baseline 1.0,
        // test 2.0 for every run, so per_op = 1.0 / (reps × extra_ops).
        assert_eq!(m.median_baseline, 1.0);
        assert_eq!(m.median_test, 2.0);
        let reps = params.timed_reps() as f64 * f64::from(barrier_kernel().extra_ops);
        assert!((m.per_op - 1.0 / reps).abs() < 1e-15);

        // Every rejection produced an instant event with its payload.
        let events = rec.drain_events();
        let rejected: Vec<_> = events
            .iter()
            .filter(|e| e.name == "attempt_rejected")
            .collect();
        assert_eq!(rejected.len(), 18);
        assert!(rejected.iter().all(|e| {
            e.cat == "protocol"
                && e.args
                    .iter()
                    .any(|(k, v)| *k == "baseline" && *v == ArgValue::F64(1.0))
                && e.args
                    .iter()
                    .any(|(k, v)| *k == "test" && *v == ArgValue::F64(0.5))
        }));
    }

    #[test]
    fn attempt_budget_is_honored_when_every_attempt_fails() {
        let rec = Recorder::enabled();
        let mut exec = UndershootExec::new(u32::MAX); // never succeeds
        let params = ExecParams::new(2).with_loops(10, 10);
        let m = Protocol::PAPER
            .measure_observed(&mut exec, &barrier_kernel(), &params, &rec)
            .unwrap();

        // Every run burns exactly max_attempts attempts, then keeps the
        // final (still-faulty) attempt rather than aborting.
        let s = RetrySummary::from_snapshot(&rec.snapshot());
        assert_eq!(s.attempts, 9 * 7);
        assert_eq!(s.rejected, 9 * 7);
        assert_eq!(s.exhausted_runs, 9);
        assert_eq!(exec.calls, 2 * 9 * 7);
        assert_eq!(m.exhausted_runs, 9);
        assert!(m.per_op < 0.0, "kept attempts are below baseline");
        let events = rec.drain_events();
        assert_eq!(
            events.iter().filter(|e| e.name == "run_exhausted").count(),
            9
        );
    }

    #[test]
    fn negligible_verdict_is_counted() {
        let rec = Recorder::enabled();
        let mut exec = FakeExec {
            op_cost: 0.0,
            noise: 0.0,
            calls: 0,
        };
        let params = ExecParams::new(2).with_loops(10, 10);
        let m = Protocol::SIM
            .measure_observed(&mut exec, &barrier_kernel(), &params, &rec)
            .unwrap();
        assert!(m.is_negligible());
        assert_eq!(rec.snapshot().counter("protocol.negligible_verdicts"), 1);
        assert!(rec
            .drain_events()
            .iter()
            .any(|e| e.name == "negligible_verdict"));
    }

    #[test]
    fn disabled_recorder_changes_nothing() {
        let params = ExecParams::new(2).with_loops(10, 10);
        let mut a = UndershootExec::new(2);
        let with = Protocol::PAPER
            .measure_observed(&mut a, &barrier_kernel(), &params, &Recorder::enabled())
            .unwrap();
        let mut b = UndershootExec::new(2);
        let without = Protocol::PAPER
            .measure_observed(&mut b, &barrier_kernel(), &params, &Recorder::disabled())
            .unwrap();
        assert_eq!(with, without);
    }
}
