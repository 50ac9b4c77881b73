//! In-process end-to-end and per-layer benchmark of syncperf.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <regen_nocache|regen_warm|regen_observed|serve_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run is one workload in its own process (the scheduler and
//! obs registries are process-global). It sets up several times and
//! reports the median set-up time, then times ops for `--seconds`,
//! checks every op's output, and prints one JSON object as its last
//! line: the end-to-end metrics with `--trace 0`, the per-layer ledger
//! with `--trace 1`. `--digest <dir>` prints the pin table of a
//! directory of emitted figures instead. See `README.md` beside this
//! package for the metrics, workloads and predictions.

mod affinity;
mod oracle;
mod pins;
mod reference;
mod regen;
mod serve;
mod stats;
mod tracer;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use reference::Reference;
use regen::{Regen, Sweep};
use serve::Serve;
use stats::{median, min_samples_for, normalise, quantile, reportable_tail, TAIL_Q};
use tracer::Tracer;

/// Where runs keep their scratch files, relative to the working
/// directory; each run removes its own subdirectory when it ends.
const WORK_DIR: &str = ".perfbench_work";

/// Where traced runs write their spans.
const TRACE_DIR: &str = ".perfbench_traces";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Reference passes per block. Each op is divided by the median
/// reference pass of its block, so the ratio follows the machine's
/// speed at the time of the op rather than over the whole run.
const BLOCK_REFS: usize = 8;

/// Share of a traced run spent on untraced ops, which give the
/// reference for the tracing overhead.
const UNTRACED_SHARE: f64 = 0.25;

/// A run stops measuring at this point even if the tail percentile
/// still lacks samples (and then fails).
const HARD_STOP: Duration = Duration::from_secs(150);

/// Exact work counts of one op, by metric name.
pub type Counts = BTreeMap<&'static str, u64>;

/// One timed op.
#[derive(Debug, Default)]
pub struct Op {
    /// Host (wall) time of the op in milliseconds.
    pub ms: f64,
    /// Why the op's output was wrong, if it was.
    pub error: Option<String>,
    /// Exact work counts; they must repeat across ops.
    pub counts: Counts,
    /// Per-layer self times in milliseconds (traced ops only).
    pub times: BTreeMap<&'static str, f64>,
    /// Per-layer quantities that may vary between ops, such as the
    /// bytes of a rendered exposition whose counters keep growing.
    pub amounts: BTreeMap<&'static str, f64>,
    /// Layer times in milliseconds that the program measures itself
    /// (untraced ops only).
    pub program_ms: BTreeMap<&'static str, f64>,
}

impl Op {
    fn failed(error: String) -> Op {
        Op {
            error: Some(error),
            ..Op::default()
        }
    }
}

/// A workload the harness sets up and times.
pub trait Workload {
    /// One full set-up, repetition `rep`; the last one's state serves
    /// the timed ops.
    fn setup(&mut self, rep: usize) -> Result<(), String>;
    /// Runs one op; `traced` ops record per-layer spans.
    fn op(&mut self, traced: bool, op_id: u64) -> Op;
    /// The tracer holding the kept spans.
    fn tracer(&self) -> Option<&Tracer>;
    /// Stops what the last set-up started and removes its files;
    /// state shared by every set-up (a filled cache) stays.
    fn teardown(&mut self) -> std::io::Result<()>;
    /// Ops between two reference passes: about 100 ms.
    fn ops_per_reference(&self) -> u64 {
        1
    }
    /// Per-layer metrics measured once per run rather than per op.
    fn run_metrics(&mut self, _traced: bool) -> Result<BTreeMap<&'static str, f64>, String> {
        Ok(BTreeMap::new())
    }
}

/// Removes `dir` and everything under it (a missing `dir` is fine),
/// then settles the disk.
pub fn remove_dir(dir: &Path) -> std::io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    settle_disk()
}

/// Flushes dirty data and commits pending removals (`sync`). On a
/// filesystem that discards freed blocks, file creation right after
/// a large uncommitted removal runs up to ten times slower, so files
/// are removed only outside timed phases and settled at once, and a
/// run settles what earlier runs left before it times anything.
fn settle_disk() -> std::io::Result<()> {
    let status = std::process::Command::new("sync").status()?;
    if status.success() {
        Ok(())
    } else {
        Err(std::io::Error::other(format!("sync exited with {status}")))
    }
}

/// End-to-end metrics, printed with `--trace 0`. Op times are in
/// units of the reference pass timed among them (see `reference`).
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_ref.p50", "ref"),
    ("op_ref.p90", "ref"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics, printed with `--trace 1`. Times are self times
/// in milliseconds per op, averaged over the traced ops, so they add
/// up to `trace.op_ms.mean`; counts are per op and exact.
const PER_LAYER: [(&str, &str); 60] = [
    ("sched.hash.ms", "ms"),
    ("sched.hash.calls", "count"),
    ("sched.scan.ms", "ms"),
    ("sched.scan.entries", "count"),
    ("sched.load.ms", "ms"),
    ("sched.load.calls", "count"),
    ("sched.load.bytes", "bytes"),
    ("sched.store.ms", "ms"),
    ("sched.store.files", "count"),
    ("sched.store.bytes", "bytes"),
    ("fill.op_ms", "ms"),
    ("fill.sched.store.ms", "ms"),
    ("fill.sched.store.files", "count"),
    ("fill.sched.store.bytes", "bytes"),
    ("sched.checkpoint.ms", "ms"),
    ("sched.checkpoint.saves", "count"),
    ("sched.checkpoint.bytes", "bytes"),
    ("sched.jobs", "count"),
    ("sched.executed", "count"),
    ("sched.cache_hits", "count"),
    ("sched.retries", "count"),
    ("plan.batch.ms", "ms"),
    ("plan.prime.ms", "ms"),
    ("plan.batches", "count"),
    ("plan.primed_jobs", "count"),
    ("cpu_sim.exec.ms", "ms"),
    ("cpu_sim.exec.jobs", "count"),
    ("gpu_sim.exec.ms", "ms"),
    ("gpu_sim.exec.jobs", "count"),
    ("sim.us_per_job", "us"),
    ("bench.emit.ms", "ms"),
    ("bench.emit.files", "count"),
    ("bench.emit.bytes", "bytes"),
    ("bench.other.ms", "ms"),
    ("obs.render.ms", "ms"),
    ("obs.render.bytes", "bytes"),
    ("obs.events.recorded", "count"),
    ("obs.events.dropped", "count"),
    ("serve.index.build.ms", "ms"),
    ("serve.index.entries", "count"),
    ("serve.index.get.ms", "ms"),
    ("serve.index.query.ms", "ms"),
    ("serve.index.query_exact_ratio", "ratio"),
    ("serve.parse.ms", "ms"),
    ("serve.resolve.ms", "ms"),
    ("serve.figure.read.ms", "ms"),
    ("serve.encode.ms", "ms"),
    ("serve.encode.bytes", "bytes"),
    ("serve.wire.ms", "ms"),
    ("serve.telemetry.ms", "ms"),
    ("serve.requests", "count"),
    ("serve.errors", "count"),
    ("serve.rejected", "count"),
    ("serve.timeouts", "count"),
    ("trace.ops", "count"),
    ("trace.op_ms.mean", "ms"),
    ("trace.op_ms.p50", "ms"),
    ("trace.untraced_op_ms.p50", "ms"),
    ("trace.overhead_ms", "ms"),
    ("reference_ms", "ms"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkloadName {
    RegenNocache,
    RegenWarm,
    RegenObserved,
    ServeMixed,
}

impl WorkloadName {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "regen_nocache" => WorkloadName::RegenNocache,
            "regen_warm" => WorkloadName::RegenWarm,
            "regen_observed" => WorkloadName::RegenObserved,
            "serve_mixed" => WorkloadName::ServeMixed,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            WorkloadName::RegenNocache => "regen_nocache",
            WorkloadName::RegenWarm => "regen_warm",
            WorkloadName::RegenObserved => "regen_observed",
            WorkloadName::ServeMixed => "serve_mixed",
        }
    }

    fn build(self, base: PathBuf, seed: u64, trace: bool) -> Box<dyn Workload> {
        match self {
            WorkloadName::RegenNocache => {
                Box::new(Regen::new(Sweep::All, false, false, base, trace))
            }
            WorkloadName::RegenWarm => Box::new(Regen::new(Sweep::All, true, false, base, trace)),
            WorkloadName::RegenObserved => {
                Box::new(Regen::new(Sweep::Observed, false, true, base, trace))
            }
            WorkloadName::ServeMixed => Box::new(Serve::new(&base, seed)),
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: WorkloadName,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadName::parse(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the timed phase produced.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    /// (block, ms) of each good untraced op.
    untraced: Vec<(usize, f64)>,
    /// The reference passes timed in each block.
    reference_blocks: Vec<Vec<f64>>,
    traced_ms: Vec<f64>,
    layer_ms: BTreeMap<&'static str, f64>,
    amounts: BTreeMap<&'static str, f64>,
    /// Summed `Op::program_ms` of the good untraced ops.
    program_ms: BTreeMap<&'static str, f64>,
    traced_counts: Option<Counts>,
}

impl Tally {
    /// Adds one reference pass to the current block.
    fn add_reference(&mut self, ms: f64) {
        match self.reference_blocks.last_mut() {
            Some(block) if block.len() < BLOCK_REFS => block.push(ms),
            _ => self.reference_blocks.push(vec![ms]),
        }
    }

    fn reference_ms(&self) -> Vec<f64> {
        self.reference_blocks.iter().flatten().copied().collect()
    }

    fn untraced_ms(&self) -> Vec<f64> {
        self.untraced.iter().map(|u| u.1).collect()
    }

    fn record(&mut self, op: Op, reference: &mut Option<Counts>, traced: bool) {
        self.attempted += 1;
        let mut error = op.error;
        if error.is_none() {
            let reference = reference.get_or_insert_with(|| op.counts.clone());
            if *reference != op.counts {
                error = Some(format!(
                    "work counts changed between ops: {reference:?} then {:?}",
                    op.counts
                ));
            }
        }
        if let Some(e) = error {
            self.failed += 1;
            self.first_error.get_or_insert(e);
            return;
        }
        if traced {
            self.traced_ms.push(op.ms);
            for (k, v) in op.times {
                *self.layer_ms.entry(k).or_insert(0.0) += v;
            }
            for (k, v) in op.amounts {
                *self.amounts.entry(k).or_insert(0.0) += v;
            }
            self.traced_counts.get_or_insert(op.counts);
        } else {
            let block = self.reference_blocks.len() - 1;
            self.untraced.push((block, op.ms));
            for (k, v) in op.program_ms {
                *self.program_ms.entry(k).or_insert(0.0) += v;
            }
        }
    }
}

fn run(args: &Args, process_start: Instant) -> Result<String, String> {
    let cpu = affinity::pin_to_one_cpu().map_err(|e| format!("pinning to one CPU: {e}"))?;
    eprintln!("perfbench: pinned to CPU {cpu}");
    let base = Path::new(WORK_DIR).join(format!("{}-{}", args.workload.name(), std::process::id()));
    settle_disk().map_err(|e| format!("settling the disk: {e}"))?;
    let mut w = args.workload.build(base.clone(), args.seed, args.trace);
    let result = measure(args, process_start, &base, w.as_mut());
    let cleaned = w.teardown().and_then(|()| remove_dir(&base));
    let json = result?;
    cleaned.map_err(|e| format!("cleaning up: {e}"))?;
    Ok(json)
}

fn measure(
    args: &Args,
    process_start: Instant,
    base: &Path,
    w: &mut dyn Workload,
) -> Result<String, String> {
    let mut setup_s = Vec::new();
    for rep in 0..SETUP_REPS {
        if rep > 0 {
            w.teardown()
                .map_err(|e| format!("tearing down set-up: {e}"))?;
        }
        let start = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        w.setup(rep)?;
        setup_s.push(start.elapsed().as_secs_f64());
    }

    let reference = Reference::new(&base.join("reference"))
        .map_err(|e| format!("writing the reference files: {e}"))?;
    settle_disk().map_err(|e| format!("settling the disk: {e}"))?;
    let begin = Instant::now();
    let run_for = Duration::from_secs(args.seconds);
    let untraced_until = if args.trace {
        run_for.mul_f64(UNTRACED_SHARE)
    } else {
        run_for
    };
    let need = if args.trace {
        1
    } else {
        min_samples_for(TAIL_Q)
    };
    let mut tally = Tally::default();
    let (mut untraced_ref, mut traced_ref) = (None, None);
    let mut op_id = 0u64;
    let mut ops = 0u64;
    loop {
        // A fixed op cadence, so that the same share of ops follows a
        // reference pass (which leaves the caches cold) in every run.
        if ops.is_multiple_of(w.ops_per_reference()) {
            let ms = reference
                .time_ms()
                .map_err(|e| format!("reading the reference files: {e}"))?;
            tally.add_reference(ms);
        }
        ops += 1;
        let elapsed = begin.elapsed();
        let traced = args.trace && elapsed >= untraced_until;
        let have = if args.trace {
            tally.traced_ms.len()
        } else {
            tally.untraced.len()
        };
        // Past `--seconds`, keep going only while the tail lacks samples
        // and every op so far was good.
        let enough = have >= need || tally.failed > 0;
        if (elapsed >= run_for && enough) || process_start.elapsed() >= HARD_STOP {
            break;
        }
        let op = w.op(traced, op_id);
        if traced {
            tally.record(op, &mut traced_ref, true);
            op_id += 1;
        } else {
            tally.record(op, &mut untraced_ref, false);
        }
    }
    let run_metrics = w.run_metrics(args.trace)?;
    if let (Some(tracer), true) = (w.tracer(), args.trace) {
        let path =
            Path::new(TRACE_DIR).join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    if let Some(e) = &tally.first_error {
        eprintln!(
            "perfbench: {} of {} ops failed; first: {e}",
            tally.failed, tally.attempted
        );
    }

    let metrics = if args.trace {
        per_layer(&tally, &run_metrics)?
    } else {
        end_to_end(&tally, &setup_s)?
    };
    Ok(result_json(&tally, &metrics))
}

fn end_to_end(
    tally: &Tally,
    setup_s: &[f64],
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let mut ms = tally.untraced_ms();
    if reportable_tail(ms.len(), &[0.5, TAIL_Q]) != Some(TAIL_Q) {
        return Err(format!(
            "only {} good ops; p90 needs {}",
            ms.len(),
            min_samples_for(TAIL_Q)
        ));
    }
    ms.sort_by(f64::total_cmp);
    let mut n = normalise(&tally.untraced, &tally.reference_blocks);
    n.ratios.sort_by(f64::total_cmp);
    eprintln!(
        "perfbench: {} good ops in {} blocks, op_ms p50 {:.4} p90 {:.4}, {:.2} ops/s, reference {:.4} ms",
        ms.len(),
        n.block_medians.len(),
        quantile(&ms, 0.5),
        quantile(&ms, TAIL_Q),
        ms.len() as f64 * 1e3 / ms.iter().sum::<f64>(),
        median(&tally.reference_ms()),
    );
    let values = BTreeMap::from([
        ("setup_s", median(setup_s)),
        ("op_ref.p50", median(&n.block_medians)),
        ("op_ref.p90", quantile(&n.ratios, TAIL_Q)),
        ("peak_rss_mb", peak_rss_mb()),
        (
            "success_rate",
            (tally.attempted - tally.failed) as f64 / tally.attempted as f64,
        ),
    ]);
    Ok(END_TO_END.iter().map(|&(n, u)| (n, u, values[n])).collect())
}

fn per_layer(
    tally: &Tally,
    run_metrics: &BTreeMap<&'static str, f64>,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    if tally.traced_ms.is_empty() || tally.untraced.is_empty() {
        return Err("a traced run needs both untraced and traced ops".into());
    }
    let n = tally.traced_ms.len() as f64;
    let mut values: BTreeMap<String, f64> = tally
        .layer_ms
        .iter()
        .map(|(k, v)| (format!("{k}.ms"), v / n))
        .collect();
    for (k, v) in &tally.amounts {
        values.insert((*k).to_string(), v / n);
    }
    for (k, v) in &tally.program_ms {
        values.insert(format!("{k}.ms"), v / tally.untraced.len() as f64);
    }
    for (k, v) in tally.traced_counts.iter().flatten() {
        values.insert((*k).to_string(), *v as f64);
    }
    for (k, v) in run_metrics {
        values.insert((*k).to_string(), *v);
    }
    let sim_ms = values.get("cpu_sim.exec.ms").unwrap_or(&0.0)
        + values.get("gpu_sim.exec.ms").unwrap_or(&0.0);
    let sim_jobs = values.get("cpu_sim.exec.jobs").unwrap_or(&0.0)
        + values.get("gpu_sim.exec.jobs").unwrap_or(&0.0);
    values.insert(
        "sim.us_per_job".into(),
        if sim_jobs > 0.0 {
            sim_ms * 1e3 / sim_jobs
        } else {
            0.0
        },
    );
    let traced_p50 = median(&tally.traced_ms);
    let untraced_p50 = median(&tally.untraced_ms());
    values.insert("trace.ops".into(), n);
    values.insert(
        "trace.op_ms.mean".into(),
        tally.traced_ms.iter().sum::<f64>() / n,
    );
    values.insert("trace.op_ms.p50".into(), traced_p50);
    values.insert("trace.untraced_op_ms.p50".into(), untraced_p50);
    values.insert("trace.overhead_ms".into(), traced_p50 - untraced_p50);
    values.insert("reference_ms".into(), median(&tally.reference_ms()));
    let known: Vec<&str> = PER_LAYER.iter().map(|p| p.0).collect();
    if let Some(extra) = values.keys().find(|k| !known.contains(&k.as_str())) {
        return Err(format!(
            "the ledger measured {extra}, which is not a listed metric"
        ));
    }
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, values.get(name).copied().unwrap_or(0.0)))
        .collect())
}

fn result_json(tally: &Tally, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, dir] = args.as_slice() {
        if flag == "--digest" {
            match oracle::read_outputs(Path::new(dir)) {
                Ok(files) => {
                    print!("{}", oracle::render_pins(&files));
                    return;
                }
                Err(e) => {
                    eprintln!("perfbench: {dir}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    let outcome = parse_args(&args).and_then(|a| run(&a, process_start));
    match outcome {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let v = syncperf_core::obs::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(String, String)> = v
                .get(key)
                .and_then(|a| a.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|x| x.as_str()).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect();
            assert_eq!(declared, ours, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(
            &[
                "--workload",
                "serve_mixed",
                "--seed",
                "3",
                "--seconds",
                "5",
                "--trace",
                "1",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(a.workload, WorkloadName::ServeMixed);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 5, true));
        assert!(parse_args(&["--workload".to_string()]).is_err());
        assert!(parse_args(&["--workload", "nope"].map(String::from)).is_err());
        assert!(
            parse_args(&["--seed", "x", "--workload", "regen_nocache"].map(String::from)).is_err()
        );
    }

    #[test]
    fn a_count_change_fails_the_op() {
        let mut tally = Tally::default();
        tally.add_reference(8.0);
        let mut reference = None;
        let op = |jobs| Op {
            ms: 1.0,
            counts: Counts::from([("sched.jobs", jobs)]),
            ..Op::default()
        };
        tally.record(op(3204), &mut reference, false);
        tally.record(op(3204), &mut reference, false);
        tally.record(op(3203), &mut reference, false);
        assert_eq!((tally.attempted, tally.failed), (3, 1));
    }
}
