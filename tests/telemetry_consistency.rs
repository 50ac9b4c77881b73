//! Telemetry-plane consistency: the exposition format is golden-pinned
//! (it is a wire format — `syncperf-top`, the CI smoke test, and any
//! external Prometheus scraper parse it), histogram quantiles track a
//! sorted-vector oracle within log-bucket resolution, merge is exact,
//! and the flight recorder / gauge modes behave as documented in
//! `docs/OBSERVABILITY.md`.

use proptest::prelude::*;
use syncperf_bench::{figures_cpu, figures_gpu};
use syncperf_core::obs::{self, metrics, ArgValue, FlightRecorder, GaugeMode, Histogram, Recorder};
use syncperf_sched::{SchedConfig, Scheduler};

/// The exposition text for a known snapshot, byte for byte. If this
/// test fails because the format deliberately changed, update
/// `docs/OBSERVABILITY.md` and `syncperf-top` in the same change.
#[test]
fn exposition_format_is_golden() {
    let rec = Recorder::enabled();
    rec.counter("serve.requests").add(3);
    rec.gauge("peak").record(9);
    rec.gauge_set("depth").set(2);
    let h = rec.histogram("lat.us");
    for v in [0u64, 1, 3, 100] {
        h.observe(v);
    }
    let text = metrics::render(&rec.snapshot());
    let golden = "\
# TYPE serve_requests counter
serve_requests 3
# TYPE depth gauge
depth{mode=\"set\"} 2
# TYPE peak gauge
peak{mode=\"max\"} 9
# TYPE lat_us histogram
lat_us_bucket{le=\"0\"} 1
lat_us_bucket{le=\"1\"} 2
lat_us_bucket{le=\"3\"} 3
lat_us_bucket{le=\"127\"} 4
lat_us_bucket{le=\"+Inf\"} 4
lat_us_sum 104
lat_us_count 4
# TYPE lat_us_min gauge
lat_us_min 0
# TYPE lat_us_max gauge
lat_us_max 100
# TYPE events_dropped_total counter
events_dropped_total 0
";
    assert_eq!(text, golden);
}

/// log2 bucket index of a value — the resolution unit the histogram
/// promises (bucket 0 holds exactly the value 0).
fn bucket_of(v: u64) -> u32 {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros()
    }
}

/// The oracle the histogram quantile approximates: the rank-`ceil(qn)`
/// order statistic of the exact observation list.
fn oracle_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let target = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(target - 1) as usize]
}

fn observations() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..2_000_000, 1..200)
}

proptest! {
    #[test]
    fn quantiles_track_the_sorted_oracle_within_one_bucket(mut v in observations()) {
        let h = Histogram::standalone();
        for &x in &v {
            h.observe(x);
        }
        v.sort_unstable();
        let snap = h.snapshot();
        for q in [0.50, 0.90, 0.99] {
            let est = snap.quantile(q);
            let exact = oracle_quantile(&v, q);
            let db = (i64::from(bucket_of(est)) - i64::from(bucket_of(exact))).abs();
            prop_assert!(
                db <= 1,
                "q={q}: estimate {est} (bucket {}) vs oracle {exact} (bucket {})",
                bucket_of(est),
                bucket_of(exact)
            );
        }
        prop_assert_eq!(snap.min(), v[0], "min is exact");
        prop_assert_eq!(snap.max(), *v.last().unwrap(), "max is exact");
        prop_assert_eq!(snap.count(), v.len() as u64);
        prop_assert_eq!(snap.sum, v.iter().sum::<u64>());
    }

    #[test]
    fn merge_equals_recording_into_one_histogram(a in observations(), b in observations()) {
        let (ha, hb, hall) = (Histogram::standalone(), Histogram::standalone(), Histogram::standalone());
        for &x in &a {
            ha.observe(x);
            hall.observe(x);
        }
        for &x in &b {
            hb.observe(x);
            hall.observe(x);
        }
        let mut merged = ha.snapshot();
        merged.merge(&hb.snapshot());
        let direct = hall.snapshot();
        prop_assert_eq!(&merged.counts, &direct.counts, "bucket-exact merge");
        prop_assert_eq!(merged.sum, direct.sum);
        prop_assert_eq!(merged.min(), direct.min());
        prop_assert_eq!(merged.max(), direct.max());
        for q in [0.5, 0.9, 0.99] {
            prop_assert_eq!(merged.quantile(q), direct.quantile(q));
        }
    }

    #[test]
    fn exposition_round_trip_is_lossless_at_bucket_resolution(v in observations()) {
        let rec = Recorder::enabled();
        let h = rec.histogram("rt.us");
        for &x in &v {
            h.observe(x);
        }
        let snap = rec.snapshot();
        let parsed = metrics::parse(&metrics::render(&snap));
        let orig = snap.histogram("rt.us");
        // Parsed snapshots live in the exposition namespace, where the
        // dot was sanitized to an underscore.
        let back = parsed.histogram("rt_us");
        prop_assert_eq!(&back.counts, &orig.counts);
        prop_assert_eq!(back.sum, orig.sum);
        prop_assert_eq!(back.min(), orig.min());
        prop_assert_eq!(back.max(), orig.max());
        for q in [0.5, 0.9, 0.99] {
            prop_assert_eq!(back.quantile(q), orig.quantile(q));
        }
    }
}

#[test]
fn gauge_modes_expose_high_water_vs_last_value() {
    let rec = Recorder::enabled();
    let peak = rec.gauge("q.peak");
    let now = rec.gauge_set("q.now");
    for depth in [3u64, 7, 2] {
        peak.record(depth);
        now.set(depth);
    }
    let snap = rec.snapshot();
    assert_eq!(
        snap.gauge("q.peak"),
        7,
        "max mode keeps the high-water mark"
    );
    assert_eq!(snap.gauge("q.now"), 2, "set mode keeps the last value");
    assert_eq!(snap.gauge_modes["q.peak"], GaugeMode::Max);
    assert_eq!(snap.gauge_modes["q.now"], GaugeMode::Set);
}

#[test]
fn snapshot_merge_combines_planes() {
    let (a, b) = (Recorder::enabled(), Recorder::enabled());
    a.counter("jobs").add(2);
    b.counter("jobs").add(3);
    a.gauge("peak").record(5);
    b.gauge("peak").record(9);
    a.gauge_set("depth").set(1);
    b.gauge_set("depth").set(2);
    a.histogram("w.us").observe(10);
    b.histogram("w.us").observe(1000);
    let mut merged = a.snapshot();
    merged.merge(&b.snapshot());
    assert_eq!(merged.counter("jobs"), 5);
    assert_eq!(merged.gauge("peak"), 9, "max gauges take the max");
    assert_eq!(merged.gauge("depth"), 3, "set gauges sum across sources");
    let h = merged.histogram("w.us");
    assert_eq!((h.count(), h.min(), h.max()), (2, 10, 1000));
}

#[test]
fn flight_recorder_ring_keeps_the_newest_entries() {
    let fr = FlightRecorder::with_capacity(4);
    for i in 0..10 {
        fr.record("test", format!("event {i}"));
    }
    let tail = fr.tail(100);
    assert_eq!(tail.len(), 4, "ring is bounded");
    assert_eq!(fr.recorded(), 10, "total recorded is not");
    let msgs: Vec<&str> = tail.iter().map(|e| e.msg.as_str()).collect();
    assert_eq!(msgs, ["event 6", "event 7", "event 8", "event 9"]);
    assert!(
        tail.windows(2).all(|w| w[0].seq < w[1].seq),
        "oldest-first by sequence"
    );
    // JSONL dump: one parseable object per line.
    for line in fr.to_jsonl().lines() {
        obs::json::parse(line).expect("flight entries serialize to valid JSON");
    }
}

#[test]
fn disabled_recorder_histograms_are_free_and_inert() {
    let rec = Recorder::disabled();
    let h = rec.histogram("never.us");
    assert!(!h.is_enabled());
    h.observe(123);
    assert_eq!(h.snapshot().count(), 0);
    assert!(rec.snapshot().histograms.is_empty());
}

/// One `--no-cache --jobs 1` sweep over a few figures that exercise
/// both engines and every per-op event kind (per-op instants, store
/// buffer drains, atomic conflicts); returns the figures as CSV text.
fn sweep(cache_dir: &std::path::Path) -> Vec<String> {
    let sched = Scheduler::new(
        SchedConfig::new(1)
            .without_cache()
            .with_cache_dir(cache_dir)
            .with_label("telemetry"),
    );
    syncperf_sched::install(sched);
    let mut figs = Vec::new();
    for fig in [
        figures_cpu::fig01_barrier,
        figures_cpu::fig02_atomic_update_scalar,
        figures_cpu::fig06_flush,
        figures_gpu::fig09_atomicadd_scalar,
        figures_gpu::fig14_threadfence,
    ] {
        figs.extend(fig().expect("figure regenerates"));
    }
    syncperf_sched::uninstall();
    figs.iter().map(|f| f.to_csv()).collect()
}

/// Observation must not change what is observed, and must describe the
/// work alone: two identical observed sweeps record the same events and
/// counters, drop none, and produce the bytes of an unobserved sweep.
/// This is the only test in this binary that installs the global
/// recorder, and it runs its unobserved sweep first.
#[test]
fn observed_sweeps_repeat_their_events_drop_none_and_match_unobserved_bytes() {
    let dir = std::env::temp_dir().join(format!("syncperf-telemetry-it-{}", std::process::id()));
    assert!(!obs::global().is_enabled());
    let unobserved = sweep(&dir);

    assert!(obs::install(Recorder::enabled()));
    let rec = obs::global();
    let mut passes = Vec::new();
    for _ in 0..2 {
        let before = rec.snapshot();
        let bytes = sweep(&dir);
        let after = rec.snapshot();
        let events = rec.drain_events();
        let runs = |snap: &obs::Snapshot| {
            (
                snap.counter("cpu_sim.engine_runs"),
                snap.counter("gpu_sim.launches"),
                snap.counter("protocol.attempts"),
            )
        };
        let (b, a) = (runs(&before), runs(&after));
        let kinds: std::collections::BTreeSet<&str> = events
            .iter()
            .map(|e| {
                if e.cat == "cpu_sim.op" {
                    e.cat
                } else {
                    &*e.name
                }
            })
            .filter(|k| ["cpu_sim.op", "store_buffer_drain", "atomic_conflict"].contains(k))
            .collect();
        passes.push((
            bytes,
            events.len(),
            (a.0 - b.0, a.1 - b.1, a.2 - b.2),
            after.dropped_events,
            kinds.len(),
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);

    let (first, second) = (&passes[0], &passes[1]);
    assert_eq!(first.4, 3, "every per-op event kind was recorded");
    assert!(first.2 .0 > 0 && first.2 .1 > 0, "both engines ran");
    assert_eq!(
        first.1, second.1,
        "identical sweeps record equal event counts"
    );
    assert_eq!(
        first.2, second.2,
        "identical sweeps count equal engine work"
    );
    assert_eq!(second.3, 0, "a default observed sweep drops no events");
    assert_eq!(first.0, unobserved, "observing changed the figures");
    assert_eq!(second.0, unobserved, "observing changed the figures");
}

/// An event that would not fit is never built: a full ring skips the
/// building closure of instants and spans alike, and still counts each
/// drop in the snapshot and the exposition.
#[test]
fn full_ring_never_builds_events_but_counts_the_drops() {
    let rec = Recorder::with_capacity(3);
    let mut built = 0u32;
    for i in 0..10u64 {
        rec.instant_with("t", || {
            built += 1;
            (format!("event {i}"), vec![("i", ArgValue::U64(i))])
        });
    }
    assert_eq!(built, 3, "only the events that fit were built");
    for _ in 0..2 {
        let mut span = rec.span_with("t", || -> (String, Vec<(&'static str, ArgValue)>) {
            unreachable!("a span opened on a full ring is never built")
        });
        span.push_arg("ignored", 1u64);
    }
    let snap = rec.snapshot();
    assert_eq!(snap.dropped_events, 9);
    assert!(metrics::render(&snap).contains("events_dropped_total 9\n"));
    let events = rec.drain_events();
    assert_eq!(events.len(), 3);
    assert_eq!(events[2].name, "event 2");
}
