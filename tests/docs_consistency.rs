//! Documentation-code consistency: the promises in DESIGN.md,
//! EXPERIMENTS.md, and README.md must match what the workspace actually
//! contains.

use std::collections::BTreeSet;
use std::path::Path;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(repo_root().join(rel)).unwrap_or_else(|e| panic!("missing {rel}: {e}"))
}

fn bench_binaries() -> BTreeSet<String> {
    std::fs::read_dir(repo_root().join("crates/bench/src/bin"))
        .expect("bench bins")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.strip_suffix(".rs").map(str::to_string)
        })
        .collect()
}

#[test]
fn every_figure_binary_mentioned_in_design_exists() {
    let design = read("DESIGN.md");
    let bins = bench_binaries();
    // Binaries referenced by name in DESIGN.md's experiment index.
    for needle in [
        "table1_systems",
        "listing1_reductions",
        "fig01_omp_barrier",
        "fig02_omp_atomic_update_scalar",
        "fig03_omp_atomic_update_array",
        "fig04_omp_atomic_write",
        "fig05_omp_critical",
        "fig06_omp_flush",
        "exp_omp_atomic_read_capture",
        "fig07_cuda_syncthreads",
        "fig08_cuda_syncwarp",
        "fig09_cuda_atomicadd_scalar",
        "fig10_cuda_atomicadd_array",
        "fig11_cuda_atomiccas_scalar",
        "fig12_cuda_atomiccas_array",
        "fig13_cuda_atomicexch",
        "fig14_cuda_threadfence",
        "fig15_cuda_shfl",
        "exp_cuda_fence_scopes",
        "exp_cuda_vote",
        "exp_omp_affinity",
        "exp_cuda_atomic_ops",
        "exp_cuda_divergence",
        "exp_cpu_reduction_strategies",
        "exp_gpu_histogram",
    ] {
        assert!(
            design.contains(needle),
            "DESIGN.md does not mention {needle}"
        );
        assert!(
            bins.contains(needle),
            "DESIGN.md promises binary {needle} but it does not exist"
        );
    }
}

#[test]
fn every_paper_figure_covered_in_experiments_md() {
    let experiments = read("EXPERIMENTS.md");
    for fig in 1..=15 {
        assert!(
            experiments.contains(&format!("Fig. {fig}")),
            "EXPERIMENTS.md is missing Fig. {fig}"
        );
    }
    assert!(experiments.contains("Table I"));
    assert!(experiments.contains("Listing 1"));
}

#[test]
fn readme_examples_exist() {
    let readme = read("README.md");
    for example in [
        "quickstart",
        "false_sharing_explorer",
        "reduction_strategies",
        "primitive_advisor",
        "privatization_casebook",
        "model_your_machine",
    ] {
        assert!(
            readme.contains(example),
            "README does not list example {example}"
        );
        assert!(
            repo_root().join(format!("examples/{example}.rs")).exists(),
            "README lists example {example} but examples/{example}.rs is missing"
        );
    }
}

#[test]
fn readme_binaries_exist() {
    let readme = read("README.md");
    let bins = bench_binaries();
    for line in readme.lines().filter(|l| l.contains("--bin ")) {
        let after = line.split("--bin ").nth(1).expect("bin name after flag");
        let name: String = after
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        assert!(
            bins.contains(&name),
            "README references missing binary `{name}`"
        );
    }
}

#[test]
fn design_md_lists_all_workspace_crates() {
    let design = read("DESIGN.md");
    for krate in [
        "syncperf-core",
        "syncperf-omp",
        "syncperf-cpu-sim",
        "syncperf-gpu-sim",
        "syncperf-analyze",
        "syncperf-sched",
        "syncperf-serve",
        "syncperf-dist",
        "syncperf-load",
        "syncperf-bench",
    ] {
        assert!(design.contains(krate), "DESIGN.md missing crate {krate}");
    }
}

#[test]
fn distributed_docs_match_the_wire_and_code() {
    // docs/DISTRIBUTED.md, DESIGN.md §12, the README subsection, and
    // the observability docs document the same coordinator/worker
    // surface the dist crate implements.
    let dist_doc = read("docs/DISTRIBUTED.md");
    let sched_doc = read("docs/SCHEDULER.md");
    let obs_doc = read("docs/OBSERVABILITY.md");
    let design = read("DESIGN.md");
    let readme = read("README.md");
    let runner = read("crates/bench/src/runner.rs");
    let coordinator = read("crates/dist/src/coordinator.rs");
    let frame = read("crates/dist/src/frame.rs");

    // CLI flags: documented where the scheduler flags are, parsed by
    // the shared runner.
    for flag in [
        "--workers",
        "--connect",
        "--chaos-kill-one",
        "--metrics-addr",
    ] {
        for (doc, name) in [
            (&dist_doc, "docs/DISTRIBUTED.md"),
            (&sched_doc, "docs/SCHEDULER.md"),
            (&runner, "runner.rs"),
        ] {
            assert!(doc.contains(flag), "{name} missing flag {flag}");
        }
    }

    // Every wire frame kind is named in the protocol table.
    for frame_kind in [
        "Hello",
        "HelloAck",
        "Batch",
        "Result",
        "JobError",
        "ShardDone",
        "Revoke",
        "Revoked",
        "Heartbeat",
        "Shutdown",
    ] {
        assert!(
            dist_doc.contains(frame_kind),
            "docs/DISTRIBUTED.md missing frame {frame_kind}"
        );
        assert!(frame.contains(frame_kind), "frame.rs missing {frame_kind}");
    }

    // The documented dist.* metric names are the ones the coordinator
    // registers/exports, and the metric-name table knows them too.
    for metric in [
        "dist.workers",
        "dist.workers_live",
        "dist.batches_streamed",
        "dist.batches_inflight",
        "dist.jobs_sent",
        "dist.results_received",
        "dist.local_jobs",
        "dist.coordinator_jobs",
        "dist.shard_reissues",
        "dist.migrations",
        "dist.worker_deaths",
        "dist.corrupt_entries",
        "dist.duplicate_results",
        "dist.worker_errors",
        "dist.retries",
        "dist.bytes_sent",
        "dist.bytes_received",
        "dist.wait_us",
        "dist.service_us",
    ] {
        for (doc, name) in [
            (&dist_doc, "docs/DISTRIBUTED.md"),
            (&obs_doc, "docs/OBSERVABILITY.md"),
            (&coordinator, "coordinator.rs"),
        ] {
            assert!(doc.contains(metric), "{name} missing metric {metric}");
        }
    }

    // Flat-field schema sync: every key `--cache-stats` actually
    // writes (base and dist) is listed verbatim in docs/SCHEDULER.md.
    let json = syncperf_bench::runner::cache_stats_json(
        &syncperf_sched::SchedStats::default(),
        Some(&syncperf_dist::DistStats::default()),
    );
    for piece in json.split('"').skip(1).step_by(2) {
        assert!(
            sched_doc.contains(&format!("`{piece}`")),
            "docs/SCHEDULER.md missing --cache-stats field `{piece}`"
        );
    }

    // Cross-references, the front-end binary, and the tracked bench.
    assert!(readme.contains("docs/DISTRIBUTED.md"));
    assert!(design.contains("docs/DISTRIBUTED.md"));
    assert!(bench_binaries().contains("syncperf_dist"));
    for (doc, name) in [
        (&dist_doc, "docs/DISTRIBUTED.md"),
        (&design, "DESIGN.md"),
        (&readme, "README.md"),
    ] {
        assert!(
            doc.contains("BENCH_dist.json"),
            "{name} missing the tracked benchmark"
        );
    }
    assert!(
        repo_root()
            .join("crates/dist/tests/dist_consistency.rs")
            .exists(),
        "the merge edge-case suite the docs promise is missing"
    );
}

#[test]
fn scheduler_docs_match_the_cli_and_code() {
    // docs/SCHEDULER.md, DESIGN.md §8, and the README subsection
    // document the same scheduler surface the runner implements.
    let sched_doc = read("docs/SCHEDULER.md");
    let design = read("DESIGN.md");
    let readme = read("README.md");
    let runner = read("crates/bench/src/runner.rs");

    for flag in ["--jobs", "--no-cache", "--resume", "--cache-stats"] {
        for (doc, name) in [
            (&sched_doc, "docs/SCHEDULER.md"),
            (&design, "DESIGN.md"),
            (&runner, "runner.rs"),
        ] {
            assert!(doc.contains(flag), "{name} missing flag {flag}");
        }
    }
    for (doc, name) in [
        (&sched_doc, "docs/SCHEDULER.md"),
        (&design, "DESIGN.md"),
        (&readme, "README.md"),
    ] {
        assert!(doc.contains("SYNCPERF_JOBS"), "{name} missing env fallback");
    }

    assert!(design.contains("docs/SCHEDULER.md"));
    assert!(readme.contains("docs/SCHEDULER.md"));
    assert!(readme.contains("Parallel & incremental runs"));

    // The documented salt and counter names are the code's.
    assert!(sched_doc.contains(syncperf_sched::SCHED_SALT));
    for counter in ["sched.jobs", "sched.cache_hits", "sched.steals"] {
        assert!(
            sched_doc.contains(counter),
            "docs/SCHEDULER.md missing counter {counter}"
        );
    }
}

#[test]
fn serving_docs_match_the_endpoints_and_code() {
    // docs/SERVING.md, DESIGN.md §9, and the README subsection
    // document the same service surface the serve crate implements.
    let serving_doc = read("docs/SERVING.md");
    let design = read("DESIGN.md");
    let readme = read("README.md");
    let server_src = read("crates/serve/src/server.rs");

    for endpoint in [
        "/job/",
        "/query",
        "/figure/",
        "/manifest/",
        "/compute",
        "/metrics",
        "/events",
        "/stats",
        "/shutdown",
    ] {
        for (doc, name) in [
            (&serving_doc, "docs/SERVING.md"),
            (&server_src, "server.rs"),
        ] {
            assert!(doc.contains(endpoint), "{name} missing endpoint {endpoint}");
        }
        if endpoint != "/manifest/" {
            assert!(design.contains(endpoint), "DESIGN.md missing {endpoint}");
        }
    }
    for flag in [
        "--addr",
        "--workers",
        "--cache-bytes",
        "--timeout-secs",
        "--max-conns",
        "--replicas",
    ] {
        assert!(
            serving_doc.contains(flag),
            "docs/SERVING.md missing flag {flag}"
        );
    }
    for (doc, name) in [
        (&serving_doc, "docs/SERVING.md"),
        (&design, "DESIGN.md"),
        (&readme, "README.md"),
    ] {
        assert!(
            doc.contains("SYNCPERF_CACHE_BYTES"),
            "{name} missing cache-budget env var"
        );
    }
    assert!(readme.contains("docs/SERVING.md"));
    assert!(design.contains("docs/SERVING.md"));

    // The documented metric names are the code's (the per-endpoint
    // families are format!-built in server.rs, so match on their
    // shared prefix).
    for counter in [
        "serve.requests",
        "serve.cache_hits",
        "serve.cache_misses",
        "serve.computes",
        "serve.dedup_waits",
        "serve.evictions",
        "serve.errors",
        "serve.rejected",
        "serve.timeouts",
        "serve.connections",
        "serve.latency_us",
        "serve.endpoint.",
    ] {
        assert!(
            serving_doc.contains(counter),
            "docs/SERVING.md missing counter {counter}"
        );
        assert!(
            server_src.contains(counter),
            "server.rs missing counter {counter}"
        );
    }

    // The serve binary and client example the docs promise exist.
    assert!(bench_binaries().contains("serve"));
    assert!(repo_root().join("examples/syncperf_client.rs").exists());
    assert!(repo_root().join("tests/serve_consistency.rs").exists());
}

#[test]
fn serving_event_loop_and_load_docs_match_the_code() {
    // docs/SERVING.md's event-loop/backpressure/replica/load-harness
    // sections describe real, tested behaviour: the reactor exists,
    // the status codes and headers it names appear in the HTTP layer,
    // the load harness and its tracked baseline exist, and ci.sh runs
    // the lane the docs promise.
    let serving_doc = read("docs/SERVING.md");
    let server_src = read("crates/serve/src/server.rs");
    let http_src = read("crates/serve/src/http.rs");
    let ci = read("ci.sh");

    // The event-loop architecture section names its moving parts.
    assert!(
        repo_root().join("crates/serve/src/reactor.rs").is_file(),
        "the epoll reactor the docs describe is missing"
    );
    for needle in ["epoll", "reactor.rs", "TCP_NODELAY", "try_parse"] {
        assert!(
            serving_doc.contains(needle),
            "docs/SERVING.md missing event-loop anchor {needle}"
        );
    }

    // Backpressure/deadline semantics: every status and header the
    // docs promise is one the code can actually produce.
    for (needle, src, which) in [
        ("Retry-After", &server_src, "server.rs"),
        ("503", &server_src, "server.rs"),
        ("431", &http_src, "http.rs"),
        ("408", &http_src, "http.rs"),
    ] {
        assert!(serving_doc.contains(needle), "docs missing {needle}");
        assert!(src.contains(needle), "{which} missing {needle}");
    }
    assert!(serving_doc.contains("slowloris"));

    // Replica mode and the shared-cache story: writers produce
    // deterministic bytes per hash, so racing readers see at worst a
    // torn file the corruption-tolerant loader treats as a miss.
    for needle in [
        "--replicas",
        "byte-identical",
        "deterministic function of its",
        "torn",
    ] {
        assert!(
            serving_doc.contains(needle),
            "docs/SERVING.md missing replica anchor {needle}"
        );
    }

    // The load harness: crate, binary, tracked baseline, CI lane.
    assert!(repo_root().join("crates/load/src/lib.rs").is_file());
    assert!(bench_binaries().contains("syncperf_load"));
    for (doc, name) in [(&serving_doc, "docs/SERVING.md"), (&ci, "ci.sh")] {
        assert!(
            doc.contains("syncperf_load"),
            "{name} missing the load harness"
        );
        assert!(
            doc.contains("BENCH_serve.json"),
            "{name} missing the tracked serve baseline"
        );
    }
    assert!(
        ci.contains("--replicas 2"),
        "ci.sh load lane must drive a replica pair"
    );
    let report = read("BENCH_serve.json");
    let parsed = syncperf::core::obs::json::parse(&report).expect("BENCH_serve.json parses");
    for field in [
        "connections",
        "throughput_rps",
        "error_rate",
        "p50_us",
        "p99_us",
        "check_p99_factor",
        "check_max_error_rate",
    ] {
        assert!(
            parsed.get(field).and_then(|v| v.as_f64()).is_some(),
            "BENCH_serve.json missing numeric field {field}"
        );
    }

    // The TLS recipe covers both documented proxies.
    assert!(serving_doc.contains("nginx"));
    assert!(serving_doc.contains("Caddy"));
}

#[test]
fn observability_docs_match_the_telemetry_plane() {
    // docs/OBSERVABILITY.md documents the metric names, the exposition
    // schema, and the flight recorder the obs/sched/serve code
    // implements; keep the three in lockstep.
    let obs_doc = read("docs/OBSERVABILITY.md");
    let readme = read("README.md");
    let design = read("DESIGN.md");
    let server_src = read("crates/serve/src/server.rs");
    let sched_src = read("crates/sched/src/scheduler.rs");

    // Metric-name table: every family the code registers is listed.
    for (name, src, which) in [
        ("serve.latency_us", &server_src, "server.rs"),
        ("serve.endpoint.", &server_src, "server.rs"),
        ("serve.index_entries", &server_src, "server.rs"),
        ("serve.inflight", &server_src, "server.rs"),
        ("serve.flight_events", &server_src, "server.rs"),
        ("sched.wait_us", &sched_src, "scheduler.rs"),
        ("sched.service_us.hit", &sched_src, "scheduler.rs"),
        ("sched.service_us.miss", &sched_src, "scheduler.rs"),
        ("sched.queue_depth", &sched_src, "scheduler.rs"),
        ("sched.queue_depth_peak", &sched_src, "scheduler.rs"),
        ("sched.worker.", &sched_src, "scheduler.rs"),
    ] {
        assert!(
            obs_doc.contains(name),
            "docs/OBSERVABILITY.md missing metric {name}"
        );
        assert!(src.contains(name), "{which} missing metric {name}");
    }

    // Exposition and flight-recorder schema anchors.
    for needle in [
        "# TYPE",
        "_bucket{le=",
        "events_dropped_total",
        "GET /metrics",
        "GET /events",
        "flightrec-",
        "--metrics",
        "syncperf_top",
    ] {
        assert!(
            obs_doc.contains(needle),
            "docs/OBSERVABILITY.md missing {needle}"
        );
    }

    // The per-engine-run event budgets quoted in the doc are the code's.
    assert!(obs_doc.contains("`cpu_sim::engine::OP_EVENT_BUDGET` = 8"));
    assert_eq!(syncperf::cpu_sim::engine::OP_EVENT_BUDGET, 8);
    assert!(obs_doc.contains("`gpu_sim::engine::OP_EVENT_BUDGET` = 2"));
    assert_eq!(syncperf::gpu_sim::engine::OP_EVENT_BUDGET, 2);
    assert!(obs_doc.contains("instant_with"));

    // The live-view binary and the quantile/golden tests exist.
    assert!(bench_binaries().contains("syncperf_top"));
    assert!(repo_root().join("tests/telemetry_consistency.rs").exists());
    assert!(readme.contains("syncperf_top"));
    assert!(readme.contains("docs/OBSERVABILITY.md"));
    assert!(design.contains("docs/OBSERVABILITY.md"));
}

#[test]
fn performance_docs_match_the_code() {
    // docs/PERFORMANCE.md, DESIGN.md §10, and the tracked benchmark
    // report document the fast path the engines actually implement.
    let perf_doc = read("docs/PERFORMANCE.md");
    let design = read("DESIGN.md");
    let ci = read("ci.sh");

    // The documented constants are the code's.
    assert!(perf_doc.contains("SCALE_BITS = 20"));
    assert_eq!(syncperf::cpu_sim::plan::SCALE_BITS, 20);
    assert_eq!(syncperf::gpu_sim::engine::SCALE_BITS, 20);
    assert!(perf_doc.contains("OBSERVED_REPS"));
    assert!(perf_doc.contains("(= 4)"));
    assert_eq!(syncperf::cpu_sim::OBSERVED_REPS, 4);
    assert!(perf_doc.contains(syncperf_sched::SCHED_SALT));

    // The oracle, the property test, and the bench suites it names
    // all exist.
    assert!(perf_doc.contains("run_full_stepping"));
    assert!(repo_root().join("tests/property_based.rs").exists());

    // §6: the trace-compilation and batching layer the doc promises
    // is the one the code ships, under the names it uses.
    for name in [
        "OpTrace",
        "PlanTable",
        "trace_vs_interp",
        "same_shape",
        "plan.compile_us",
        "plan.trace_ops",
        "plan.batch_size",
        "plan_batches",
        "plan_primed_jobs",
    ] {
        assert!(
            perf_doc.contains(name),
            "docs/PERFORMANCE.md missing {name}"
        );
    }
    assert!(design.contains("OpTrace"));
    assert!(design.contains("same_shape"));
    assert!(repo_root().join("crates/cpu-sim/src/trace.rs").exists());
    assert!(repo_root().join("crates/gpu-sim/src/batch.rs").exists());

    for bench in ["sim_engines", "infrastructure"] {
        assert!(perf_doc.contains(bench));
        assert!(
            repo_root()
                .join(format!("crates/bench/benches/{bench}.rs"))
                .exists(),
            "docs/PERFORMANCE.md promises bench suite {bench}"
        );
    }

    // The tracked harness: binary, committed report, and the CI gates
    // that keep them honest.
    assert!(bench_binaries().contains("bench_report"));
    assert!(perf_doc.contains("BENCH_syncperf.json"));
    assert!(perf_doc.contains("SYNCPERF_BENCH_QUICK"));
    assert!(ci.contains("bench_report --check"));
    assert!(ci.contains("SYNCPERF_BENCH_QUICK=1"));
    let report = read("BENCH_syncperf.json");
    let parsed = syncperf::core::obs::json::parse(&report).expect("BENCH_syncperf.json parses");
    for field in [
        "before_ms",
        "after_ms",
        "speedup",
        "check_regression_factor",
    ] {
        assert!(
            parsed.get(field).and_then(|v| v.as_f64()).is_some(),
            "BENCH_syncperf.json missing numeric field {field}"
        );
    }

    // DESIGN.md §10 summarizes the same contract.
    assert!(design.contains("## 10."));
    assert!(design.contains("docs/PERFORMANCE.md"));
}

#[test]
fn ablations_promised_in_design_exist() {
    let design = read("DESIGN.md");
    let bins = bench_binaries();
    for ablation in [
        "ablation_contention_model",
        "ablation_warp_aggregation",
        "ablation_fp_atomics",
        "ablation_barrier_model",
    ] {
        assert!(
            design.contains(ablation),
            "DESIGN.md missing ablation {ablation}"
        );
        assert!(
            bins.contains(ablation),
            "promised ablation binary {ablation} missing"
        );
    }
}

#[test]
fn model_md_constants_match_code() {
    // MODEL.md quotes specific constants; keep prose and code in sync.
    let model = read("MODEL.md");
    let cpu = syncperf::cpu_sim::CpuModel::baseline();
    assert!(model.contains("SAT = 7"));
    assert_eq!(cpu.contention_sat, 7);
    assert!(model.contains("40 ns"));
    assert_eq!(cpu.line_transfer_ns, 40.0);
    assert!(model.contains("h = 0.6"));
    assert_eq!(cpu.store_buffer_hiding, 0.6);

    let gpu = syncperf::gpu_sim::GpuModel::for_spec(&syncperf::core::SYSTEM3.gpu);
    assert!(model.contains("int 36"));
    assert_eq!(gpu.atomic_device.i32_cy, 36.0);
    assert!(model.contains("FREE = 4"));
    assert_eq!(gpu.same_addr_free_requests, 4);
    assert!(model.contains("device 250"));
    assert_eq!(gpu.fence_device_cy, 250.0);
}

#[test]
fn model_checker_docs_match_the_cli_and_code() {
    // docs/ANALYSIS.md documents the explorer's codes, the engine
    // selector, the explain flag, and the SARIF output; ci.sh actually
    // runs the gate it promises; DESIGN.md describes the explorer.
    let analysis = read("docs/ANALYSIS.md");
    for needle in [
        "`SL007`",
        "`SL008`",
        "`SL009`",
        "`SL010`",
        "--engine",
        "--explain",
        "sarif",
        "partial-order reduction",
        "tests/golden/sync_lint.sarif",
    ] {
        assert!(
            analysis.contains(needle),
            "docs/ANALYSIS.md missing {needle}"
        );
    }

    let ci = read("ci.sh");
    assert!(
        ci.contains("--engine both"),
        "ci.sh must gate on both engines"
    );
    assert!(ci.contains("sarif"), "ci.sh must emit the SARIF report");

    let design = read("DESIGN.md");
    for needle in ["interp", "explore", "partial-order reduction", "sarif"] {
        assert!(design.contains(needle), "DESIGN.md missing {needle}");
    }

    // The golden SARIF file the docs point at is committed.
    assert!(repo_root().join("tests/golden/sync_lint.sarif").is_file());
}
