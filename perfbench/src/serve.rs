//! `serve_mixed`: an in-process `syncperf_serve::Server` with one
//! compute worker over a warm cache, driven by one client thread that
//! holds one keep-alive connection in a closed loop.
//!
//! The seeded mix is the one `syncperf_load::profile::Profile::next_op`
//! draws for the committed serve load gate: 40% `GET /job/<hash>`
//! uniform over every cached hash, 25% `GET /query` over the cached
//! kernel × threads points, 10% `GET /figure/<id>.csv`, 10%
//! `POST /compute` of cached points, 10% `GET /stats` and 5%
//! `GET /metrics`. An op is [`REQUESTS_PER_OP`] requests, timed as the
//! sum of their round trips. Every reply is checked after its clock
//! stops: a `/job` or `/compute` body must decode equal to
//! `Cache::load` of its hash, a `/figure` body must equal the file on
//! disk, a `/query` answer must name the requested kernel, and the
//! telemetry answers must report the index's size.
//!
//! A traced op replays the server's in-process layers for the same
//! request after the round trip — `http::try_parse`, the index lookup,
//! the figure read or compute resolution, and the response encoding —
//! and reports the round trip minus those layers as `serve.wire`, or
//! as `serve.telemetry` for `/stats` and `/metrics`, whose snapshot of
//! the server's counters has no public entry point to replay.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use syncperf_core::obs::{self, json};
use syncperf_core::Measurement;
use syncperf_load::profile::extract_hash;
use syncperf_load::{ClientConn, Rng};
use syncperf_sched::hash::{hex16, parse_hex16};
use syncperf_sched::{decode_measurement, encode_measurement, job_hash_with_salt, Cache};
use syncperf_sched::{SchedConfig, Scheduler};
use syncperf_serve::http::{render_response, try_parse, Response};
use syncperf_serve::server::{ComputeRequest, ServeConfig, Server};
use syncperf_serve::{Index, Query};

use crate::regen::fill_cache;
use crate::tracer::Tracer;
use crate::{Counts, Op, Workload};

/// Requests per op. One request's round trip is about 0.1 ms, and its
/// p90 and the request rate swung twofold between identical runs on a
/// shared 2-core box; the time of a batch of requests repeats.
const REQUESTS_PER_OP: usize = 32;

/// One request of the mix, as indices into the [`Universe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    Job(usize),
    Query(usize),
    Figure(usize),
    Compute(usize),
    Stats,
    Metrics,
}

/// Sizes of the universe the mix draws from: cached hashes, query
/// points, figures and compute bodies.
#[derive(Debug, Clone, Copy)]
pub struct MixSizes {
    pub hashes: usize,
    pub points: usize,
    pub figures: usize,
    pub computes: usize,
}

/// The next request of the seeded mix: the shares and the draws of
/// `Profile::next_op`, so one seed gives the same sequence of request
/// kinds as the load harness.
pub fn next_request(rng: &mut Rng, sizes: MixSizes) -> Request {
    match rng.below(100) {
        0..=39 => Request::Job(rng.below(sizes.hashes)),
        40..=64 => Request::Query(rng.below(sizes.points)),
        65..=74 => Request::Figure(rng.below(sizes.figures)),
        75..=84 => Request::Compute(rng.below(sizes.computes)),
        85..=94 => Request::Stats,
        _ => Request::Metrics,
    }
}

/// Everything a request can name, and the expected answers.
#[derive(Debug)]
struct Universe {
    /// Every cached hash, ascending.
    hashes: Vec<u64>,
    /// `Cache::load` of each cached hash.
    expected: HashMap<u64, Measurement>,
    /// Distinct cached (kernel, threads) points, ascending.
    points: Vec<(String, u32)>,
    /// (figure id, CSV bytes on disk), ascending by id.
    figures: Vec<(String, String)>,
    /// (`/compute` body, the cached hash it resolves to).
    computes: Vec<(String, u64)>,
}

impl Universe {
    fn build(cache: &Cache, results: &Path) -> Result<Universe, String> {
        let mut hashes = cache.hashes();
        hashes.sort_unstable();
        let mut expected = HashMap::new();
        for &h in &hashes {
            let m = cache
                .load(h)
                .ok_or_else(|| format!("cache entry {} does not load", hex16(h)))?;
            expected.insert(h, m);
        }
        let points: BTreeSet<(String, u32)> = expected
            .values()
            .map(|m| (m.kernel_name.clone(), m.params.threads))
            .collect();
        let mut figures = Vec::new();
        for entry in std::fs::read_dir(results).map_err(|e| e.to_string())? {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.extension().is_some_and(|x| x == "csv") {
                let id = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or("")
                    .to_string();
                let body = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
                figures.push((id, body));
            }
        }
        figures.sort();
        let mut computes = Vec::new();
        for &h in &hashes {
            let m = &expected[&h];
            for executor in ["cpu-sim", "gpu-sim"] {
                let body = compute_body(executor, m);
                if resolve_hash(&body) == Some(h) {
                    computes.push((body, h));
                }
            }
        }
        if hashes.is_empty() || figures.is_empty() || computes.is_empty() {
            return Err("the warm cache offers no hashes, figures or computable points".into());
        }
        Ok(Universe {
            hashes,
            expected,
            points: points.into_iter().collect(),
            figures,
            computes,
        })
    }

    fn sizes(&self) -> MixSizes {
        MixSizes {
            hashes: self.hashes.len(),
            points: self.points.len(),
            figures: self.figures.len(),
            computes: self.computes.len(),
        }
    }

    /// (method, path, body) of `req`.
    fn render(&self, req: Request) -> (&'static str, String, Option<&str>) {
        match req {
            Request::Job(i) => ("GET", format!("/job/{}", hex16(self.hashes[i])), None),
            Request::Query(i) => {
                let (kernel, threads) = &self.points[i];
                (
                    "GET",
                    format!("/query?kernel={kernel}&threads={threads}"),
                    None,
                )
            }
            Request::Figure(i) => ("GET", format!("/figure/{}.csv", self.figures[i].0), None),
            Request::Compute(i) => ("POST", "/compute".into(), Some(self.computes[i].0.as_str())),
            Request::Stats => ("GET", "/stats".into(), None),
            Request::Metrics => ("GET", "/metrics".into(), None),
        }
    }

    /// Checks one reply against the expected answer.
    fn check(&self, req: Request, status: u16, body: &str) -> Result<(), String> {
        if status != 200 {
            return Err(format!("{req:?} answered {status}"));
        }
        match req {
            Request::Job(i) => check_measurement(body, self.hashes[i], &self.expected),
            Request::Compute(i) => check_measurement(body, self.computes[i].1, &self.expected),
            Request::Figure(i) if body == self.figures[i].1 => Ok(()),
            Request::Figure(i) => Err(format!(
                "/figure/{} differs from the file",
                self.figures[i].0
            )),
            Request::Query(i) => {
                let (hash, m) = measurement_of(body).ok_or("undecodable /query answer")?;
                let kernel = &self.points[i].0;
                if m.kernel_name != *kernel {
                    return Err(format!("/query for {kernel} answered {}", m.kernel_name));
                }
                if !self.expected.contains_key(&hash) {
                    return Err("/query answered an uncached hash".into());
                }
                Ok(())
            }
            Request::Stats => {
                let v = json::parse(body).map_err(|e| format!("/stats: {e:?}"))?;
                let requests = v.get("serve").and_then(|s| s.get("requests"));
                match requests.and_then(json::Value::as_f64) {
                    Some(n) if n > 0.0 => Ok(()),
                    _ => Err("/stats reports no requests".into()),
                }
            }
            Request::Metrics => {
                let snap = obs::metrics::parse(body);
                let entries = snap.gauges.get("serve_index_entries").copied();
                if entries == Some(self.hashes.len() as u64) {
                    Ok(())
                } else {
                    Err(format!(
                        "/metrics reports {entries:?} index entries, not {}",
                        self.hashes.len()
                    ))
                }
            }
        }
    }
}

/// The `/compute` body naming measurement `m`'s sweep point.
fn compute_body(executor: &str, m: &Measurement) -> String {
    let p = &m.params;
    format!(
        "{{\"executor\": \"{executor}\", \"kernel\": \"{}\", \"threads\": {}, \"blocks\": {}, \
         \"affinity\": \"{}\", \"n_iter\": {}, \"n_unroll\": {}}}",
        m.kernel_name,
        p.threads,
        p.blocks,
        p.affinity.label(),
        p.n_iter,
        p.n_unroll
    )
}

/// What the server's `/compute` resolution does before its index lookup.
fn resolve_hash(body: &str) -> Option<u64> {
    let req = ComputeRequest::from_json(body).ok()?;
    let job = syncperf_bench::serving::resolve(&req)?;
    Some(job_hash_with_salt(&job, 0))
}

/// The hash and decoded measurement of a measurement response body.
fn measurement_of(body: &str) -> Option<(u64, Measurement)> {
    const KEY: &str = "\"measurement\": ";
    let hash = parse_hex16(&extract_hash(body)?)?;
    let start = body.find(KEY)? + KEY.len();
    let text = body.get(start..)?.trim_end().strip_suffix('}')?;
    Some((hash, decode_measurement(hash, text)?))
}

/// A `/job`-style answer must carry `hash` and decode equal to the
/// cached measurement.
fn check_measurement(
    body: &str,
    hash: u64,
    expected: &HashMap<u64, Measurement>,
) -> Result<(), String> {
    let (got_hash, m) = measurement_of(body).ok_or("undecodable measurement answer")?;
    if got_hash != hash {
        return Err(format!(
            "asked for {} but got {}",
            hex16(hash),
            hex16(got_hash)
        ));
    }
    if expected.get(&hash) != Some(&m) {
        return Err(format!("{} differs from Cache::load", hex16(hash)));
    }
    Ok(())
}

/// The `serve.*` counters of `/stats`.
fn serve_counters(conn: &mut ClientConn) -> Result<BTreeMap<&'static str, u64>, String> {
    let reply = conn
        .request("GET", "/stats", None)
        .map_err(|e| format!("/stats: {e}"))?;
    let v = json::parse(&reply.body).map_err(|e| format!("/stats: {e:?}"))?;
    let serve = v.get("serve").ok_or("/stats has no serve object")?;
    let mut out = BTreeMap::new();
    for key in ["requests", "errors", "rejected", "timeouts"] {
        let n = serve
            .get(key)
            .and_then(json::Value::as_f64)
            .ok_or("/stats lacks a counter")?;
        out.insert(key, n as u64);
    }
    Ok(out)
}

/// The running server and its client.
#[derive(Debug)]
struct Live {
    server: Server,
    conn: ClientConn,
    counters_at_start: BTreeMap<&'static str, u64>,
}

/// The `serve_mixed` workload.
#[derive(Debug)]
pub struct Serve {
    cache_dir: PathBuf,
    results: PathBuf,
    /// What the filled cache under `cache_dir` holds; built once, after
    /// the fill, and shared by every set-up.
    universe: Option<Universe>,
    rng: Rng,
    live: Option<Live>,
    tracer: Option<Tracer>,
    queries: u64,
    exact_queries: u64,
}

impl Serve {
    /// A workload working under `base` with the mix seeded by `seed`.
    pub fn new(base: &Path, seed: u64) -> Self {
        Serve {
            cache_dir: base.join("fill").join("cache"),
            results: base.join("fill").join("results"),
            universe: None,
            rng: Rng::new(seed),
            live: None,
            tracer: Some(Tracer::default()),
            queries: 0,
            exact_queries: 0,
        }
    }

    /// Replays the server's in-process layers for `req` under `tracer`;
    /// `reply` is the body the server answered. Returns the encoded
    /// response's length.
    fn replay(
        &mut self,
        tracer: &mut Tracer,
        req: Request,
        (method, path, body): (&str, &str, Option<&str>),
        reply: &str,
    ) -> usize {
        let live = self.live.as_ref().expect("set up");
        let u = self.universe.as_ref().expect("set up");
        let body = body.unwrap_or("");
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: syncperf\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let parsed = tracer.time("serve.parse", || try_parse(raw.as_bytes()));
        std::hint::black_box(parsed.is_ok());
        let index = live.server.index();
        let response = match req {
            Request::Job(i) => {
                let h = u.hashes[i];
                let pin = tracer.time("serve.index.get", || index.get(h));
                pin.map(|p| (h, p.measurement().clone()))
            }
            Request::Compute(_) => {
                let h = tracer.time("serve.resolve", || resolve_hash(body));
                let pin = tracer.time("serve.index.get", || h.and_then(|h| index.get(h)));
                pin.map(|p| (p.hash(), p.measurement().clone()))
            }
            Request::Query(i) => {
                let (kernel, threads) = &u.points[i];
                let q = Query {
                    kernel: kernel.clone(),
                    threads: *threads,
                    ..Query::default()
                };
                let found = tracer.time("serve.index.query", || index.query(&q));
                self.queries += 1;
                found.map(|f| {
                    self.exact_queries += u64::from(f.distance == 0);
                    (f.hash, f.pin.measurement().clone())
                })
            }
            Request::Figure(i) => {
                let file = self.results.join(format!("{}.csv", u.figures[i].0));
                let text = tracer.time("serve.figure.read", || std::fs::read_to_string(&file));
                let rendered = tracer.time("serve.encode", || {
                    render_response(&Response::text(200, text.unwrap_or_default()), true)
                });
                return rendered.len();
            }
            Request::Stats | Request::Metrics => {
                let rendered = tracer.time("serve.encode", || {
                    let response = if req == Request::Stats {
                        Response::json(200, reply.to_string())
                    } else {
                        Response::text(200, reply.to_string())
                    };
                    render_response(&response, true)
                });
                return rendered.len();
            }
        };
        // The body is laid out as the server's private
        // `measurement_response` lays it out.
        let rendered = tracer.time("serve.encode", || {
            let body = response.map_or_else(String::new, |(h, m)| {
                format!(
                    "{{\n\"hash\": \"{}\",\n\"source\": \"cache\",\n\"measurement\": {}}}\n",
                    hex16(h),
                    encode_measurement(h, &m)
                )
            });
            render_response(&Response::json(200, body), true)
        });
        rendered.len()
    }
}

impl Workload for Serve {
    fn setup(&mut self, _rep: usize) -> Result<(), String> {
        if self.universe.is_none() {
            fill_cache(&self.cache_dir, &self.results)?;
            self.universe = Some(Universe::build(
                &Cache::new(&self.cache_dir),
                &self.results,
            )?);
        }
        let universe = self.universe.as_ref().expect("built above");
        let sched = Arc::new(Scheduler::new(
            SchedConfig::new(1).with_cache_dir(&self.cache_dir),
        ));
        let mut cfg = ServeConfig::new(sched, syncperf_bench::serving::default_resolver());
        cfg.workers = 1;
        cfg.results_dir.clone_from(&self.results);
        cfg.cache_bytes = None;
        let server = Server::start(cfg).map_err(|e| format!("server start: {e}"))?;
        let mut conn = ClientConn::new(&server.addr().to_string(), Duration::from_secs(10))
            .map_err(|e| e.to_string())?;
        for req in [
            Request::Job(0),
            Request::Query(0),
            Request::Figure(0),
            Request::Compute(0),
            Request::Stats,
            Request::Metrics,
        ] {
            let (method, path, body) = universe.render(req);
            let reply = conn
                .request(method, &path, body)
                .map_err(|e| e.to_string())?;
            universe
                .check(req, reply.status, &reply.body)
                .map_err(|e| format!("warm-up request failed: {e}"))?;
        }
        let counters_at_start = serve_counters(&mut conn)?;
        self.live = Some(Live {
            server,
            conn,
            counters_at_start,
        });
        Ok(())
    }

    fn op(&mut self, traced: bool, op_id: u64) -> Op {
        let mut tracer = self
            .tracer
            .take()
            .expect("tracer is returned after every op");
        if traced {
            tracer.start_op(op_id);
        }
        let (mut ms, mut error, mut bytes) = (0.0, None, 0);
        let (mut wire_ms, mut telemetry_ms) = (0.0, 0.0);
        for _ in 0..REQUESTS_PER_OP {
            let live = self.live.as_mut().expect("set up");
            let u = self.universe.as_ref().expect("set up");
            let req = next_request(&mut self.rng, u.sizes());
            let (method, path, body) = u.render(req);
            let body = body.map(str::to_string);
            let start = Instant::now();
            let reply = live.conn.request(method, &path, body.as_deref());
            let end = Instant::now();
            let rt_ms = (end - start).as_secs_f64() * 1e3;
            ms += rt_ms;
            let failure = match &reply {
                Ok(r) => u.check(req, r.status, &r.body).err(),
                Err(e) => Some(format!("{method} {path}: {e}")),
            };
            error = error.or(failure);
            if traced {
                tracer.record_root("serve.request", start, end);
                let mark = tracer.mark();
                let answered = reply.as_ref().map_or("", |r| r.body.as_str());
                let request = (method, path.as_str(), body.as_deref());
                bytes += self.replay(&mut tracer, req, request, answered);
                let rest = rt_ms - tracer.top_level_ms_since(mark);
                if matches!(req, Request::Stats | Request::Metrics) {
                    telemetry_ms += rest;
                } else {
                    wire_ms += rest;
                }
            }
        }
        let mut times = BTreeMap::new();
        let mut amounts = BTreeMap::new();
        if traced {
            times = tracer.finish_op();
            times.remove("serve.request");
            times.insert("serve.wire", wire_ms);
            times.insert("serve.telemetry", telemetry_ms);
            amounts.insert("serve.encode.bytes", bytes as f64);
        }
        self.tracer = Some(tracer);
        Op {
            ms,
            error,
            counts: Counts::new(),
            times,
            amounts,
            program_ms: BTreeMap::new(),
        }
    }

    fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    fn ops_per_reference(&self) -> u64 {
        32
    }

    fn teardown(&mut self) -> std::io::Result<()> {
        if let Some(live) = self.live.take() {
            live.server.shutdown();
        }
        Ok(())
    }

    fn run_metrics(&mut self, traced: bool) -> Result<BTreeMap<&'static str, f64>, String> {
        let mut out = BTreeMap::new();
        if !traced {
            return Ok(out);
        }
        let live = self.live.as_mut().expect("set up");
        let end = serve_counters(&mut live.conn)?;
        for (key, name) in [
            ("requests", "serve.requests"),
            ("errors", "serve.errors"),
            ("rejected", "serve.rejected"),
            ("timeouts", "serve.timeouts"),
        ] {
            let mut delta = end[key] - live.counters_at_start[key];
            if key == "requests" {
                delta -= 1; // the closing /stats itself
            }
            out.insert(name, delta as f64);
        }
        let start = Instant::now();
        let index = Index::build(Cache::new(&self.cache_dir), None);
        out.insert("serve.index.build.ms", start.elapsed().as_secs_f64() * 1e3);
        out.insert("serve.index.entries", index.len() as f64);
        out.insert(
            "serve.index.query_exact_ratio",
            self.exact_queries as f64 / self.queries.max(1) as f64,
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncperf_core::{kernel, DType, ExecParams, Protocol, SYSTEM3};
    use syncperf_sched::JobSpec;

    const SIZES: MixSizes = MixSizes {
        hashes: 3166,
        points: 300,
        figures: 42,
        computes: 900,
    };

    fn sequence(seed: u64) -> Vec<Request> {
        let mut rng = Rng::new(seed);
        (0..2000).map(|_| next_request(&mut rng, SIZES)).collect()
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        assert_eq!(sequence(7), sequence(7));
        assert_ne!(sequence(7), sequence(8));
        let seq = sequence(7);
        let jobs = seq.iter().filter(|r| matches!(r, Request::Job(_))).count();
        assert!((600..1000).contains(&jobs), "about 40% /job, got {jobs}");
    }

    #[test]
    fn the_mix_is_the_load_harness_mix() {
        use syncperf_load::profile::{Op as LoadOp, Profile};
        let profile = Profile {
            hashes: vec!["00112233445566aa".into()],
            points: vec![("omp_barrier".into(), 4)],
            figures: vec!["fig01".into()],
        };
        let mut rng = Rng::new(11);
        let theirs: Vec<&str> = (0..2000)
            .map(|_| match profile.next_op(&mut rng) {
                LoadOp::Job(_) => "job",
                LoadOp::Query(_) => "query",
                LoadOp::Figure(_) => "figure",
                LoadOp::Compute(_) => "compute",
                LoadOp::Stats => "stats",
                LoadOp::Metrics => "metrics",
            })
            .collect();
        let ours: Vec<&str> = sequence(11)
            .into_iter()
            .map(|r| match r {
                Request::Job(_) => "job",
                Request::Query(_) => "query",
                Request::Figure(_) => "figure",
                Request::Compute(_) => "compute",
                Request::Stats => "stats",
                Request::Metrics => "metrics",
            })
            .collect();
        assert_eq!(ours, theirs);
    }

    fn answer(hash: u64, m: &Measurement) -> String {
        format!(
            "{{\n\"hash\": \"{}\",\n\"source\": \"cache\",\n\"measurement\": {}}}\n",
            hex16(hash),
            encode_measurement(hash, m)
        )
    }

    #[test]
    fn wrong_job_body_fails_the_serve_check() {
        let job = JobSpec::cpu_sim(
            &SYSTEM3,
            kernel::omp_atomic_update_scalar(DType::I32),
            ExecParams::new(2).with_loops(50, 4),
            Protocol::SIM,
        );
        let m = job.execute(1).expect("tiny job runs");
        let hash = 0x00aa_bb00_cc00_dd00;
        let expected = HashMap::from([(hash, m.clone())]);
        assert_eq!(
            check_measurement(&answer(hash, &m), hash, &expected),
            Ok(())
        );

        let mut wrong = m.clone();
        wrong.test_runs[0] *= 1.5;
        assert!(check_measurement(&answer(hash, &wrong), hash, &expected).is_err());
        assert!(check_measurement(&answer(hash + 1, &m), hash, &expected).is_err());
        assert!(check_measurement("{\"error\": \"nope\"}\n", hash, &expected).is_err());
    }
}
