//! serve-zipf: the planning daemon in this process on loopback, with a
//! write-ahead journal, and closed-loop clients posting tenant NPDs to
//! `/v1/plan` under a zipf(1.1) popularity law. There are more tenants than
//! cache slots, so hits and journaled misses both keep happening.
//!
//! Every served body is compared with the bytes `plan_document` produces
//! for the same tenant, computed after the window closes.

use super::{elapsed_ms, Run, RunResult};
use crate::check::{served_body_ok, Tally, TENANT_COST, TENANT_PHASES};
use crate::inputs::{self, Zipf};
use crate::metrics::{median, ratio, Layers, Window, Workload};
use crate::trace::{Tracer, OP};
use klotski::core::planner::SearchBudget;
use klotski::npd::api::fnv1a;
use klotski::npd::{npd_digest, Npd, PlanRequestOptions};
use klotski::service::pipeline::plan_document;
use klotski::service::{Service, ServiceConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Distinct tenant documents.
const TENANTS: usize = 48;
/// Plan-cache slots (a multiple of the cache's 8 shards).
const CACHE_CAPACITY: usize = 16;
/// Zipf exponent of tenant popularity.
const ZIPF_S: f64 = 1.1;
/// Planner worker threads in the daemon.
const WORKERS: usize = 2;
/// Satisfiability lanes of each worker's pool.
pub const LANES_PER_WORKER: usize = 1;
/// Closed-loop client connections, at most the CPUs available.
const MAX_CLIENTS: usize = 2;
/// A request that takes longer than this fails.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Set-ups per run: daemon start plus cache warm-up.
const SETUP_REPEATS: usize = 7;
/// Repetitions of each small probe; the median is reported.
const PROBE_REPS: usize = 50;

/// A daemon started for the run; shut down, and its journal removed, when
/// dropped.
struct Daemon {
    service: Option<Service>,
    state_dir: PathBuf,
}

impl Daemon {
    fn start(state_dir: PathBuf) -> std::io::Result<Self> {
        let _ = std::fs::remove_dir_all(&state_dir);
        std::fs::create_dir_all(&state_dir)?;
        let service = Service::start(ServiceConfig {
            workers: WORKERS,
            lanes_per_worker: LANES_PER_WORKER,
            cache_capacity: CACHE_CAPACITY,
            io_timeout: IO_TIMEOUT,
            state_dir: Some(state_dir.clone()),
            ..ServiceConfig::default()
        })?;
        Ok(Self {
            service: Some(service),
            state_dir,
        })
    }

    fn addr(&self) -> SocketAddr {
        self.service
            .as_ref()
            .expect("a daemon is running until dropped")
            .local_addr()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(service) = self.service.take() {
            service.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}

/// One `/v1/plan` answer.
#[derive(Debug, Clone, Copy)]
struct Reply {
    status: u16,
    cache_hit: bool,
    body_fnv: u64,
}

/// Runs `f` inside a span when a recorder is given.
fn stage<T>(t: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match t {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    }
}

/// One request on its own connection (the daemon closes each after
/// answering). Returns the status line's code, the headers and the body.
fn exchange(
    addr: SocketAddr,
    request: &[u8],
    mut t: Option<&mut Tracer>,
) -> std::io::Result<(u16, String, Vec<u8>)> {
    let mut stream = stage(&mut t, "http.connect", || {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok::<_, std::io::Error>(stream)
    })?;
    stage(&mut t, "http.write", || stream.write_all(request))?;
    let mut reply = Vec::new();
    stage(&mut t, "http.read", || stream.read_to_end(&mut reply))?;
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP reply");
    let head_end = reply
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(bad)?;
    let head = String::from_utf8_lossy(&reply[..head_end]).into_owned();
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    Ok((status, head, reply.split_off(head_end + 4)))
}

fn plan_request(doc: &str) -> Vec<u8> {
    let mut request = format!(
        "POST /v1/plan HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        doc.len()
    )
    .into_bytes();
    request.extend_from_slice(doc.as_bytes());
    request
}

fn post(addr: SocketAddr, request: &[u8], t: Option<&mut Tracer>) -> std::io::Result<Reply> {
    let (status, head, body) = exchange(addr, request, t)?;
    let cache_hit = head
        .lines()
        .any(|l| l.to_ascii_lowercase().starts_with("x-klotski-cache:") && l.ends_with("hit"));
    Ok(Reply {
        status,
        cache_hit,
        body_fnv: fnv1a(&body),
    })
}

fn get(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let request = format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: 0\r\n\r\n");
    let (_, _, body) = exchange(addr, request.as_bytes(), None)?;
    Ok(String::from_utf8_lossy(&body).into_owned())
}

/// Value of an unlabeled metric family in Prometheus text (0 if absent).
fn scrape(text: &str, family: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(family)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Set-up: tenant documents, a fresh daemon, and a warm-up that posts
/// tenants in popularity order until the plan cache is full.
fn set_up(out_dir: &std::path::Path, n: usize) -> std::io::Result<(Vec<Vec<u8>>, Daemon)> {
    let requests: Vec<Vec<u8>> = inputs::tenant_docs(TENANTS)
        .iter()
        .map(|doc| plan_request(doc))
        .collect();
    let daemon = Daemon::start(out_dir.join(format!("state-{}-{n}", std::process::id())))?;
    for request in &requests {
        post(daemon.addr(), request, None)?;
        let entries = scrape(&get(daemon.addr(), "/metrics")?, "klotski_cache_entries");
        if entries >= CACHE_CAPACITY as f64 {
            break;
        }
    }
    Ok((requests, daemon))
}

/// One request of the window.
struct Sample {
    tenant: usize,
    ms: f64,
    traced: bool,
    reply: Option<Reply>,
}

/// A closed-loop client: post, wait for the answer, post the next tenant
/// its zipf stream draws, until `deadline`. Traced runs trace every other
/// request.
fn client(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    seed: u64,
    deadline: Instant,
    mut tracer: Option<Tracer>,
) -> (Vec<Sample>, Option<Tracer>) {
    let mut zipf = Zipf::new(requests.len(), ZIPF_S, seed);
    let mut samples = Vec::new();
    while Instant::now() < deadline {
        let tenant = zipf.next_rank();
        let traced = tracer.is_some() && samples.len() % 2 == 1;
        let start = Instant::now();
        let reply = match tracer.as_mut().filter(|_| traced) {
            Some(t) => t.op(|t| post(addr, &requests[tenant], Some(t))),
            None => post(addr, &requests[tenant], None),
        };
        let ms = elapsed_ms(start);
        if let Err(e) = &reply {
            eprintln!("request for tenant {tenant} failed: {e}");
        }
        samples.push(Sample {
            tenant,
            ms,
            traced,
            reply: reply.ok(),
        });
    }
    (samples, tracer)
}

/// FNV-1a of each tenant's `plan_document` bytes; `None` for a tenant
/// whose reference plan failed or has the wrong cost or phase count.
fn references(tenants: usize) -> Vec<Option<u64>> {
    inputs::tenant_docs(tenants)
        .iter()
        .map(|doc| {
            let npd = Npd::from_json(doc).ok()?;
            let a = plan_document(
                &npd,
                &PlanRequestOptions::default(),
                SearchBudget::default(),
                None,
            )
            .ok()?;
            let expected = a.summary.cost == TENANT_COST && a.summary.phases == TENANT_PHASES;
            expected.then(|| fnv1a(&a.plan_json))
        })
        .collect()
}

/// Wall times of `PROBE_REPS` calls of `f`, ms.
fn probe_ms<T>(mut f: impl FnMut() -> T) -> Vec<f64> {
    (0..PROBE_REPS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            elapsed_ms(start)
        })
        .collect()
}

/// Runs serve-zipf.
pub fn run(run: &Run) -> RunResult {
    match measure(run) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("serve-zipf: {e}");
            RunResult::failed(Tally::default())
        }
    }
}

fn measure(run: &Run) -> std::io::Result<RunResult> {
    let mut n = 0;
    let (setups, setup) = super::timed_setups(SETUP_REPEATS, || {
        n += 1;
        set_up(&run.out_dir, n)
    });
    let (requests, daemon) = setup?;
    let addr = daemon.addr();
    let clients = MAX_CLIENTS.min(run.nproc).max(1);

    let before = get(addr, "/metrics")?;
    let origin = Instant::now();
    let cpu0 = crate::sys::usage().cpu;
    let deadline = origin + Duration::from_secs_f64(run.seconds);
    let per_client: Vec<(Vec<Sample>, Option<Tracer>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let requests = &requests;
                let tracer = run.trace.then(|| Tracer::new(origin, (c as u64) << 32));
                let seed = inputs::client_seed(run.seed, c);
                s.spawn(move || client(addr, requests, seed, deadline, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let wall_s = origin.elapsed().as_secs_f64();
    let cpu_ms = (crate::sys::usage().cpu - cpu0).as_secs_f64() * 1e3;
    let after = get(addr, "/metrics")?;
    let delta = |family: &str| scrape(&after, family) - scrape(&before, family);

    let refs = references(requests.len());
    let refs_ok = refs.iter().all(Option::is_some);
    let mut t = Tracer::new(origin, 0);
    let mut samples = Vec::new();
    for (s, tracer) in per_client {
        samples.extend(s);
        if let Some(tracer) = tracer {
            t.absorb(tracer);
        }
    }
    let mut w = Window {
        wall_s,
        cpu_ms,
        ..Window::default()
    };
    for s in &samples {
        let ok = s
            .reply
            .is_some_and(|r| served_body_ok(r.status, r.body_fnv, refs[s.tenant]));
        if w.tally.record(ok) && !s.traced {
            w.latencies_ms.push(s.ms);
        }
    }

    if !run.trace {
        drop(daemon);
        let mut result = RunResult::untraced(&setups, w, refs_ok);
        result.clients = clients;
        return Ok(result);
    }

    let untraced: Vec<&Sample> = samples.iter().filter(|s| !s.traced).collect();
    let split = |hit: bool| -> Vec<f64> {
        let matching = untraced
            .iter()
            .filter(|s| s.reply.is_some_and(|r| r.cache_hit == hit));
        matching.map(|s| s.ms).collect()
    };
    let answered = samples.iter().filter(|s| s.reply.is_some()).count() as f64;
    let hits = samples
        .iter()
        .filter(|s| s.reply.is_some_and(|r| r.cache_hit))
        .count() as f64;
    let shed = samples
        .iter()
        .filter(|s| s.reply.is_some_and(|r| r.status == 503))
        .count() as f64;
    let leaders = delta("klotski_coalesce_leaders_total");
    let followers = delta("klotski_coalesce_followers_total");

    let mut layers = Layers::default();
    layers.median("service.hit_p50_ms", &split(true));
    layers.median("service.miss_p50_ms", &split(false));
    layers.set(
        "service.cache_hit_ratio",
        ratio(hits, answered),
        samples.len(),
    );
    layers.set(
        "service.coalesce_follower_ratio",
        ratio(followers, leaders + followers),
        samples.len(),
    );
    layers.set(
        "service.shed_ratio",
        ratio(shed, samples.len() as f64),
        samples.len(),
    );
    for (metric, family) in [
        ("service.cache_evictions", "klotski_cache_evictions_total"),
        (
            "service.pipeline_executions",
            "klotski_pipeline_executions_total",
        ),
        ("service.journal_records", "klotski_journal_records_total"),
        (
            "service.journal_compactions",
            "klotski_journal_compactions_total",
        ),
    ] {
        layers.set(metric, delta(family), 1);
    }
    layers.set(
        "service.journal_bytes",
        scrape(&after, "klotski_journal_bytes"),
        1,
    );
    layers.set(
        "service.server_plan_mean_ms",
        1e3 * ratio(
            delta("klotski_plan_latency_seconds_sum"),
            delta("klotski_plan_latency_seconds_count"),
        ),
        delta("klotski_plan_latency_seconds_count") as usize,
    );
    let traced_ms = t.per_op_ms(OP);
    let untraced_ms: Vec<f64> = untraced.iter().map(|s| s.ms).collect();
    layers.set(
        "telemetry.overhead_pct",
        100.0 * (ratio(median(&traced_ms), median(&untraced_ms)) - 1.0),
        traced_ms.len() + untraced_ms.len(),
    );
    layers.median("unattributed_pct", &t.unattributed_pct());
    layers.median("service.http_floor_ms", &probe_ms(|| get(addr, "/healthz")));
    drop(daemon);

    let doc = &inputs::tenant_docs(1)[0];
    layers.median("npd.parse_ms", &probe_ms(|| Npd::from_json(doc)));
    let npd = Npd::from_json(doc).map_err(std::io::Error::other)?;
    let options = PlanRequestOptions::default();
    layers.median(
        "npd.digest_ms",
        &probe_ms(|| (npd_digest(&npd), options.digest())),
    );
    let mut result = RunResult::traced(w.tally, refs_ok, layers, Workload::ServeZipf, t);
    result.clients = clients;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    fn short_run(trace: bool) -> RunResult {
        let out_dir = std::env::temp_dir().join(format!(
            "perfbench-serve-test-{}-{trace}",
            std::process::id()
        ));
        let result = run(&Run {
            seed: 5,
            seconds: 0.5,
            trace,
            nproc: 2,
            out_dir: out_dir.clone(),
        });
        let _ = std::fs::remove_dir_all(out_dir);
        result
    }

    #[test]
    fn serve_zipf_checks_every_body_and_reports_its_metrics() {
        let untraced = short_run(false);
        assert!(untraced.checks_ok);
        assert!(untraced.tally.attempted > 0);
        assert_eq!(untraced.tally.failed, 0);
        assert_eq!(untraced.clients, 2);
        let names: Vec<&str> = untraced.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, want);
        assert!(
            untraced.metrics.iter().all(|m| m.value > 0.0),
            "{:?}",
            untraced.metrics
        );

        let traced = short_run(true);
        assert!(traced.checks_ok);
        assert_eq!(traced.tally.failed, 0);
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        let measured: Vec<&str> = traced
            .metrics
            .iter()
            .filter(|m| m.samples > 0)
            .map(|m| m.name)
            .collect();
        let mut want = Workload::ServeZipf.layers().to_vec();
        want.sort_unstable();
        let mut measured_sorted = measured.clone();
        measured_sorted.sort_unstable();
        assert_eq!(measured_sorted, want);
        assert!(traced.tracer.is_some());
    }
}
